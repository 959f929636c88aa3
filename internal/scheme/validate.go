package scheme

import "fmt"

// InvalidConfigError reports a Config rejected by Validate before any
// backend construction ran: Field names the offending knob (or knob
// combination) and Reason says what about its value is impossible. It is a
// typed error so callers building configs from untrusted input (the serving
// layer, CLIs) can distinguish "your parameters are wrong" from backend
// construction failures:
//
//	var cfgErr *scheme.InvalidConfigError
//	if errors.As(err, &cfgErr) { http.Error(w, cfgErr.Error(), 400) }
type InvalidConfigError struct {
	Field  string
	Reason string
}

// Error implements error.
func (e *InvalidConfigError) Error() string {
	return fmt.Sprintf("scheme: invalid config: %s %s", e.Field, e.Reason)
}

// Validate checks the scheme-independent invariants every backend relies
// on: positive topology, K ≤ N, non-negative budgets that leave the code a
// chance (S+M erasures/corruptions must fit in the N−K redundancy), and a
// sane latency model. Backends still enforce their own tighter feasibility
// bounds (eq. 1 / eq. 2 scale with T and deg f); Validate rejects what no
// backend could ever accept, with a typed *InvalidConfigError naming the
// offending field.
//
// The envelope is deliberately uniform across schemes — a Config valid for
// one registered name is valid for all, which is what keeps cross-scheme
// comparisons honest. That includes the uncoded baseline: a no-redundancy
// deployment must SAY so (WithCoding(k, k) with WithBudgets(0, 0, 0)),
// not carry default fault budgets no deployment of it could honour.
func (c Config) Validate() error {
	switch {
	case c.N < 1:
		return &InvalidConfigError{"N", fmt.Sprintf("= %d, need at least one worker", c.N)}
	case c.K < 1:
		return &InvalidConfigError{"K", fmt.Sprintf("= %d, need at least one data block", c.K)}
	case c.K > c.N:
		return &InvalidConfigError{"K", fmt.Sprintf("= %d exceeds N = %d: the code dimension cannot exceed the worker count", c.K, c.N)}
	case c.S < 0:
		return &InvalidConfigError{"S", fmt.Sprintf("= %d, the straggler budget cannot be negative", c.S)}
	case c.M < 0:
		return &InvalidConfigError{"M", fmt.Sprintf("= %d, the Byzantine budget cannot be negative", c.M)}
	case c.T < 0:
		return &InvalidConfigError{"T", fmt.Sprintf("= %d, the privacy budget cannot be negative", c.T)}
	case c.S+c.M > c.N-c.K:
		return &InvalidConfigError{"S+M", fmt.Sprintf("= %d exceeds the N-K = %d redundant workers: no code can absorb more faults than it has redundancy", c.S+c.M, c.N-c.K)}
	case c.Shards < 0:
		return &InvalidConfigError{"Shards", fmt.Sprintf("= %d, the shard-group count cannot be negative (0 or 1 means a single group)", c.Shards)}
	case c.Receipts && c.T > 0:
		return &InvalidConfigError{"Receipts", fmt.Sprintf("requires T = 0, got T = %d: privacy-masked shards cannot be opened against the public matrix digest", c.T)}
	case !c.Sim.Validate():
		return &InvalidConfigError{"Sim", "is not a valid latency model (rates must be positive)"}
	}
	if c.Rebalance != nil {
		if err := c.Rebalance.Validate(); err != nil {
			return &InvalidConfigError{"Rebalance", err.Error()}
		}
	}
	return nil
}
