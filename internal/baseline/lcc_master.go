// Package baseline implements the two comparison systems of the paper's
// evaluation: the state-of-the-art LCC master (coded redundancy with
// Reed–Solomon error correction, eq. 1) and the conventional uncoded master
// (no redundancy, no detection).
package baseline

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"repro/internal/attack"
	"repro/internal/cluster"
	"repro/internal/field"
	"repro/internal/fieldmat"
	"repro/internal/lcc"
	"repro/internal/simnet"
)

// LCCOptions configure the LCC baseline master.
type LCCOptions struct {
	// N, K, S, M, T are the coding parameters; the design point must
	// satisfy eq. (1) for the degree-1 matvec rounds: N ≥ K + T + S + 2M.
	N, K, S, M, T int
	// Sim is the latency model.
	Sim simnet.Config
	// Seed drives privacy masks and the error-locating projection.
	Seed int64
	// Receipts turns on the committed-verification plane: every round
	// carries a tenant-verifiable receipt over the outputs it consumed.
	// Requires T == 0 (masked shards are not openable against the public
	// matrix digest).
	Receipts bool
}

// LCCMaster is the paper's baseline: it waits for N−S results (it cannot
// verify early arrivals individually — Byzantine identification is coupled
// into Reed–Solomon decoding), then decodes correcting up to M errors.
//
// When more than M results are corrupted (the paper's Fig. 3(b)/(d)
// scenario: two Byzantines against an M=1 design), error decoding fails and
// the master falls back to erasure-only decoding over the fastest results —
// the corrupted contributions flow into the output, which is exactly the
// accuracy degradation the paper reports for overloaded LCC.
type LCCMaster struct {
	*cluster.Driver
	opt LCCOptions
	// rng draws the error-locating projection of every decode; rngMu
	// serialises the decodes that draw from it when rounds overlap
	// (IndependentRounds).
	rngMu sync.Mutex
	rng   *rand.Rand
	code  *lcc.Code
	plan  cluster.Plan
}

// NewLCCMaster encodes data at (N, K, T) and wires up the virtual cluster.
func NewLCCMaster(f *field.Field, opt LCCOptions, data map[string]*fieldmat.Matrix,
	behaviors []attack.Behavior, stragglers attack.StragglerSchedule) (*LCCMaster, error) {
	if opt.N < lcc.RequiredWorkersLCC(opt.K, opt.T, opt.S, opt.M, 1) {
		return nil, fmt.Errorf("lcc: params violate N >= K+T+S+2M = %d",
			lcc.RequiredWorkersLCC(opt.K, opt.T, opt.S, opt.M, 1))
	}
	if opt.Receipts && opt.T > 0 {
		return nil, fmt.Errorf("lcc: receipts require T == 0 (got T = %d)", opt.T)
	}
	code, err := lcc.New(f, opt.N, opt.K, opt.T, 1)
	if err != nil {
		return nil, err
	}
	m := &LCCMaster{opt: opt, rng: rand.New(rand.NewSource(opt.Seed)), code: code}
	m.Driver, err = cluster.NewDriver(f, "lcc", m, opt.N, data, opt.Sim, opt.Seed, opt.Receipts, behaviors, stragglers)
	if err != nil {
		return nil, err
	}
	m.plan = cluster.Plan{Active: make([]int, opt.N), Alphas: code.Alphas(), K: opt.K, Need: opt.N - opt.S}
	for i := range m.plan.Active {
		m.plan.Active[i] = i
	}
	for key, x := range data {
		shards, err := code.EncodeMatrix(x, m.rng)
		if err != nil {
			return nil, fmt.Errorf("lcc: encode %q: %w", key, err)
		}
		for i, sh := range shards {
			m.Workers()[i].Shards[key] = sh
		}
	}
	return m, nil
}

// Plan implements cluster.Policy: all N workers, complete at the first N−S
// arrivals.
func (m *LCCMaster) Plan(string, int) cluster.Plan { return m.plan }

// Check implements cluster.Policy: LCC cannot verify an arrival on its own —
// Byzantine identification is coupled into Reed–Solomon decoding.
func (m *LCCMaster) Check(*cluster.Round, *cluster.Result) (bool, float64) { return true, 0 }

// Decode implements cluster.Policy: one Reed–Solomon error location over the
// stacked results with an M-error budget (the projection sees every vector
// of the batch at once, so a worker corrupting ANY column is located by the
// same single solve), then the erasure decode over the results it did not
// flag.
func (m *LCCMaster) Decode(r *cluster.Round) ([][]field.Elem, float64, error) {
	threshold, wait := m.code.Threshold(), len(r.Workers)
	if wait < threshold {
		return nil, 0, fmt.Errorf("only %d usable worker results arrived, need %d (rejected %v; the rest crashed or dropped)",
			wait, threshold, r.Byzantine)
	}
	// Reed–Solomon decode cost: one projection pass over all results, the
	// Berlekamp–Welch solve (cubic in wait), and the interpolation pass.
	ops := float64(wait)*float64(len(r.Outputs[0])) + // projection
		float64(wait*wait*wait) + // BW linear system
		float64(threshold)*float64(r.Batch*r.Rows+threshold) // interpolation
	m.rngMu.Lock()
	bad, err := m.code.Locate(r.Workers, r.Outputs, m.opt.M, m.rng)
	m.rngMu.Unlock()
	switch {
	case err != nil:
		// Over-budget corruption: fall back to erasure-only decoding on the
		// fastest threshold results. Byzantine contributions pass through —
		// and stay in the receipt, whose verification is what exposes them
		// to the tenant.
		r.Attest = m.plan.Active[:threshold] // Active is 0..N−1: its prefix is the index list
	case len(bad) > 0:
		// The located-bad workers are left out of the decode, so the receipt
		// leaves them out too.
		r.Attest = make([]int, 0, wait-len(bad))
		for i := range r.Workers {
			if !slices.Contains(bad, i) {
				r.Attest = append(r.Attest, i)
			}
		}
		for _, pos := range bad {
			r.Byzantine = append(r.Byzantine, r.Workers[pos])
		}
	}
	workers, results := r.Workers, r.Outputs
	if r.Attest != nil {
		workers, results = make([]int, len(r.Attest)), make([][]field.Elem, len(r.Attest))
		for k, i := range r.Attest {
			workers[k], results[k] = r.Workers[i], r.Outputs[i]
		}
	}
	outputs := r.NewOutputs()
	if err := m.code.DecodeInto(outputs, workers, results); err != nil {
		return nil, 0, fmt.Errorf("decode: %w", err)
	}
	return outputs, ops, nil
}

// Observe implements cluster.Policy: the workers LCC did not wait for —
// landed past the ones it consumed, or still out when the round was stopped.
func (m *LCCMaster) Observe(r *cluster.Round) int {
	return len(r.Results) - r.Consumed + len(r.Pending)
}
