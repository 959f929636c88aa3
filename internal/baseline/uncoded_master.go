package baseline

import (
	"fmt"

	"repro/internal/attack"
	"repro/internal/cluster"
	"repro/internal/field"
	"repro/internal/fieldmat"
	"repro/internal/lcc"
	"repro/internal/simnet"
)

// UncodedOptions configure the conventional distributed baseline.
type UncodedOptions struct {
	// K is the number of participating workers; each holds 1/K of the
	// uncoded rows. The paper runs K = 9 of the 12 available nodes.
	K int
	// Sim is the latency model.
	Sim simnet.Config
	// Seed feeds the executor's jitter stream.
	Seed int64
	// Receipts turns on the committed-verification plane: every round
	// carries a tenant-verifiable receipt over the outputs it consumed. The
	// uncoded split is the systematic K-block code (worker i evaluates at
	// point i+1), so the same receipt protocol covers it unchanged — and
	// since the scheme itself never verifies anything, the receipt is the
	// ONLY way a tenant catches a Byzantine worker here.
	Receipts bool
}

// UncodedMaster is the conventional scheme: no redundancy, so the master
// must wait for ALL K workers (every straggler is on the critical path),
// and no verification, so Byzantine results flow straight into the output —
// both effects the paper's figures show.
type UncodedMaster struct {
	*cluster.Driver
	// code is the (K, K) systematic Lagrange code the uncoded split is: its
	// decode copies every block from its worker's result.
	code *lcc.Code
	plan cluster.Plan
}

// NewUncodedMaster splits each data matrix into K contiguous uncoded row
// blocks, one per worker.
func NewUncodedMaster(f *field.Field, opt UncodedOptions, data map[string]*fieldmat.Matrix,
	behaviors []attack.Behavior, stragglers attack.StragglerSchedule) (*UncodedMaster, error) {
	if opt.K < 1 {
		return nil, fmt.Errorf("uncoded: needs K >= 1")
	}
	code, err := lcc.New(f, opt.K, opt.K, 0, 1)
	if err != nil {
		return nil, fmt.Errorf("uncoded: %w", err)
	}
	m := &UncodedMaster{code: code}
	m.Driver, err = cluster.NewDriver(f, "uncoded", m, opt.K, data, opt.Sim, opt.Seed, opt.Receipts, behaviors, stragglers)
	if err != nil {
		return nil, err
	}
	// The uncoded split IS the systematic part of the block code: worker i
	// holds block i, i.e. the evaluation at interpolation point i+1.
	m.plan = cluster.Plan{Active: make([]int, opt.K), Alphas: code.Alphas(), K: opt.K, Need: opt.K}
	for i := range m.plan.Active {
		m.plan.Active[i] = i
	}
	for key, x := range data {
		for i, b := range fieldmat.SplitRows(fieldmat.PadRows(x, opt.K), opt.K) {
			m.Workers()[i].Shards[key] = b
		}
	}
	return m, nil
}

// Plan implements cluster.Policy: all K workers, and all K must answer.
func (m *UncodedMaster) Plan(string, int) cluster.Plan { return m.plan }

// Check implements cluster.Policy: the uncoded scheme verifies nothing.
func (m *UncodedMaster) Check(*cluster.Round, *cluster.Result) (bool, float64) { return true, 0 }

// Decode implements cluster.Policy: each worker's result IS its block, so
// decoding copies every column of it into that column's output at the
// block's offset (lcc.Code.DecodeInto over a code with no parity), at no
// cost. No redundancy means no erasure tolerance: a missing block is simply
// gone, and the round fails loudly rather than silently zero-filling the
// output.
func (m *UncodedMaster) Decode(r *cluster.Round) ([][]field.Elem, float64, error) {
	if len(r.Workers) < m.plan.K {
		return nil, 0, fmt.Errorf("got %d of %d worker results (mis-sized: workers %v; the rest crashed or were lost) and the uncoded scheme cannot recover",
			len(r.Workers), m.plan.K, r.Byzantine)
	}
	outputs := r.NewOutputs()
	if err := m.code.DecodeInto(outputs, r.Workers, r.Outputs); err != nil {
		return nil, 0, fmt.Errorf("decode: %w", err)
	}
	return outputs, 0, nil
}

// Observe implements cluster.Policy: every worker was waited for.
func (m *UncodedMaster) Observe(*cluster.Round) int { return 0 }
