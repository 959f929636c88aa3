package lcc

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/field"
	"repro/internal/poly"
)

// Error-tolerant decoding for the LCC baseline. Unlike AVCC, the baseline
// has no per-worker verification: it must locate and correct up to M
// arbitrary (Byzantine) results inside the decode itself, which is why the
// paper's eq. (1) charges 2M workers. The implementation follows the
// standard two-step approach:
//
//  1. Project the vector-valued results onto a random direction ρ. Each
//     projected result is a scalar evaluation of the scalar polynomial
//     ⟨f(u(z)), ρ⟩; run Berlekamp–Welch on the projection to recover it and
//     identify the workers whose projected value disagrees (the Byzantines,
//     with probability ≥ 1 − n/q over ρ — a Byzantine escapes only if its
//     error vector is orthogonal to ρ).
//  2. Discard the flagged workers and interpolate every component from the
//     remaining clean results.
//
// The random projection keeps the cost at one BW solve total instead of one
// per output component, matching the near-linear decode complexity the
// paper quotes for LCC.

// ErrTooManyByzantine reports that error correction failed — more corrupted
// results than the 2M budget covers.
var ErrTooManyByzantine = errors.New("lcc: error decoding failed, too many Byzantine results")

// DecodeWithErrors recovers the block results from len(workers) results of
// which at most maxErrors are arbitrarily corrupted. It requires
// len(workers) ≥ Threshold() + 2·maxErrors. It also returns the positions
// (indices into workers) that were identified as corrupted.
func (c *Code) DecodeWithErrors(workers []int, results [][]field.Elem, maxErrors int, rng *rand.Rand) ([][]field.Elem, []int, error) {
	th := c.Threshold()
	need := th + 2*maxErrors
	if len(workers) < need {
		return nil, nil, fmt.Errorf("lcc: %d results cannot correct %d errors (need %d): %w",
			len(workers), maxErrors, need, ErrTooManyByzantine)
	}
	if len(workers) != len(results) {
		return nil, nil, fmt.Errorf("lcc: workers/results length mismatch")
	}
	if err := c.checkWorkers(workers); err != nil {
		return nil, nil, err
	}
	if maxErrors == 0 {
		out, err := c.DecodeVectors(workers, results)
		return out, nil, err
	}
	dim := len(results[0])
	for _, r := range results {
		if len(r) != dim {
			return nil, nil, fmt.Errorf("lcc: ragged result vectors")
		}
	}

	xs := c.points(workers)
	rho := c.f.RandVec(rng, dim)
	projected := make([]field.Elem, len(results))
	for r, res := range results {
		projected[r] = c.f.Dot(res, rho)
	}
	p, err := poly.DecodeBW(c.f, xs, projected, th, maxErrors)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrTooManyByzantine, err)
	}
	var clean []int
	var bad []int
	for r := range xs {
		if p.Eval(c.f, xs[r]) == projected[r] {
			clean = append(clean, r)
		} else {
			bad = append(bad, r)
		}
	}
	if len(clean) < th {
		return nil, nil, ErrTooManyByzantine
	}
	cw := make([]int, len(clean))
	cr := make([][]field.Elem, len(clean))
	for i, r := range clean {
		cw[i] = workers[r]
		cr[i] = results[r]
	}
	out, err := c.DecodeVectors(cw, cr)
	if err != nil {
		return nil, nil, err
	}
	return out, bad, nil
}

// DecodeConcatWithErrors is DecodeWithErrors with concatenated output.
func (c *Code) DecodeConcatWithErrors(workers []int, results [][]field.Elem, maxErrors int, rng *rand.Rand) ([]field.Elem, []int, error) {
	blocks, bad, err := c.DecodeWithErrors(workers, results, maxErrors, rng)
	if err != nil {
		return nil, nil, err
	}
	out := make([]field.Elem, 0, len(blocks)*len(blocks[0]))
	for _, b := range blocks {
		out = append(out, b...)
	}
	return out, bad, nil
}
