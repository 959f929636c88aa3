package lcc

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/field"
	"repro/internal/poly"
)

// Error location for the LCC baseline. Unlike AVCC, the baseline has no
// per-worker verification: it must locate up to M arbitrary (Byzantine)
// results among the ones it decodes, which is why the paper's eq. (1)
// charges 2M workers. The implementation follows the standard two-step
// approach:
//
//  1. Project the vector-valued results onto a random direction ρ. Each
//     projected result is a scalar evaluation of the scalar polynomial
//     ⟨f(u(z)), ρ⟩; run Berlekamp–Welch on the projection to recover it and
//     identify the workers whose projected value disagrees (the Byzantines,
//     with probability ≥ 1 − n/q over ρ — a Byzantine escapes only if its
//     error vector is orthogonal to ρ). That is Locate.
//  2. Discard the flagged workers and interpolate every component from the
//     remaining clean results: DecodeInto, the erasure decode every scheme
//     shares.
//
// The random projection keeps the cost at one BW solve total instead of one
// per output component, matching the near-linear decode complexity the
// paper quotes for LCC.

// ErrTooManyByzantine reports that error correction failed — more corrupted
// results than the 2M budget covers.
var ErrTooManyByzantine = errors.New("lcc: error decoding failed, too many Byzantine results")

// Locate returns the positions (indices into workers) of the results that
// disagree with the polynomial the rest determine, when at most maxErrors of
// them are arbitrarily corrupted; DecodeInto over the others then decodes.
// It requires len(workers) ≥ Threshold() + 2·maxErrors. It draws the
// projection from rng, and draws nothing with a zero budget, where it only
// checks the results' shape.
func (c *Code) Locate(workers []int, results [][]field.Elem, maxErrors int, rng *rand.Rand) ([]int, error) {
	th := c.Threshold()
	if need := th + 2*maxErrors; len(workers) < need {
		return nil, fmt.Errorf("lcc: %d results cannot correct %d errors (need %d): %w",
			len(workers), maxErrors, need, ErrTooManyByzantine)
	}
	if err := c.checkResults(workers, results); err != nil {
		return nil, err
	}
	if maxErrors == 0 {
		return nil, nil
	}
	xs := c.points(workers)
	rho := c.f.RandVec(rng, len(results[0]))
	projected := make([]field.Elem, len(results))
	for r, res := range results {
		projected[r] = c.f.Dot(res, rho)
	}
	p, err := poly.DecodeBW(c.f, xs, projected, th, maxErrors)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTooManyByzantine, err)
	}
	var bad []int
	for r := range xs {
		if p.Eval(c.f, xs[r]) != projected[r] {
			bad = append(bad, r)
		}
	}
	if len(xs)-len(bad) < th {
		return nil, ErrTooManyByzantine
	}
	return bad, nil
}
