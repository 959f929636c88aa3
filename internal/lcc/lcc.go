// Package lcc implements Lagrange Coded Computing (Yu et al., AISTATS 2019)
// as used by the AVCC paper: the encoder of Section IV-B (eq. 12–13) with T
// random privacy masks, the interpolation decoder, and — for the LCC
// *baseline* that AVCC is compared against — a Reed–Solomon style decoder
// that corrects M Byzantine results at the classic cost of 2M extra workers.
//
// The dataset is split into K blocks X_1..X_K; the encoding polynomial
//
//	u(z) = Σ_{j≤K} X_j·ℓ_j(z) + Σ_{K<j≤K+T} W_j·ℓ_j(z)
//
// passes through the data at points β_1..β_K and through uniformly random
// masks W_j at β_{K+1}..β_{K+T}. Worker i receives X̃_i = u(α_i) and applies
// the target polynomial f, producing one evaluation of f(u(z)), a polynomial
// of degree ≤ (K+T−1)·deg f. The master interpolates it from any
// (K+T−1)·deg f + 1 evaluations and reads f(X_j) = f(u(β_j)).
//
// When T > 0 the worker points A = {α_i} are chosen disjoint from the data
// points B = {β_j} (the paper's A ∩ B = ∅ condition) so no worker holds a
// raw data block; any T shards are jointly uniform (Theorem 1, T-privacy).
package lcc

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/field"
	"repro/internal/fieldmat"
	"repro/internal/poly"
)

// Code is an immutable (N, K, T) Lagrange code for computations of a fixed
// polynomial degree.
type Code struct {
	f    *field.Field
	n    int
	k    int
	t    int
	degF int
	// betas has K+T entries: data points then mask points.
	betas []field.Elem
	// alphas has N entries: worker evaluation points.
	alphas []field.Elem
	// enc has N rows of K+T encoding weights, enc[i][j] = ℓ_j(α_i): shard i
	// is Σ_j enc[i][j]·(block or mask j).
	enc [][]field.Elem
	// plans memoizes decode weights per surviving-worker point set (targets
	// are the K data points); scenario churn re-decodes the same survivor
	// set every round, so the interpolation weights amortise to a lookup.
	plans *poly.DecodePlans
}

// New constructs an (n, k, t) Lagrange code for degree-degF computations.
// It validates only code-shape constraints; resiliency/security budgets
// (S, M) are properties of how many results the caller waits for, checked by
// RequiredWorkersAVCC / RequiredWorkersLCC.
func New(f *field.Field, n, k, t, degF int) (*Code, error) {
	if k < 1 || t < 0 || degF < 1 {
		return nil, fmt.Errorf("lcc: invalid (K,T,degF) = (%d,%d,%d)", k, t, degF)
	}
	if n < RecoveryThreshold(k, t, degF) {
		return nil, fmt.Errorf("lcc: N = %d below recovery threshold %d", n, RecoveryThreshold(k, t, degF))
	}
	if uint64(n+k+t) >= f.Q() {
		return nil, fmt.Errorf("lcc: N+K+T = %d does not fit in field of size %d", n+k+t, f.Q())
	}
	var betas, alphas []field.Elem
	if t == 0 {
		// Systematic layout: α_j = β_j for j ≤ K (overlap allowed, and
		// desirable — the first K workers hold raw blocks, matching MDS).
		alphas = f.DistinctPoints(n, 1)
		betas = alphas[:k]
	} else {
		// Privacy requires A ∩ B = ∅.
		betas = f.DistinctPoints(k+t, 1)
		alphas = f.DistinctPoints(n, uint64(k+t)+1)
	}
	return &Code{f: f, n: n, k: k, t: t, degF: degF, betas: betas, alphas: alphas,
		enc: poly.InterpWeightsBatch(f, betas, alphas), plans: poly.NewDecodePlans(f, betas[:k])}, nil
}

// RecoveryThreshold returns the number of correct evaluations needed to
// interpolate f(u(z)): (K+T−1)·deg f + 1.
func RecoveryThreshold(k, t, degF int) int { return (k+t-1)*degF + 1 }

// RequiredWorkersAVCC returns the paper's eq. (2):
// N ≥ (K+T−1)·deg f + S + M + 1. Byzantines cost the same as stragglers
// because verification discards them individually.
func RequiredWorkersAVCC(k, t, s, m, degF int) int {
	return (k+t-1)*degF + s + m + 1
}

// RequiredWorkersLCC returns the paper's eq. (1):
// N ≥ (K+T−1)·deg f + S + 2M + 1. The factor 2 is the Reed–Solomon
// error-correction cost implemented by DecodeWithErrors.
func RequiredWorkersLCC(k, t, s, m, degF int) int {
	return (k+t-1)*degF + s + 2*m + 1
}

// N returns the code length.
func (c *Code) N() int { return c.n }

// K returns the number of data blocks.
func (c *Code) K() int { return c.k }

// T returns the number of privacy masks (colluding workers tolerated).
func (c *Code) T() int { return c.t }

// DegF returns the computation degree the code is configured for.
func (c *Code) DegF() int { return c.degF }

// Field returns the underlying field.
func (c *Code) Field() *field.Field { return c.f }

// Threshold returns this code's recovery threshold.
func (c *Code) Threshold() int { return RecoveryThreshold(c.k, c.t, c.degF) }

// Alphas returns a copy of the worker evaluation points.
func (c *Code) Alphas() []field.Elem { return field.CopyVec(c.alphas) }

// EncodeBlocks encodes K equal-shape data blocks into N coded shards,
// drawing the T privacy masks from rng (mask by mask, row-major). rng may be
// nil when T = 0.
//
// With T = 0 the code is systematic — α_j = β_j for j < K, so ℓ_j(α_i) = δ_ij
// exactly — and shards 0…K−1 ARE blocks 0…K−1: the same matrices, not
// copies. Only the N−K parity shards are computed, in one fused pass over
// the blocks (fieldmat.CombineInto). With T > 0 every shard is computed, the
// masks joining the blocks as sources. Blocks must not be written while the
// shards are in use.
func (c *Code) EncodeBlocks(blocks []*fieldmat.Matrix, rng *rand.Rand) ([]*fieldmat.Matrix, error) {
	if len(blocks) != c.k {
		return nil, fmt.Errorf("lcc: got %d blocks, K = %d", len(blocks), c.k)
	}
	rows, cols := blocks[0].Rows, blocks[0].Cols
	for _, b := range blocks {
		if b.Rows != rows || b.Cols != cols {
			return nil, fmt.Errorf("lcc: blocks have unequal shapes")
		}
	}
	if c.t > 0 && rng == nil {
		return nil, fmt.Errorf("lcc: T = %d requires a random source for the privacy masks", c.t)
	}
	srcs := make([][]field.Elem, c.k+c.t)
	for j, b := range blocks {
		srcs[j] = b.Data
	}
	for j := c.k; j < c.k+c.t; j++ {
		srcs[j] = fieldmat.Rand(c.f, rng, rows, cols).Data
	}
	shards := make([]*fieldmat.Matrix, c.n)
	first := 0
	if c.t == 0 {
		copy(shards, blocks)
		first = c.k
	}
	dsts := make([][]field.Elem, c.n-first)
	for i := first; i < c.n; i++ {
		shards[i] = fieldmat.NewMatrix(rows, cols)
		dsts[i-first] = shards[i].Data
	}
	fieldmat.CombineInto(c.f, dsts, c.enc[first:], srcs)
	return shards, nil
}

// EncodeMatrix splits x into K row blocks of ⌈rows/K⌉ rows and encodes them
// (EncodeBlocks). It pads as fieldmat.PadRows would, without copying x: a
// block that x fills is a view of x's rows, and only a block that runs past
// x's last row is copied and zero-padded. With T = 0 the systematic shards
// are those blocks, so they alias x.Data wherever x fills them: x must not
// be written while the shards are in use.
func (c *Code) EncodeMatrix(x *fieldmat.Matrix, rng *rand.Rand) ([]*fieldmat.Matrix, error) {
	per := (x.Rows + c.k - 1) / c.k
	width := per * x.Cols
	blocks := make([]*fieldmat.Matrix, c.k)
	for j := range blocks {
		lo, hi := j*width, (j+1)*width
		if hi <= len(x.Data) {
			blocks[j] = &fieldmat.Matrix{Rows: per, Cols: x.Cols, Data: x.Data[lo:hi:hi]}
			continue
		}
		blocks[j] = fieldmat.NewMatrix(per, x.Cols)
		if lo < len(x.Data) {
			copy(blocks[j].Data, x.Data[lo:])
		}
	}
	return c.EncodeBlocks(blocks, rng)
}

// DecodeVectors recovers f(X_1)..f(X_K) (flattened as vectors) from at least
// Threshold() verified worker results. results[r] = f(u(α_{workers[r]})).
// All supplied results are trusted; AVCC guarantees this by Freivalds
// verification before decode.
func (c *Code) DecodeVectors(workers []int, results [][]field.Elem) ([][]field.Elem, error) {
	if err := c.checkResults(workers, results); err != nil {
		return nil, err
	}
	// Interpolation uses exactly the threshold count (extra results are
	// redundant once verified).
	th := c.Threshold()
	workers = workers[:th]
	results = results[:th]
	weights := c.plans.Weights(c.points(workers))
	out := make([][]field.Elem, c.k)
	for j := 0; j < c.k; j++ {
		out[j] = poly.CombineVectors(c.f, weights[j], results)
	}
	return out, nil
}

// DecodeInto is DecodeVectors for a batched round, written straight into the
// round's per-request outputs instead of K fresh blocks. Every result packs
// len(dst) columns of b = len(result)/len(dst) rows, column col at
// [col·b, (col+1)·b); dst[col] receives column col of block 0, then of block
// 1, …, trimmed to len(dst[col]) ≤ K·b. The results must be canonical, as
// verified results are.
//
// With T = 0 the code is systematic: block j is what worker j computed, so a
// block whose worker is among the first Threshold() results is copied from
// its result. Its interpolation weights are a unit vector, which makes the
// copy the combination, bit for bit. Only the other blocks are combined, one
// column at a time.
func (c *Code) DecodeInto(dst [][]field.Elem, workers []int, results [][]field.Elem) error {
	if err := c.checkResults(workers, results); err != nil {
		return err
	}
	batch, dim := len(dst), len(results[0])
	if batch == 0 || dim%batch != 0 {
		return fmt.Errorf("lcc: %d-element results do not split into %d columns", dim, batch)
	}
	b := dim / batch
	for _, out := range dst {
		if len(out) > c.k*b {
			return fmt.Errorf("lcc: output of %d elements exceeds K·b = %d", len(out), c.k*b)
		}
	}
	th := c.Threshold()
	workers = workers[:th]
	results = results[:th]
	var weights, cols [][]field.Elem // built on the first combined block
	var order []int
	for j := 0; j < c.k; j++ {
		src := -1
		if c.t == 0 {
			src = slices.Index(workers, j)
		}
		lo := j * b
		for col, out := range dst {
			if lo >= len(out) {
				continue
			}
			seg, from := out[lo:min(lo+b, len(out))], col*b
			if src >= 0 {
				copy(seg, results[src][from:])
				continue
			}
			if weights == nil {
				weights, order = c.sortedWeights(workers)
				cols = make([][]field.Elem, th)
			}
			for i, r := range order {
				cols[i] = results[r][from : from+len(seg)]
			}
			poly.CombineVectorsInto(c.f, seg, weights[j], cols)
		}
	}
	return nil
}

// sortedWeights returns the decode weights of a worker set taken in worker
// order, and that order as indices into workers. The combination is the same
// sum in any order, and looking the weights up by the sorted set makes every
// arrival order of one set share its cached plan.
func (c *Code) sortedWeights(workers []int) (weights [][]field.Elem, order []int) {
	order = make([]int, len(workers))
	for r := range order {
		order[r] = r
	}
	slices.SortFunc(order, func(a, b int) int { return workers[a] - workers[b] })
	xs := make([]field.Elem, len(order))
	for i, r := range order {
		xs[i] = c.alphas[workers[r]]
	}
	return c.plans.Weights(xs), order
}

// checkResults validates a decode's inputs: at least Threshold() results,
// one per distinct in-range worker, all of one length.
func (c *Code) checkResults(workers []int, results [][]field.Elem) error {
	th := c.Threshold()
	if len(workers) < th {
		return fmt.Errorf("lcc: %d results below recovery threshold %d", len(workers), th)
	}
	if len(workers) != len(results) {
		return fmt.Errorf("lcc: workers/results length mismatch")
	}
	if err := c.checkWorkers(workers); err != nil {
		return err
	}
	dim := len(results[0])
	for _, r := range results {
		if len(r) != dim {
			return fmt.Errorf("lcc: ragged result vectors")
		}
	}
	return nil
}

// points returns the evaluation points of the given workers.
func (c *Code) points(workers []int) []field.Elem {
	xs := make([]field.Elem, len(workers))
	for r, w := range workers {
		xs[r] = c.alphas[w]
	}
	return xs
}

// DecodeConcat decodes and concatenates block results into one vector.
func (c *Code) DecodeConcat(workers []int, results [][]field.Elem) ([]field.Elem, error) {
	blocks, err := c.DecodeVectors(workers, results)
	if err != nil {
		return nil, err
	}
	out := make([]field.Elem, 0, len(blocks)*len(blocks[0]))
	for _, b := range blocks {
		out = append(out, b...)
	}
	return out, nil
}

// checkWorkers rejects an out-of-range or repeated worker index. It marks
// the workers seen in a bitset, on the stack for codes of up to 256 workers.
func (c *Code) checkWorkers(workers []int) error {
	var small [4]uint64
	seen := small[:]
	if words := (c.n + 63) / 64; words > len(small) {
		seen = make([]uint64, words)
	}
	for _, w := range workers {
		if w < 0 || w >= c.n {
			return fmt.Errorf("lcc: worker index %d out of range [0,%d)", w, c.n)
		}
		bit := uint64(1) << (w % 64)
		if seen[w/64]&bit != 0 {
			return fmt.Errorf("lcc: duplicate worker index %d", w)
		}
		seen[w/64] |= bit
	}
	return nil
}
