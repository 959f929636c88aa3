// Package mds implements the (N,K) systematic MDS row-block code AVCC uses
// for linear computations (deg f = 1, T = 0), per Section IV-A of the paper.
//
// The dataset X is split into K equal row blocks X_1..X_K and the i-th
// worker receives X̃_i = Σ_j G[j][i]·X_j. The generator is built from
// Lagrange basis polynomials on distinct points, G[j][i] = ℓ_j(α_i) with the
// data points β_j = α_j for j ≤ K, which makes the code systematic
// (X̃_i = X_i for i ≤ K, exactly the (3,2) example in the paper's Fig. 1:
// X̃_1 = X_1, X̃_2 = X_2, X̃_3 = X_1 + X_2 up to the choice of points) and
// guarantees the defining MDS property: any K columns of G are linearly
// independent, so the master can decode from ANY K verified worker results.
//
// Two evaluation-point layouts coexist behind one Code type (DESIGN.md §12):
//
//   - Subgroup domain (the NTT fast path): when the field's 2-adicity hosts
//     a size-nextpow2(N) transform, the α_i are laid out inside a
//     power-of-two multiplicative subgroup of F_q* (poly.Subgroup). The
//     generator columns come from O(N log N) transforms, the systematic
//     property G[j][i] = δ_ij for i < K holds exactly — so the first K
//     shards are zero-copy views of the data — and the N−K parity shards
//     are produced by one fused weighted-combination kernel
//     (field.FusedCombineInto).
//   - Lagrange domain (the paper's modulus): α_i = i+1 via
//     field.DistinctPoints and dense interpolation weights, exactly the
//     committed trajectory. Selecting it keeps every byte of the artifact
//     history reproducible.
//
// Both layouts produce codes that are bit-exact evaluations of the same
// degree-<K interpolant over their respective point sets; the differential
// suite in ntt_diff_test.go pins the fast path to the Lagrange formulas on a
// shared point set.
//
// The same code encodes Xᵀ row-blocks for the second logistic-regression
// round (g = Xᵀe); the codec is agnostic to which matrix it shards.
package mds

import (
	"errors"
	"fmt"

	"repro/internal/field"
	"repro/internal/fieldmat"
	"repro/internal/poly"
)

// Code is an immutable (N,K) systematic MDS code over a prime field.
type Code struct {
	f *field.Field
	n int
	k int
	// gen is the K×N generator matrix; column i holds the combination
	// coefficients of worker i's shard.
	gen *fieldmat.Matrix
	// alphas are the evaluation points the generator was built from: worker
	// i holds the value at alphas[i], block j lives at alphas[j] (the
	// systematic property). Decode interpolates between them.
	alphas []field.Elem
	// plans memoizes decode weights per verified-worker set: the churn and
	// degrade scenarios decode the same survivor set every round, so the
	// weight computation (with its batched inversions) amortises to a map
	// lookup. See DESIGN.md §7 for the keying.
	plans *poly.DecodePlans
	// domain is the subgroup evaluation/interpolation domain of the NTT
	// fast path, nil when the field's 2-adicity cannot host nextpow2(N)
	// points and the code runs on the Lagrange layout instead.
	domain *poly.Subgroup
	// parityW holds, fast path only, the N−K parity weight rows:
	// shard_{K+p} = Σ_j parityW[p][j]·block_j. These are the non-trivial
	// generator columns (the first K are unit vectors), extracted row-major
	// for the fused combine kernel.
	parityW [][]field.Elem
}

// New constructs an (n, k) code. It requires 1 ≤ k ≤ n and n < q (distinct
// evaluation points must exist). The evaluation-point layout is picked per
// (field, n, k): if the modulus hosts a size-nextpow2(n) NTT the subgroup
// fast path is used, otherwise the Lagrange layout — the paper's modulus
// (2-adicity 3) always takes the latter beyond n = 8.
func New(f *field.Field, n, k int) (*Code, error) {
	if k < 1 || n < k {
		return nil, fmt.Errorf("mds: invalid parameters (N,K) = (%d,%d)", n, k)
	}
	if uint64(n) >= f.Q() {
		return nil, fmt.Errorf("mds: N = %d does not fit in field of size %d", n, f.Q())
	}
	sg, err := poly.NewSubgroup(f, n, k)
	if err == nil {
		return newSubgroupCode(f, n, k, sg), nil
	}
	// Fall back to the Lagrange layout only on the one expected failure:
	// the field's 2-adicity cannot host the domain (*field.NTTSizeError,
	// possibly wrapped with context by the poly layer — hence errors.As,
	// not a type assertion). Anything else is a real error and propagates.
	var sizeErr *field.NTTSizeError
	if !errors.As(err, &sizeErr) {
		return nil, fmt.Errorf("mds: building (%d,%d) subgroup domain: %w", n, k, err)
	}
	alphas := f.DistinctPoints(n, 1) // α_i = i+1; β_j = α_j for j < k
	betas := alphas[:k]
	gen := fieldmat.NewMatrix(k, n)
	// Column i is ℓ_·(α_i); the batch shares one denominator inversion over
	// the betas across all N columns.
	for i, col := range poly.InterpWeightsBatch(f, betas, alphas) {
		for j, w := range col {
			gen.Set(j, i, w)
		}
	}
	return &Code{f: f, n: n, k: k, gen: gen, alphas: alphas,
		plans: poly.NewDecodePlans(f, betas, poly.WorkerSets(n, k))}, nil
}

// newSubgroupCode builds the NTT-fast-path code: the generator columns are
// the subgroup-domain encodings of the unit data vectors, which by
// uniqueness of the degree-<k interpolant equal the Lagrange basis values
// ℓ_j(α_i) over the same points — bit-exactly, since both are exact field
// arithmetic.
func newSubgroupCode(f *field.Field, n, k int, sg *poly.Subgroup) *Code {
	alphas := sg.Points()
	gen := fieldmat.NewMatrix(k, n)
	y := make([]field.Elem, k)
	out := make([]field.Elem, n)
	for j := 0; j < k; j++ {
		clear(y)
		y[j] = 1
		sg.Encode(y, out)
		for i, v := range out {
			gen.Set(j, i, v)
		}
	}
	parityW := make([][]field.Elem, n-k)
	for p := range parityW {
		row := make([]field.Elem, k)
		for j := range row {
			row[j] = gen.At(j, k+p)
		}
		parityW[p] = row
	}
	return &Code{f: f, n: n, k: k, gen: gen, alphas: alphas,
		plans: poly.NewDecodePlans(f, alphas[:k], poly.WorkerSets(n, k)), domain: sg, parityW: parityW}
}

// N returns the code length (number of workers).
func (c *Code) N() int { return c.n }

// K returns the code dimension (number of data blocks).
func (c *Code) K() int { return c.k }

// Field returns the underlying field.
func (c *Code) Field() *field.Field { return c.f }

// NTTAccelerated reports whether this code runs on the subgroup fast path:
// O(N log N) generator construction, zero-copy systematic shards, and the
// fused parity kernel. False means the Lagrange layout (the paper's modulus
// beyond its 2-adicity, or any field without room for nextpow2(N) points).
func (c *Code) NTTAccelerated() bool { return c.domain != nil }

// Generator returns a copy of the K×N generator matrix.
func (c *Code) Generator() *fieldmat.Matrix { return c.gen.Clone() }

// EncodeBlocks maps K equal-shape data blocks to N coded shards.
//
// On the NTT fast path the first K shards ARE the input blocks (the
// systematic columns of the generator are exact unit vectors, so the copy
// the Lagrange path performs would be the identity): callers that mutate
// blocks after encoding must clone first. The Lagrange path returns fresh
// matrices throughout, as the seed did.
func (c *Code) EncodeBlocks(blocks []*fieldmat.Matrix) ([]*fieldmat.Matrix, error) {
	if len(blocks) != c.k {
		return nil, fmt.Errorf("mds: got %d blocks, code dimension is %d", len(blocks), c.k)
	}
	rows, cols := blocks[0].Rows, blocks[0].Cols
	for _, b := range blocks {
		if b.Rows != rows || b.Cols != cols {
			return nil, fmt.Errorf("mds: blocks have unequal shapes")
		}
	}
	shards := make([]*fieldmat.Matrix, c.n)
	if c.domain != nil {
		copy(shards, blocks) // zero-copy systematic shards
		if c.n > c.k {
			dsts := make([][]field.Elem, c.n-c.k)
			srcs := make([][]field.Elem, c.k)
			for j, b := range blocks {
				srcs[j] = b.Data
			}
			for p := range dsts {
				sh := fieldmat.NewMatrix(rows, cols)
				shards[c.k+p] = sh
				dsts[p] = sh.Data
			}
			c.f.FusedCombineInto(dsts, c.parityW, srcs)
		}
		return shards, nil
	}
	for i := 0; i < c.n; i++ {
		sh := fieldmat.NewMatrix(rows, cols)
		for j := 0; j < c.k; j++ {
			coef := c.gen.At(j, i)
			if coef == 0 {
				continue
			}
			sh.AXPY(c.f, coef, blocks[j])
		}
		shards[i] = sh
	}
	return shards, nil
}

// EncodeMatrix splits x into K row blocks and encodes them. The row count
// must be divisible by K (callers pad if needed; the experiment harness
// always picks divisible shapes, as the paper does with m = 6000, K = 9 via
// padding to 6003 — see internal/dataset).
//
// On the NTT fast path the first K shards are views into x's backing slice
// (zero-copy systematic property); see EncodeMatrixInto.
func (c *Code) EncodeMatrix(x *fieldmat.Matrix) ([]*fieldmat.Matrix, error) {
	shards := make([]*fieldmat.Matrix, c.n)
	if err := c.EncodeMatrixInto(shards, x); err != nil {
		return nil, err
	}
	return shards, nil
}

// EncodeMatrixInto encodes x into caller-owned shards: the steady-state form
// with zero heap allocations once the shard headers exist. shards must have
// length N; nil entries are allocated, non-nil entries are resized and
// overwritten in place when their backing capacity already fits.
//
// On the NTT fast path the first K shards become views of x's row blocks
// (their Data fields alias x.Data — the systematic generator columns are
// unit vectors, so materialising them would copy the identity) and only the
// N−K parity shards own storage, written by one fused combine pass. On the
// Lagrange path every shard owns storage and is accumulated with the
// clear+AXPY structure of the committed trajectory, minus the seed's
// intermediate SplitRows copy — the sharded AXPY reads straight out of x.
//
//avcc:noalloc
func (c *Code) EncodeMatrixInto(shards []*fieldmat.Matrix, x *fieldmat.Matrix) error {
	if x.Rows%c.k != 0 {
		//avcc:alloc-ok cold misuse path
		return fmt.Errorf("mds: %d rows not divisible by K = %d", x.Rows, c.k)
	}
	if len(shards) != c.n {
		//avcc:alloc-ok cold misuse path
		return fmt.Errorf("mds: got %d shard slots, code length is %d", len(shards), c.n)
	}
	per := x.Rows / c.k
	width := per * x.Cols
	//avcc:alloc-ok stack closure (called directly, never escapes); shard refills inside run on first use only
	own := func(i int) *fieldmat.Matrix { // shard i with owned, right-sized storage
		sh := shards[i]
		if sh == nil {
			sh = new(fieldmat.Matrix)
			shards[i] = sh
		}
		sh.Rows, sh.Cols = per, x.Cols
		if len(sh.Data) != width {
			sh.Data = make([]field.Elem, width)
		}
		return sh
	}
	if c.domain != nil {
		for i := 0; i < c.k; i++ {
			sh := shards[i]
			if sh == nil {
				sh = new(fieldmat.Matrix) //avcc:alloc-ok first-use shard-header fill; steady state reuses it
				shards[i] = sh
			}
			sh.Rows, sh.Cols = per, x.Cols
			sh.Data = x.Data[i*width : (i+1)*width : (i+1)*width]
		}
		if c.n == c.k {
			return nil
		}
		var dstArr, srcArr [64][]field.Elem
		dsts, srcs := dstArr[:0], srcArr[:0]
		if c.n-c.k > len(dstArr) {
			dsts = make([][]field.Elem, 0, c.n-c.k) //avcc:alloc-ok beyond the 64-shard stack arrays only
		}
		if c.k > len(srcArr) {
			srcs = make([][]field.Elem, 0, c.k) //avcc:alloc-ok beyond the 64-shard stack arrays only
		}
		for p := c.k; p < c.n; p++ {
			dsts = append(dsts, own(p).Data) //avcc:alloc-ok capacity reserved above (stack array or exact-cap make); cannot grow
		}
		for j := 0; j < c.k; j++ {
			srcs = append(srcs, x.Data[j*width:(j+1)*width]) //avcc:alloc-ok capacity reserved above (stack array or exact-cap make); cannot grow
		}
		c.f.FusedCombineInto(dsts, c.parityW, srcs)
		return nil
	}
	for i := 0; i < c.n; i++ {
		sh := own(i)
		clear(sh.Data)
		for j := 0; j < c.k; j++ {
			if coef := c.gen.At(j, i); coef != 0 {
				c.f.AXPY(sh.Data, coef, x.Data[j*width:(j+1)*width])
			}
		}
	}
	return nil
}

// DecodeVectors recovers the K per-block results Y_1..Y_K from exactly K
// verified worker results: results[r] = Σ_j G[j][workers[r]]·Y_j. This is
// the paper's step 4. Because G[j][i] = ℓ_j(α_i) over the data points, the
// results are evaluations at {α_workers[r]} of the degree-(K−1) vector
// polynomial whose value at β_j is Y_j — so decoding is interpolation, not
// linear solving: Y_j = Σ_r W[j][r]·results[r] with interpolation weights
// W[j][r] = ℓ'_r(β_j) over the points {α_workers[r]}. The weight matrix
// depends only on the worker set and is memoized (decodePlan), so repeated
// decodes from the same survivors — every steady round of every scenario —
// cost one lazy weighted pass per block and nothing else.
func (c *Code) DecodeVectors(workers []int, results [][]field.Elem) ([][]field.Elem, error) {
	dim, err := c.checkDecodeArgs(workers, results)
	if err != nil {
		return nil, err
	}
	out := make([][]field.Elem, c.k)
	for j := range out {
		out[j] = make([]field.Elem, dim)
	}
	if err := c.DecodeVectorsInto(out, workers, results); err != nil {
		return nil, err
	}
	return out, nil
}

// DecodeVectorsInto decodes into caller-owned block rows — the zero-
// -allocation steady-state form (on decode-plan cache hits, the round loop's
// common case). dst must have K rows matching the result dimension; rows are
// overwritten and must not alias the results.
//
//avcc:noalloc
func (c *Code) DecodeVectorsInto(dst [][]field.Elem, workers []int, results [][]field.Elem) error {
	dim, err := c.checkDecodeArgs(workers, results)
	if err != nil {
		return err
	}
	if len(dst) != c.k {
		//avcc:alloc-ok cold misuse path
		return fmt.Errorf("mds: got %d output rows, code dimension is %d", len(dst), c.k)
	}
	for _, d := range dst {
		if len(d) != dim {
			//avcc:alloc-ok cold misuse path
			return fmt.Errorf("mds: output rows do not match result dimension %d", dim)
		}
	}
	weights := c.weightsFor(workers)
	for j := 0; j < c.k; j++ {
		poly.CombineVectorsInto(c.f, dst[j], weights[j], results)
	}
	return nil
}

// DecodeConcat decodes like DecodeVectors and concatenates the block results
// into one vector — the shape the logistic-regression master consumes
// (z = Xw as a single length-m vector).
func (c *Code) DecodeConcat(workers []int, results [][]field.Elem) ([]field.Elem, error) {
	dim, err := c.checkDecodeArgs(workers, results)
	if err != nil {
		return nil, err
	}
	out := make([]field.Elem, c.k*dim)
	if err := c.DecodeConcatInto(out, workers, results); err != nil {
		return nil, err
	}
	return out, nil
}

// DecodeConcatInto is DecodeConcat writing into a caller-owned vector of
// length K·dim — zero heap allocations on decode-plan cache hits.
//
//avcc:noalloc
func (c *Code) DecodeConcatInto(dst []field.Elem, workers []int, results [][]field.Elem) error {
	dim, err := c.checkDecodeArgs(workers, results)
	if err != nil {
		return err
	}
	if len(dst) != c.k*dim {
		//avcc:alloc-ok cold misuse path
		return fmt.Errorf("mds: got output length %d, want K·dim = %d", len(dst), c.k*dim)
	}
	weights := c.weightsFor(workers)
	for j := 0; j < c.k; j++ {
		poly.CombineVectorsInto(c.f, dst[j*dim:(j+1)*dim], weights[j], results)
	}
	return nil
}

// checkDecodeArgs validates a decode request and returns the result
// dimension. The duplicate-worker scan is O(K²) on purpose: K is a worker
// count (a dozen or two), and the quadratic scan beats allocating a map on
// every round-loop decode.
func (c *Code) checkDecodeArgs(workers []int, results [][]field.Elem) (int, error) {
	if len(workers) != c.k || len(results) != c.k {
		return 0, fmt.Errorf("mds: decode needs exactly K = %d results, got %d", c.k, len(workers))
	}
	dim := len(results[0])
	for r, w := range workers {
		if w < 0 || w >= c.n {
			return 0, fmt.Errorf("mds: worker index %d out of range [0,%d)", w, c.n)
		}
		for _, prev := range workers[:r] {
			if prev == w {
				return 0, fmt.Errorf("mds: duplicate worker index %d", w)
			}
		}
		if len(results[r]) != dim {
			return 0, fmt.Errorf("mds: ragged result vectors")
		}
	}
	return dim, nil
}

// weightsFor maps a validated worker set to its memoized interpolation
// weight matrix. The point-set key is assembled on the stack for worker
// counts up to 64, so cache hits allocate nothing.
func (c *Code) weightsFor(workers []int) [][]field.Elem {
	var arr [64]field.Elem
	xs := arr[:0]
	if c.k > len(arr) {
		xs = make([]field.Elem, 0, c.k)
	}
	for _, w := range workers {
		xs = append(xs, c.alphas[w])
	}
	return c.plans.Weights(xs)
}
