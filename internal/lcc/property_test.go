package lcc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/field"
	"repro/internal/fieldmat"
	"repro/internal/poly"
)

// Property-based tests over randomly drawn code configurations: the
// encode→compute→decode identity must hold for every valid (N, K, T, degF)
// and every subset of workers of threshold size.

func TestEncodeDecodeIdentityQuickLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(500))
	if err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 1 + r.Intn(6)
		tt := r.Intn(2)
		threshold := RecoveryThreshold(k, tt, 1)
		n := threshold + 1 + r.Intn(4)
		code, err := New(f, n, k, tt, 1)
		if err != nil {
			return false
		}
		rows, cols := k*(1+r.Intn(3)), 1+r.Intn(5)
		x := fieldmat.Rand(f, r, rows, cols)
		w := f.RandVec(r, cols)
		shards, err := code.EncodeMatrix(x, r)
		if err != nil {
			return false
		}
		// Random threshold-sized subset.
		perm := r.Perm(n)[:threshold]
		res := make([][]field.Elem, threshold)
		for i, wk := range perm {
			res[i] = fieldmat.MatVec(f, shards[wk], w)
		}
		got, err := decodeFlat(code, perm, res)
		if err != nil {
			return false
		}
		return field.EqualVec(got, fieldmat.MatVec(f, x, w))
	}, &quick.Config{MaxCount: 40, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestEncodeDecodeIdentityQuickQuadratic(t *testing.T) {
	rng := rand.New(rand.NewSource(501))
	if err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 1 + r.Intn(4)
		tt := r.Intn(2)
		threshold := RecoveryThreshold(k, tt, 2)
		n := threshold + r.Intn(3)
		code, err := New(f, n, k, tt, 2)
		if err != nil {
			return false
		}
		rows, cols := k*(1+r.Intn(2)), 1+r.Intn(4)
		x := fieldmat.Rand(f, r, rows, cols)
		blocks := fieldmat.SplitRows(x, k)
		shards, err := code.EncodeBlocks(blocks, r)
		if err != nil {
			return false
		}
		perm := r.Perm(n)[:threshold]
		res := make([][]field.Elem, threshold)
		for i, wk := range perm {
			res[i] = applySquare(shards[wk])
		}
		got, err := code.DecodeVectors(perm, res)
		if err != nil {
			return false
		}
		for j, b := range blocks {
			if !field.EqualVec(got[j], applySquare(b)) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 30, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestErrorDecodeIdentityQuick(t *testing.T) {
	// With up to maxErrors corruptions at random positions, Locate must
	// identify exactly the corrupted positions, and DecodeInto over the
	// unflagged results must recover the exact result.
	rng := rand.New(rand.NewSource(502))
	if err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 2 + r.Intn(4)
		maxErr := 1 + r.Intn(2)
		threshold := RecoveryThreshold(k, 0, 1)
		n := threshold + 2*maxErr + r.Intn(2)
		code, err := New(f, n, k, 0, 1)
		if err != nil {
			return false
		}
		x := fieldmat.Rand(f, r, k*2, 3)
		w := f.RandVec(r, 3)
		shards, err := code.EncodeMatrix(x, nil)
		if err != nil {
			return false
		}
		res := make([][]field.Elem, n)
		idx := make([]int, n)
		for i := 0; i < n; i++ {
			idx[i] = i
			res[i] = fieldmat.MatVec(f, shards[i], w)
		}
		nErr := r.Intn(maxErr + 1)
		corruptPos := r.Perm(n)[:nErr]
		for _, p := range corruptPos {
			res[p] = field.CopyVec(res[p])
			res[p][r.Intn(len(res[p]))] = f.Add(res[p][0], f.RandNonZero(r))
		}
		got, bad, err := decodeWithErrors(code, idx, res, maxErr, r)
		if err != nil {
			return false
		}
		if !field.EqualVec(got, fieldmat.MatVec(f, x, w)) {
			return false
		}
		// Flagged positions must be a subset of the corrupted ones (a
		// corruption can coincidentally leave a valid-looking projection
		// with prob ~1/q, never flagging an honest worker is the invariant).
		corrupted := map[int]bool{}
		for _, p := range corruptPos {
			corrupted[p] = true
		}
		for _, p := range bad {
			if !corrupted[p] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 30, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestGeneratorColumnsSumToOneAtSystematicPoints(t *testing.T) {
	// ℓ_j(β_i) = δ_ij: at T = 0 the first K generator columns form the
	// identity — the algebraic root of systematicity, checked across sizes.
	for _, cfg := range []struct{ n, k int }{{5, 3}, {12, 9}, {7, 1}, {6, 6}} {
		code, err := New(f, cfg.n, cfg.k, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		x := fieldmat.Rand(f, rand.New(rand.NewSource(1)), cfg.k, 2)
		blocks := fieldmat.SplitRows(x, cfg.k)
		shards, err := code.EncodeBlocks(blocks, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < cfg.k; i++ {
			if !shards[i].Equal(blocks[i]) {
				t.Fatalf("(%d,%d): shard %d not systematic", cfg.n, cfg.k, i)
			}
		}
	}
}

// TestDecodeIntoMatchesLagrange: decoding a round straight into its trimmed
// per-column outputs gives, element for element, a test-local Lagrange
// interpolation of the first threshold results (lagrangeOutputs) — and the
// product itself — for systematic and private codes, in any arrival order,
// with or without results beyond the threshold. The degree-1 arm is a
// batched matvec round, the degree-2 arm a Gram round: one flattened b×b
// result per worker, decoded at batch 1 into one K·b×b output. With T = 0
// both arms cover every mix of copied and combined blocks.
func TestDecodeIntoMatchesLagrange(t *testing.T) {
	rng := rand.New(rand.NewSource(502))
	if err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		degF := 1 + r.Intn(2)
		k := 1 + r.Intn(6)
		tt := r.Intn(2)
		threshold := RecoveryThreshold(k, tt, degF)
		n := threshold + 1 + r.Intn(4)
		code, err := New(f, n, k, tt, degF)
		if err != nil {
			return false
		}
		rows, cols := 1+r.Intn(4*k), 1+r.Intn(5)
		x := fieldmat.Rand(f, r, rows, cols)
		shards, err := code.EncodeMatrix(x, r)
		if err != nil {
			return false
		}
		workers := r.Perm(n)[:threshold+r.Intn(n-threshold+1)]
		res := make([][]field.Elem, len(workers))
		var want [][]field.Elem
		if degF == 1 {
			batch := 1 + r.Intn(5)
			inputs := make([][]field.Elem, batch)
			for c := range inputs {
				inputs[c] = f.RandVec(r, cols)
				want = append(want, fieldmat.MatVec(f, x, inputs[c]))
			}
			for i, w := range workers {
				for _, in := range inputs {
					res[i] = append(res[i], fieldmat.MatVec(f, shards[w], in)...)
				}
			}
		} else {
			gram := func(m *fieldmat.Matrix) []field.Elem { return fieldmat.MatMul(f, m, m.Transpose()).Data }
			for i, w := range workers {
				res[i] = gram(shards[w])
			}
			var blocks []field.Elem
			for _, blk := range fieldmat.SplitRows(fieldmat.PadRows(x, k), k) {
				blocks = append(blocks, gram(blk)...)
			}
			want = [][]field.Elem{blocks}
		}
		dst := make([][]field.Elem, len(want))
		for c := range dst {
			dst[c] = make([]field.Elem, len(want[c]))
		}
		if err := code.DecodeInto(dst, workers, res); err != nil {
			return false
		}
		oracle := lagrangeOutputs(code, workers, res, dst)
		for c, out := range dst {
			if !field.EqualVec(out, oracle[c]) || !field.EqualVec(out, want[c]) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 80, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// lagrangeOutputs is DecodeInto's oracle, sharing neither its plan cache nor
// its systematic copies: the first threshold results, in arrival order,
// interpolated at every data point (poly.InterpWeights, then
// poly.CombineVectorsInto over whole results), and column c of every block
// appended to output c, trimmed to len(dst[c]).
func lagrangeOutputs(code *Code, workers []int, results, dst [][]field.Elem) [][]field.Elem {
	th := code.Threshold()
	xs := make([]field.Elem, th)
	for i, w := range workers[:th] {
		xs[i] = code.alphas[w]
	}
	b := len(results[0]) / len(dst)
	block := make([]field.Elem, len(results[0]))
	outs := make([][]field.Elem, len(dst))
	for j := 0; j < code.K(); j++ {
		poly.CombineVectorsInto(f, block, poly.InterpWeights(f, xs, code.betas[j]), results[:th])
		for c := range outs {
			outs[c] = append(outs[c], block[c*b:(c+1)*b]...)
		}
	}
	for c := range outs {
		outs[c] = outs[c][:len(dst[c])]
	}
	return outs
}

// TestDecodeIntoRejectsBadShapes: outputs longer than K blocks, or results
// that do not split into the outputs' columns, are refused.
func TestDecodeIntoRejectsBadShapes(t *testing.T) {
	code, err := New(f, 5, 3, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	res := [][]field.Elem{make([]field.Elem, 4), make([]field.Elem, 4), make([]field.Elem, 4)}
	for _, dst := range [][][]field.Elem{
		{make([]field.Elem, 13)}, // longer than K·b = 12
		{make([]field.Elem, 1), make([]field.Elem, 1), make([]field.Elem, 1)}, // 4 rows do not split in 3
	} {
		if err := code.DecodeInto(dst, []int{0, 1, 2}, res); err == nil {
			t.Errorf("DecodeInto accepted %d outputs of %d elements", len(dst), len(dst[0]))
		}
	}
}
