package lcc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/field"
	"repro/internal/fieldmat"
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
		got, err := code.DecodeConcat(perm, res)
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
	// With up to maxErrors corruptions at random positions, DecodeWithErrors
	// must recover the exact result and identify exactly the corrupted
	// positions.
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
		got, bad, err := code.DecodeConcatWithErrors(idx, res, maxErr, r)
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

// TestDecodeIntoMatchesDecodeVectors: decoding a batched round straight into
// its trimmed per-column outputs gives, element for element, what
// DecodeVectors' blocks give once unpacked — and the product itself — for
// systematic and private codes, in any arrival order, with or without
// results beyond the threshold. With T = 0 this covers every mix of copied
// and combined blocks.
func TestDecodeIntoMatchesDecodeVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(502))
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
		rows, cols, batch := 1+r.Intn(4*k), 1+r.Intn(5), 1+r.Intn(5)
		x := fieldmat.Rand(f, r, rows, cols)
		shards, err := code.EncodeMatrix(x, r)
		if err != nil {
			return false
		}
		b := shards[0].Rows
		inputs := make([][]field.Elem, batch)
		for c := range inputs {
			inputs[c] = f.RandVec(r, cols)
		}
		workers := r.Perm(n)[:threshold+r.Intn(n-threshold+1)]
		res := make([][]field.Elem, len(workers))
		for i, w := range workers {
			for _, in := range inputs {
				res[i] = append(res[i], fieldmat.MatVec(f, shards[w], in)...)
			}
		}
		blocks, err := code.DecodeVectors(workers, res)
		if err != nil {
			return false
		}
		dst := make([][]field.Elem, batch)
		for c := range dst {
			dst[c] = make([]field.Elem, rows)
		}
		if err := code.DecodeInto(dst, workers, res); err != nil {
			return false
		}
		for c, out := range dst {
			var unpacked []field.Elem
			for _, blk := range blocks {
				unpacked = append(unpacked, blk[c*b:(c+1)*b]...)
			}
			if !field.EqualVec(out, unpacked[:rows]) || !field.EqualVec(out, fieldmat.MatVec(f, x, inputs[c])) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Error(err)
	}
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
