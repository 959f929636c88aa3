package lcc

import (
	"math/rand"
	"testing"

	"repro/internal/field"
	"repro/internal/fieldmat"
)

var f = field.Default()

// applyLinear simulates a worker computing f(X̃) = X̃·w (deg 1).
func applyLinear(sh *fieldmat.Matrix, w []field.Elem) []field.Elem {
	return fieldmat.MatVec(f, sh, w)
}

// decodeFlat decodes into one output of K·b elements, which is the K
// decoded blocks concatenated.
func decodeFlat(code *Code, workers []int, results [][]field.Elem) ([]field.Elem, error) {
	out := make([]field.Elem, code.K()*len(results[0]))
	return out, code.DecodeInto([][]field.Elem{out}, workers, results)
}

// applySquare simulates a worker computing the element-wise square of its
// shard flattened to a vector — a degree-2 polynomial computation, the
// smallest nonlinear case LCC supports and MDS does not.
func applySquare(sh *fieldmat.Matrix) []field.Elem {
	out := make([]field.Elem, len(sh.Data))
	for i, v := range sh.Data {
		out[i] = f.Mul(v, v)
	}
	return out
}

func TestThresholds(t *testing.T) {
	// Paper eq. (1) vs eq. (2): the whole point of AVCC.
	if got := RequiredWorkersLCC(9, 0, 1, 1, 1); got != 12 {
		t.Fatalf("LCC(K=9,S=1,M=1) needs %d, want 12", got)
	}
	if got := RequiredWorkersAVCC(9, 0, 1, 2, 1); got != 12 {
		t.Fatalf("AVCC(K=9,S=1,M=2) needs %d, want 12", got)
	}
	if got := RequiredWorkersAVCC(9, 0, 2, 1, 1); got != 12 {
		t.Fatalf("AVCC(K=9,S=2,M=1) needs %d, want 12", got)
	}
	// Tolerating 2 Byzantines costs LCC 4 extra workers but AVCC only 2.
	if RequiredWorkersLCC(9, 0, 0, 2, 1)-RequiredWorkersLCC(9, 0, 0, 0, 1) != 4 {
		t.Fatal("LCC Byzantine cost should be 2 workers each")
	}
	if RequiredWorkersAVCC(9, 0, 0, 2, 1)-RequiredWorkersAVCC(9, 0, 0, 0, 1) != 2 {
		t.Fatal("AVCC Byzantine cost should be 1 worker each")
	}
	if got := RecoveryThreshold(9, 0, 1); got != 9 {
		t.Fatalf("threshold(9,0,1) = %d, want 9", got)
	}
	if got := RecoveryThreshold(3, 1, 2); got != 7 {
		t.Fatalf("threshold(3,1,2) = %d, want 7", got)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(f, 12, 9, 0, 1); err != nil {
		t.Fatalf("paper config rejected: %v", err)
	}
	bad := []struct{ n, k, t, degF int }{
		{8, 9, 0, 1},  // below threshold
		{12, 0, 0, 1}, // k < 1
		{12, 9, -1, 1},
		{12, 9, 0, 0}, // degF < 1
	}
	for _, c := range bad {
		if _, err := New(f, c.n, c.k, c.t, c.degF); err == nil {
			t.Errorf("New(%+v) accepted invalid params", c)
		}
	}
}

// TestLinearDecodeMatchesMDSBehaviour: with degF = 1 the code is an (N, K)
// MDS code, so every K of the N results decode X·w exactly — all C(12, 9) =
// 220 survivor sets, each in shuffled order and twice (the second pass runs
// the cached plan).
func TestLinearDecodeMatchesMDSBehaviour(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	code, err := New(f, 12, 9, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	x := fieldmat.Rand(f, rng, 18, 6)
	w := f.RandVec(rng, 6)
	shards, err := code.EncodeMatrix(x, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := fieldmat.MatVec(f, x, w)
	results := make([][]field.Elem, len(shards))
	for i, sh := range shards {
		results[i] = applyLinear(sh, w)
	}
	sets := 0
	for mask := 0; mask < 1<<12; mask++ {
		var idx []int
		for i := 0; i < 12; i++ {
			if mask>>i&1 == 1 {
				idx = append(idx, i)
			}
		}
		if len(idx) != 9 {
			continue
		}
		sets++
		rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		res := make([][]field.Elem, len(idx))
		for r, i := range idx {
			res[r] = results[i]
		}
		for pass := 0; pass < 2; pass++ {
			got, err := decodeFlat(code, idx, res)
			if err != nil {
				t.Fatal(err)
			}
			if !field.EqualVec(got, want) {
				t.Fatalf("linear LCC decode from %v failed (pass %d)", idx, pass)
			}
		}
	}
	if sets != 220 {
		t.Fatalf("%d survivor sets, want 220", sets)
	}
}

func TestDegreeTwoComputation(t *testing.T) {
	// f(X) = X∘X element-wise, deg f = 2: threshold = 2(K+T-1)+1.
	rng := rand.New(rand.NewSource(81))
	k := 3
	code, err := New(f, 6, k, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	x := fieldmat.Rand(f, rng, 6, 4)
	blocks := fieldmat.SplitRows(x, k)
	shards, err := code.EncodeBlocks(blocks, nil)
	if err != nil {
		t.Fatal(err)
	}
	idx := []int{0, 1, 2, 3, 4} // threshold = 5
	res := make([][]field.Elem, len(idx))
	for r, i := range idx {
		res[r] = applySquare(shards[i])
	}
	got, err := code.DecodeVectors(idx, res)
	if err != nil {
		t.Fatal(err)
	}
	for j, b := range blocks {
		want := applySquare(b)
		if !field.EqualVec(got[j], want) {
			t.Fatalf("block %d: squared decode mismatch", j)
		}
	}
}

func TestPrivacyMasking(t *testing.T) {
	// With T = 1 no shard may equal any raw block, and the α/β point sets
	// must be disjoint.
	rng := rand.New(rand.NewSource(82))
	k, tt := 3, 1
	code, err := New(f, 8, k, tt, 2)
	if err != nil {
		t.Fatal(err)
	}
	betaSet := map[field.Elem]bool{}
	for _, b := range code.betas {
		betaSet[b] = true
	}
	for _, a := range code.alphas {
		if betaSet[a] {
			t.Fatal("alpha/beta sets intersect with T > 0")
		}
	}
	x := fieldmat.Rand(f, rng, 6, 4)
	blocks := fieldmat.SplitRows(x, k)
	shards, err := code.EncodeBlocks(blocks, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i, sh := range shards {
		for j, b := range blocks {
			if sh.Equal(b) {
				t.Fatalf("shard %d equals raw block %d despite masking", i, j)
			}
		}
	}
	// Decoding must still be exact even with the random masks in place.
	idx := []int{0, 1, 2, 3, 4, 5, 6} // threshold = (3+1-1)*2+1 = 7
	res := make([][]field.Elem, len(idx))
	for r, i := range idx {
		res[r] = applySquare(shards[i])
	}
	got, err := code.DecodeVectors(idx, res)
	if err != nil {
		t.Fatal(err)
	}
	for j, b := range blocks {
		if !field.EqualVec(got[j], applySquare(b)) {
			t.Fatalf("masked decode mismatch at block %d", j)
		}
	}
}

func TestPrivacyMaskStatistics(t *testing.T) {
	// A single shard of a fixed dataset, re-encoded with fresh masks, must
	// look uniform: with T=1 each shard = (data part) + c·W for a nonzero
	// coefficient c and uniform W, so across re-encodings each entry is
	// uniform over F_q. We check empirical mean of the first entry over many
	// encodings lands near the field midpoint (a weak but meaningful
	// uniformity smoke test; exact T-privacy is Theorem 1's algebra).
	rng := rand.New(rand.NewSource(83))
	smallF := field.MustNew(97)
	code, err := New(smallF, 5, 2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	x := fieldmat.NewMatrix(2, 1)
	x.Set(0, 0, 42)
	x.Set(1, 0, 17)
	blocks := fieldmat.SplitRows(x, 2)
	counts := map[field.Elem]int{}
	const trials = 3000
	for i := 0; i < trials; i++ {
		shards, err := code.EncodeBlocks(blocks, rng)
		if err != nil {
			t.Fatal(err)
		}
		counts[shards[0].At(0, 0)]++
	}
	// Chi-square-ish sanity: every residue should appear, none should
	// dominate. Expected count ≈ 31; allow generous bounds.
	for v := uint64(0); v < 97; v++ {
		c := counts[v]
		if c == 0 {
			t.Fatalf("value %d never appeared in %d masked encodings", v, trials)
		}
		if c > 31*4 {
			t.Fatalf("value %d appeared %d times (expected ~31) — mask not uniform", v, c)
		}
	}
}

func TestDecodeBelowThreshold(t *testing.T) {
	code, _ := New(f, 12, 9, 0, 1)
	idx := []int{0, 1, 2, 3, 4, 5, 6, 7} // 8 < 9
	res := make([][]field.Elem, len(idx))
	for r := range res {
		res[r] = []field.Elem{0}
	}
	if _, err := code.DecodeVectors(idx, res); err == nil {
		t.Fatal("decode accepted fewer than threshold results")
	}
}

func TestDecodeInputValidation(t *testing.T) {
	code, _ := New(f, 4, 2, 0, 1)
	good := [][]field.Elem{{1}, {2}}
	for name, c := range map[string]struct {
		idx []int
		res [][]field.Elem
	}{
		"dup":    {[]int{1, 1}, good},
		"range":  {[]int{0, 9}, good},
		"neg":    {[]int{-2, 0}, good},
		"miscnt": {[]int{0, 1, 2}, good},
		"ragged": {[]int{0, 1}, [][]field.Elem{{1}, {2, 3}}},
	} {
		if _, err := code.DecodeVectors(c.idx, c.res); err == nil {
			t.Errorf("%s: accepted bad input", name)
		}
	}
}

func TestEncodeRequiresRNGWithMasks(t *testing.T) {
	code, _ := New(f, 8, 3, 1, 2)
	blocks := fieldmat.SplitRows(fieldmat.NewMatrix(3, 2), 3)
	if _, err := code.EncodeBlocks(blocks, nil); err == nil {
		t.Fatal("T>0 encode accepted nil rng")
	}
}

func TestExtraResultsIgnoredConsistently(t *testing.T) {
	// Supplying more than threshold verified results must not change the
	// output (the decoder uses the first threshold-many).
	rng := rand.New(rand.NewSource(84))
	code, _ := New(f, 12, 9, 0, 1)
	x := fieldmat.Rand(f, rng, 18, 4)
	w := f.RandVec(rng, 4)
	shards, _ := code.EncodeMatrix(x, nil)
	idx := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	res := make([][]field.Elem, len(idx))
	for r, i := range idx {
		res[r] = applyLinear(shards[i], w)
	}
	all, err := decodeFlat(code, idx, res)
	if err != nil {
		t.Fatal(err)
	}
	nine, err := decodeFlat(code, idx[:9], res[:9])
	if err != nil {
		t.Fatal(err)
	}
	if !field.EqualVec(all, nine) {
		t.Fatal("extra results changed decode output")
	}
}

// TestPlanCacheHoldsEveryWorkerSet: a (12, 9) code has C(12, 9) = 220 worker
// sets, and a round sequence cycling through all of them must build each
// decode plan once. The second pass must find every plan the first built.
func TestPlanCacheHoldsEveryWorkerSet(t *testing.T) {
	c, err := New(f, 12, 9, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	var sets [][]int
	for mask := 0; mask < 1<<12; mask++ {
		var ws []int
		for w := 0; w < 12; w++ {
			if mask>>w&1 == 1 {
				ws = append(ws, w)
			}
		}
		if len(ws) == c.Threshold() {
			sets = append(sets, ws)
		}
	}
	if len(sets) != 220 {
		t.Fatalf("%d worker sets of 9 among 12, want 220", len(sets))
	}
	first := make([]*field.Elem, len(sets))
	for pass := 0; pass < 2; pass++ {
		for i, ws := range sets {
			// Reversed arrival order: the cache keys the sorted set.
			rev := make([]int, len(ws))
			for j, w := range ws {
				rev[len(ws)-1-j] = w
			}
			w, _ := c.sortedWeights(rev)
			if pass == 0 {
				first[i] = &w[0][0]
			} else if &w[0][0] != first[i] {
				t.Fatalf("worker set %v: its plan was rebuilt on the second pass", ws)
			}
		}
	}
}
