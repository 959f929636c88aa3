package lcc

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/field"
	"repro/internal/fieldmat"
)

// setupLinear builds the paper's (N,K,S,M) = (12,9,1,1) LCC baseline
// scenario: encode, compute X̃·w at every worker, return everything needed
// to corrupt and decode.
func setupLinear(t *testing.T, rng *rand.Rand, n, k int) (*Code, [][]field.Elem, []field.Elem) {
	t.Helper()
	code, err := New(f, n, k, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	x := fieldmat.Rand(f, rng, 2*k, 5)
	w := f.RandVec(rng, 5)
	shards, err := code.EncodeMatrix(x, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := make([][]field.Elem, n)
	for i := range res {
		res[i] = applyLinear(shards[i], w)
	}
	return code, res, fieldmat.MatVec(f, x, w)
}

func allWorkers(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// decodeWithErrors is the LCC baseline's error-correcting decode: Locate,
// then DecodeInto over the results it did not flag (decodeFlat: K blocks end
// to end).
func decodeWithErrors(code *Code, workers []int, results [][]field.Elem, maxErrors int, rng *rand.Rand) ([]field.Elem, []int, error) {
	bad, err := code.Locate(workers, results, maxErrors, rng)
	if err != nil {
		return nil, nil, err
	}
	var cw []int
	var cr [][]field.Elem
	for i := range workers {
		if !slices.Contains(bad, i) {
			cw, cr = append(cw, workers[i]), append(cr, results[i])
		}
	}
	out, err := decodeFlat(code, cw, cr)
	if err != nil {
		return nil, nil, err
	}
	return out, bad, nil
}

func TestDecodeWithErrorsNoErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	code, res, want := setupLinear(t, rng, 12, 9)
	// 11 results (one straggler), M=1 budget, nobody actually Byzantine.
	got, bad, err := decodeWithErrors(code, allWorkers(11), res[:11], 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 0 {
		t.Fatalf("flagged %v as Byzantine with none present", bad)
	}
	if !field.EqualVec(got, want) {
		t.Fatal("decode mismatch")
	}
}

func TestDecodeWithErrorsOneByzantine(t *testing.T) {
	// The exact paper baseline: (12,9,S=1,M=1), one straggler drops out,
	// one of the remaining 11 results is corrupted; threshold 9 + 2·1 = 11.
	rng := rand.New(rand.NewSource(91))
	code, res, want := setupLinear(t, rng, 12, 9)
	byz := 4
	for j := range res[byz] {
		res[byz][j] = f.Add(res[byz][j], 7) // arbitrary corruption
	}
	got, bad, err := decodeWithErrors(code, allWorkers(11), res[:11], 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 1 || bad[0] != byz {
		t.Fatalf("identified Byzantine positions %v, want [%d]", bad, byz)
	}
	if !field.EqualVec(got, want) {
		t.Fatal("decode with 1 error failed")
	}
}

func TestDecodeWithErrorsTwoByzantine(t *testing.T) {
	// M=2 needs K + 2M = 13 results; use N = 14 so one straggler is fine.
	rng := rand.New(rand.NewSource(92))
	code, res, want := setupLinear(t, rng, 14, 9)
	for _, byz := range []int{2, 9} {
		for j := range res[byz] {
			res[byz][j] = f.RandNonZero(rng)
		}
	}
	got, bad, err := decodeWithErrors(code, allWorkers(13), res[:13], 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 2 {
		t.Fatalf("identified %v, want 2 positions", bad)
	}
	if !field.EqualVec(got, want) {
		t.Fatal("decode with 2 errors failed")
	}
}

func TestDecodeWithErrorsBudgetExceeded(t *testing.T) {
	// 2 corruptions under an M=1 budget with only 11 results: must error,
	// not return silently wrong output.
	rng := rand.New(rand.NewSource(93))
	code, res, want := setupLinear(t, rng, 12, 9)
	for _, byz := range []int{1, 6} {
		for j := range res[byz] {
			res[byz][j] = f.Rand(rng)
		}
	}
	got, _, err := decodeWithErrors(code, allWorkers(11), res[:11], 1, rng)
	if err == nil && field.EqualVec(got, want) {
		t.Fatal("decode claimed success beyond its error budget")
	}
}

func TestDecodeWithErrorsTooFewResults(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	code, res, _ := setupLinear(t, rng, 12, 9)
	// 10 results cannot correct 1 error (need 11).
	if _, err := code.Locate(allWorkers(10), res[:10], 1, rng); !errors.Is(err, ErrTooManyByzantine) {
		t.Fatalf("expected ErrTooManyByzantine, got %v", err)
	}
}

func TestDecodeWithErrorsZeroBudgetFastPath(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	code, res, want := setupLinear(t, rng, 12, 9)
	// A zero budget locates nothing and draws no projection.
	probe, twin := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
	got, bad, err := decodeWithErrors(code, allWorkers(9), res[:9], 0, probe)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 0 {
		t.Fatal("zero-budget decode flagged workers")
	}
	if !field.EqualVec(got, want) {
		t.Fatal("zero-budget decode mismatch")
	}
	if probe.Int63() != twin.Int63() {
		t.Fatal("zero-budget Locate drew from rng")
	}
}

func TestDecodeWithErrorsDegreeTwo(t *testing.T) {
	// Error correction over a nonlinear computation: f = elementwise square,
	// K=3, threshold 5, M=1 → need 7 results.
	rng := rand.New(rand.NewSource(96))
	code, err := New(f, 8, 3, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	x := fieldmat.Rand(f, rng, 6, 3)
	blocks := fieldmat.SplitRows(x, 3)
	shards, err := code.EncodeBlocks(blocks, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := make([][]field.Elem, 7)
	for i := 0; i < 7; i++ {
		res[i] = applySquare(shards[i])
	}
	byz := 3
	for j := range res[byz] {
		res[byz][j] = f.Add(res[byz][j], 1)
	}
	b := len(res[0])
	got, bad, err := decodeWithErrors(code, allWorkers(7), res, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 1 || bad[0] != byz {
		t.Fatalf("flagged %v, want [%d]", bad, byz)
	}
	for j, blk := range blocks {
		if !field.EqualVec(got[j*b:(j+1)*b], applySquare(blk)) {
			t.Fatalf("block %d mismatch after error correction", j)
		}
	}
}

func BenchmarkLCCErrorDecode12Workers(b *testing.B) {
	rng := rand.New(rand.NewSource(97))
	code, err := New(f, 12, 9, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	x := fieldmat.Rand(f, rng, 900, 50)
	w := f.RandVec(rng, 50)
	shards, _ := code.EncodeMatrix(x, nil)
	res := make([][]field.Elem, 11)
	for i := 0; i < 11; i++ {
		res[i] = fieldmat.MatVec(f, shards[i], w)
	}
	for j := range res[4] {
		res[4][j] = f.Add(res[4][j], 3)
	}
	idx := allWorkers(11)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := decodeWithErrors(code, idx, res, 1, rng); err != nil {
			b.Fatal(err)
		}
	}
}
