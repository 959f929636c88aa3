package avcc

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/attack"
	"repro/internal/field"
	"repro/internal/fieldmat"
	"repro/internal/lcc"
	"repro/internal/simnet"
)

var f = field.Default()

// quietSim is a jitter-free, low-link-latency model so tests with small
// matrices stay compute-dominated and assertions are deterministic.
func quietSim() simnet.Config {
	c := simnet.DefaultConfig()
	c.JitterFrac = 0
	c.LinkLatency = 1e-5
	return c
}

// testData builds the two-round data map {fwd: X, bwd: Xᵀ} of the logreg
// protocol at a small scale.
func testData(rng *rand.Rand, m, d int) (map[string]*fieldmat.Matrix, *fieldmat.Matrix) {
	x := fieldmat.Rand(f, rng, m, d)
	return map[string]*fieldmat.Matrix{"fwd": x, "bwd": x.Transpose()}, x
}

func paperOpts(s, m int, dynamic bool) Options {
	return Options{
		Params:  Params{N: 12, K: 9, S: s, M: m, T: 0},
		Sim:     quietSim(),
		Seed:    1,
		Dynamic: dynamic,
	}
}

func TestFeasibility(t *testing.T) {
	good := []Params{
		{N: 12, K: 9, S: 1, M: 2},
		{N: 12, K: 9, S: 2, M: 1},
		{N: 12, K: 9, S: 3, M: 0},
	}
	for _, p := range good {
		if !p.Feasible() {
			t.Errorf("%+v should be feasible", p)
		}
	}
	bad := Params{N: 12, K: 9, S: 2, M: 2} // needs 13
	if bad.Feasible() {
		t.Error("S=2,M=2 at N=12,K=9 should be infeasible")
	}
}

func TestNewMasterValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(140))
	data, _ := testData(rng, 18, 6)
	if _, err := NewMaster(f, paperOpts(2, 2, true), data, nil, nil); err == nil {
		t.Fatal("infeasible params accepted")
	}
	if _, err := NewMaster(f, paperOpts(1, 1, true), nil, nil, nil); err == nil {
		t.Fatal("empty data accepted")
	}
	if _, err := NewMaster(f, paperOpts(1, 1, true), data, make([]attack.Behavior, 3), nil); err == nil {
		t.Fatal("behaviour count mismatch accepted")
	}
	badSim := paperOpts(1, 1, true)
	badSim.Sim = simnet.Config{}
	if _, err := NewMaster(f, badSim, data, nil, nil); err == nil {
		t.Fatal("invalid sim config accepted")
	}
}

func TestHonestRoundDecodesExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(141))
	data, x := testData(rng, 18, 6)
	m, err := NewMaster(f, paperOpts(1, 1, true), data, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := f.RandVec(rng, 6)
	out, err := m.RunRound(context.Background(), "fwd", w, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := fieldmat.MatVec(f, x, w)
	if !field.EqualVec(out.Decoded, want) {
		t.Fatal("honest AVCC round decoded wrong result")
	}
	if len(out.Byzantine) != 0 {
		t.Fatal("honest round flagged Byzantines")
	}
	if len(out.Used) != 9 {
		t.Fatalf("used %d workers, want threshold 9", len(out.Used))
	}
	// The 3 unconsumed workers are fast spares, not stragglers.
	if out.StragglersObserved != 0 {
		t.Fatalf("observed %d stragglers in a straggler-free cluster", out.StragglersObserved)
	}
}

func TestBothRoundsOfLogregProtocol(t *testing.T) {
	rng := rand.New(rand.NewSource(142))
	data, x := testData(rng, 18, 27)
	m, err := NewMaster(f, paperOpts(1, 1, true), data, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := f.RandVec(rng, 27)
	z, err := m.RunRound(context.Background(), "fwd", w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !field.EqualVec(z.Decoded, fieldmat.MatVec(f, x, w)) {
		t.Fatal("round 1 wrong")
	}
	e := f.RandVec(rng, 18)
	g, err := m.RunRound(context.Background(), "bwd", e, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !field.EqualVec(g.Decoded, fieldmat.MatVec(f, x.Transpose(), e)) {
		t.Fatal("round 2 wrong")
	}
}

func TestPaddingIndivisibleRows(t *testing.T) {
	// m=20 is not divisible by K=9: the master must pad internally and trim
	// the decoded output back to 20.
	rng := rand.New(rand.NewSource(143))
	x := fieldmat.Rand(f, rng, 20, 5)
	data := map[string]*fieldmat.Matrix{"fwd": x}
	m, err := NewMaster(f, paperOpts(1, 1, true), data, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := f.RandVec(rng, 5)
	out, err := m.RunRound(context.Background(), "fwd", w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Decoded) != 20 {
		t.Fatalf("decoded length %d, want 20", len(out.Decoded))
	}
	if !field.EqualVec(out.Decoded, fieldmat.MatVec(f, x, w)) {
		t.Fatal("padded decode wrong")
	}
}

func byzBehaviors(n int, byz map[int]attack.Behavior) []attack.Behavior {
	bs := make([]attack.Behavior, n)
	for i := range bs {
		bs[i] = attack.Honest{}
	}
	for i, b := range byz {
		bs[i] = b
	}
	return bs
}

func TestByzantineDetectedAndExcluded(t *testing.T) {
	rng := rand.New(rand.NewSource(144))
	data, x := testData(rng, 18, 6)
	behaviors := byzBehaviors(12, map[int]attack.Behavior{
		3: attack.ReverseValue{C: 1},
		7: attack.Constant{V: 42},
	})
	m, err := NewMaster(f, paperOpts(1, 2, true), data, behaviors, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := f.RandVec(rng, 6)
	out, err := m.RunRound(context.Background(), "fwd", w, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Result must be correct despite two Byzantines.
	if !field.EqualVec(out.Decoded, fieldmat.MatVec(f, x, w)) {
		t.Fatal("decode corrupted by Byzantines")
	}
	for _, id := range out.Used {
		if id == 3 || id == 7 {
			t.Fatalf("Byzantine worker %d was used in decoding", id)
		}
	}
	caught := map[int]bool{}
	for _, id := range out.Byzantine {
		caught[id] = true
	}
	if !caught[3] || !caught[7] {
		t.Fatalf("Byzantines flagged = %v, want {3,7}", out.Byzantine)
	}
}

func TestByzantineBeyondBudgetStillCorrectIfEnoughHonest(t *testing.T) {
	// 3 Byzantines against an M=2 design: AVCC trades straggler tolerance —
	// it waits longer but still decodes correctly because 9 honest workers
	// exist. (LCC in this situation silently corrupts; see baseline tests.)
	rng := rand.New(rand.NewSource(145))
	data, x := testData(rng, 18, 6)
	behaviors := byzBehaviors(12, map[int]attack.Behavior{
		1: attack.Constant{V: 1},
		5: attack.Constant{V: 2},
		9: attack.Constant{V: 3},
	})
	m, err := NewMaster(f, paperOpts(1, 2, true), data, behaviors, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := f.RandVec(rng, 6)
	out, err := m.RunRound(context.Background(), "fwd", w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !field.EqualVec(out.Decoded, fieldmat.MatVec(f, x, w)) {
		t.Fatal("decode wrong with 3 Byzantines and 9 honest workers")
	}
	if len(out.Byzantine) != 3 {
		t.Fatalf("caught %d Byzantines, want 3", len(out.Byzantine))
	}
}

func TestAllDishonestFails(t *testing.T) {
	rng := rand.New(rand.NewSource(146))
	data, _ := testData(rng, 18, 6)
	byz := map[int]attack.Behavior{}
	for i := 0; i < 4; i++ { // 4 Byzantine leaves only 8 honest < K=9
		byz[i] = attack.Constant{V: 9}
	}
	m, err := NewMaster(f, paperOpts(1, 2, true), data, byzBehaviors(12, byz), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunRound(context.Background(), "fwd", f.RandVec(rng, 6), 0); err == nil {
		t.Fatal("round succeeded with fewer honest workers than the threshold")
	} else if !strings.Contains(err.Error(), "verified") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestUnknownRoundKey(t *testing.T) {
	rng := rand.New(rand.NewSource(147))
	data, _ := testData(rng, 18, 6)
	m, _ := NewMaster(f, paperOpts(1, 1, true), data, nil, nil)
	if _, err := m.RunRound(context.Background(), "nope", f.RandVec(rng, 6), 0); err == nil {
		t.Fatal("unknown key accepted")
	}
}

func TestStragglersNotWaitedFor(t *testing.T) {
	// With S=3 stragglers and an honest cluster, AVCC decodes from the 9
	// fast workers; wall time must be far below a straggler's compute time.
	rng := rand.New(rand.NewSource(148))
	// Compute-dominated sizes so straggling is visible over link latency:
	// shard = 100×300 = 3·10⁴ ops → 0.3 ms honest, 3 ms straggling.
	data, _ := testData(rng, 900, 300)
	m, err := NewMaster(f, paperOpts(3, 0, true), data, nil, attack.NewFixedStragglers(0, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	out, err := m.RunRound(context.Background(), "fwd", f.RandVec(rng, 300), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range out.Used {
		if id == 0 || id == 1 || id == 2 {
			t.Fatalf("straggler %d used in decode", id)
		}
	}
	if out.StragglersObserved != 3 {
		t.Fatalf("observed %d stragglers, want 3", out.StragglersObserved)
	}
	// A straggler runs 10x the honest compute; the round must finish well
	// before a straggler could even deliver.
	cfg := quietSim()
	shardOps := float64(100 * 300)
	stragglerArrival := cfg.ComputeTime(shardOps, true, nil)
	if out.Breakdown.Wall >= stragglerArrival {
		t.Fatalf("wall %.6f s not faster than straggler %.6f s", out.Breakdown.Wall, stragglerArrival)
	}
}

func TestBreakdownConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(149))
	data, _ := testData(rng, 36, 12)
	m, _ := NewMaster(f, paperOpts(1, 1, true), data, nil, nil)
	out, err := m.RunRound(context.Background(), "fwd", f.RandVec(rng, 12), 0)
	if err != nil {
		t.Fatal(err)
	}
	b := out.Breakdown
	if b.Compute <= 0 || b.Comm <= 0 || b.Verify <= 0 || b.Decode <= 0 {
		t.Fatalf("breakdown has non-positive phases: %v", b)
	}
	if b.Wall < b.Compute || b.Wall < b.Decode {
		t.Fatalf("wall %v below its own phases: %v", b.Wall, b)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	data, _ := testData(rng, 18, 6)
	w := f.RandVec(rng, 6)
	run := func() *Master {
		m, err := NewMaster(f, paperOpts(1, 1, true), data, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, err := run().RunRound(context.Background(), "fwd", w, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := run().RunRound(context.Background(), "fwd", w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !field.EqualVec(a.Decoded, b.Decoded) || a.Breakdown.Wall != b.Breakdown.Wall {
		t.Fatal("same seed produced different rounds")
	}
}

func TestOverProvisionedDegreeStillDecodes(t *testing.T) {
	// The master codes its matvec rounds at degree 1, so N = 9 workers
	// over-provision K = 4, S = M = 1 (which need 6): the round still
	// decodes exactly from the threshold K. A code declared for degree 2
	// over the same shards raises the threshold to 2(K-1)+1 = 7, but the
	// computation is still degree 1, so interpolation from the larger
	// point set remains exact.
	rng := rand.New(rand.NewSource(170))
	data, x := testData(rng, 12, 6)
	opt := Options{
		Params: Params{N: 9, K: 4, S: 1, M: 1},
		Sim:    quietSim(),
		Seed:   1,
	}
	m, err := NewMaster(f, opt, data, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := f.RandVec(rng, 6)
	out, err := m.RunRound(context.Background(), "fwd", w, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := fieldmat.MatVec(f, x, w)
	if !field.EqualVec(out.Decoded, want) {
		t.Fatal("over-provisioned decode wrong")
	}
	if len(out.Used) != 4 {
		t.Fatalf("used %d, want threshold 4", len(out.Used))
	}

	code, err := lcc.New(f, 9, 4, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if code.Threshold() != 7 {
		t.Fatalf("degree-2 threshold %d, want 7", code.Threshold())
	}
	shards, err := code.EncodeMatrix(x, nil)
	if err != nil {
		t.Fatal(err)
	}
	workers := []int{8, 0, 5, 2, 7, 3, 1}
	results := make([][]field.Elem, len(workers))
	for r, i := range workers {
		results[r] = fieldmat.MatVec(f, shards[i], w)
	}
	got := make([]field.Elem, len(want))
	if err := code.DecodeInto([][]field.Elem{got}, workers, results); err != nil {
		t.Fatal(err)
	}
	if !field.EqualVec(got, want) {
		t.Fatal("degree-2 code decoded a degree-1 round wrong")
	}
}
