package baseline

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/attack"
	"repro/internal/cluster"
	"repro/internal/field"
	"repro/internal/fieldmat"
	"repro/internal/simnet"
)

var f = field.Default()

func quietSim() simnet.Config {
	c := simnet.DefaultConfig()
	c.JitterFrac = 0
	c.LinkLatency = 1e-5
	return c
}

func testData(rng *rand.Rand, m, d int) (map[string]*fieldmat.Matrix, *fieldmat.Matrix) {
	x := fieldmat.Rand(f, rng, m, d)
	return map[string]*fieldmat.Matrix{"fwd": x, "bwd": x.Transpose()}, x
}

func honestWith(n int, byz map[int]attack.Behavior) []attack.Behavior {
	bs := make([]attack.Behavior, n)
	for i := range bs {
		bs[i] = attack.Honest{}
	}
	for i, b := range byz {
		bs[i] = b
	}
	return bs
}

// withOddKey adds a batch arm to a test's data: key "odd", a 20×6 matrix
// whose 20 rows do not split evenly into K = 9 blocks, and four inputs for
// one RunRoundBatch over it. It draws from its own seed, so the test's
// batch-1 arm sees the stream it always saw.
func withOddKey(data map[string]*fieldmat.Matrix, seed int64) (*fieldmat.Matrix, [][]field.Elem) {
	rng := rand.New(rand.NewSource(seed))
	x := fieldmat.Rand(f, rng, 20, 6)
	data["odd"] = x
	inputs := make([][]field.Elem, 4)
	for c := range inputs {
		inputs[c] = f.RandVec(rng, x.Cols)
	}
	return x, inputs
}

// checkBatch fails t unless every output of a batch round is the product of
// its input.
func checkBatch(t *testing.T, out *cluster.BatchOutput, x *fieldmat.Matrix, inputs [][]field.Elem) {
	t.Helper()
	for c, in := range inputs {
		if !field.EqualVec(out.Outputs[c], fieldmat.MatVec(f, x, in)) {
			t.Fatalf("batch output %d wrong", c)
		}
	}
}

func lccOpts(s, m int) LCCOptions {
	return LCCOptions{N: 12, K: 9, S: s, M: m, Sim: quietSim(), Seed: 3}
}

func TestLCCValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(170))
	data, _ := testData(rng, 18, 6)
	// (12,9,S=1,M=1) satisfies eq. (1) exactly: 9+1+2+1 = 13? No: (K+T-1)degF
	// + S + 2M + 1 = 8+1+2+1 = 12. OK.
	if _, err := NewLCCMaster(f, lccOpts(1, 1), data, nil, nil); err != nil {
		t.Fatalf("paper LCC config rejected: %v", err)
	}
	if _, err := NewLCCMaster(f, lccOpts(2, 1), data, nil, nil); err == nil {
		t.Fatal("S=2,M=1 at N=12 violates eq. (1) but was accepted")
	}
	if _, err := NewLCCMaster(f, lccOpts(1, 1), data, make([]attack.Behavior, 2), nil); err == nil {
		t.Fatal("behaviour count mismatch accepted")
	}
}

func TestLCCHonestDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(171))
	data, x := testData(rng, 18, 6)
	m, err := NewLCCMaster(f, lccOpts(1, 1), data, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := f.RandVec(rng, 6)
	out, err := m.RunRound(context.Background(), "fwd", w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !field.EqualVec(out.Decoded, fieldmat.MatVec(f, x, w)) {
		t.Fatal("LCC honest decode wrong")
	}
	// LCC waits for N-S = 11 workers.
	if len(out.Used) != 11 {
		t.Fatalf("LCC used %d results, want 11", len(out.Used))
	}
	if out.StragglersObserved != 1 {
		t.Fatalf("LCC observed %d stragglers, want 1", out.StragglersObserved)
	}
}

func TestLCCOneByzantineCorrected(t *testing.T) {
	// Within its M=1 budget LCC corrects the error inside decoding.
	rng := rand.New(rand.NewSource(172))
	data, x := testData(rng, 18, 6)
	odd, inputs := withOddKey(data, 1172)
	behaviors := honestWith(12, map[int]attack.Behavior{5: attack.Constant{V: 3}})
	m, err := NewLCCMaster(f, lccOpts(1, 1), data, behaviors, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := f.RandVec(rng, 6)
	out, err := m.RunRound(context.Background(), "fwd", w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !field.EqualVec(out.Decoded, fieldmat.MatVec(f, x, w)) {
		t.Fatal("LCC failed to correct one Byzantine")
	}
	if len(out.Byzantine) != 1 || out.Byzantine[0] != 5 {
		t.Fatalf("LCC identified %v, want [5]", out.Byzantine)
	}
	// A batch: the one projection locates the worker across every column.
	batch, err := m.RunRoundBatch(context.Background(), "odd", inputs, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkBatch(t, batch, odd, inputs)
	if !slices.Equal(batch.Byzantine, []int{5}) {
		t.Fatalf("LCC identified %v in a batch, want [5]", batch.Byzantine)
	}
}

func TestLCCTwoByzantinesSilentlyCorrupt(t *testing.T) {
	// The paper's Fig. 3(b)/(d) mechanism: two Byzantines against an M=1
	// design overwhelm Reed-Solomon decoding; the fallback erasure decode
	// lets corruption through (which is why LCC's accuracy degrades).
	rng := rand.New(rand.NewSource(173))
	data, x := testData(rng, 18, 6)
	odd, inputs := withOddKey(data, 1173)
	behaviors := honestWith(12, map[int]attack.Behavior{
		2: attack.Constant{V: 3},
		6: attack.Constant{V: 4},
	})
	opt := lccOpts(1, 1)
	opt.Receipts = true // the receipt names what the fallback attests
	m, err := NewLCCMaster(f, opt, data, behaviors, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := f.RandVec(rng, 6)
	out, err := m.RunRound(context.Background(), "fwd", w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if field.EqualVec(out.Decoded, fieldmat.MatVec(f, x, w)) {
		t.Fatal("LCC should NOT decode correctly with 2 Byzantines at M=1 (that would beat its own bound)")
	}
	if len(out.Byzantine) != 0 {
		t.Fatal("over-budget fallback should not claim identifications")
	}
	// A batch falls back the same way, every column decoded from, and the
	// receipt attesting, the first threshold (9) results.
	batch, err := m.RunRoundBatch(context.Background(), "odd", inputs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Byzantine) != 0 {
		t.Fatal("over-budget batch fallback should not claim identifications")
	}
	for c, in := range inputs {
		if field.EqualVec(batch.Outputs[c], fieldmat.MatVec(f, odd, in)) {
			t.Fatalf("batch output %d decoded correctly with 2 Byzantines at M=1", c)
		}
	}
	var attested []int
	for _, w := range batch.Receipt.Groups[0].Workers {
		attested = append(attested, w.ID)
	}
	if !slices.Equal(attested, batch.Used[:9]) {
		t.Fatalf("fallback attested %v, want the first threshold results %v", attested, batch.Used[:9])
	}
}

func TestLCCWaitsForStragglersBeyondBudget(t *testing.T) {
	// With 2 stragglers against an S=1 design, LCC must wait for the faster
	// of the two stragglers (the paper: "LCC is bound to suffer tail
	// latency from the faster of the two stragglers").
	rng := rand.New(rand.NewSource(174))
	data, _ := testData(rng, 900, 120)
	m, err := NewLCCMaster(f, lccOpts(1, 1), data, nil, attack.NewFixedStragglers(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	out, err := m.RunRound(context.Background(), "fwd", f.RandVec(rng, 120), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Wall must be at least one straggler's compute time (~10x honest).
	honest := quietSim().ComputeTime(100*120, false, nil)
	if out.Breakdown.Wall < 8*honest {
		t.Fatalf("LCC wall %.6f did not include straggler tail (honest=%.6f)", out.Breakdown.Wall, honest)
	}
	usedStragglers := 0
	for _, id := range out.Used {
		if id == 0 || id == 1 {
			usedStragglers++
		}
	}
	if usedStragglers != 1 {
		t.Fatalf("LCC used %d stragglers, want exactly the faster one", usedStragglers)
	}
}

func TestLCCVerifyPhaseIsZero(t *testing.T) {
	// Fig. 4's note: LCC has no separate verification cost.
	rng := rand.New(rand.NewSource(175))
	data, _ := testData(rng, 18, 6)
	m, _ := NewLCCMaster(f, lccOpts(1, 1), data, nil, nil)
	out, err := m.RunRound(context.Background(), "fwd", f.RandVec(rng, 6), 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Breakdown.Verify != 0 {
		t.Fatal("LCC should have no verify phase")
	}
	if out.Breakdown.Decode <= 0 {
		t.Fatal("LCC decode phase missing")
	}
}

func TestLCCNeverAdapts(t *testing.T) {
	rng := rand.New(rand.NewSource(176))
	data, _ := testData(rng, 18, 6)
	m, _ := NewLCCMaster(f, lccOpts(1, 1), data, nil, nil)
	if m.Name() != "lcc" {
		t.Fatalf("Name = %q", m.Name())
	}
	if cost, recoded := m.FinishIteration(0); recoded || cost != 0 {
		t.Fatal("LCC must not adapt")
	}
}

func TestLCCUnknownKey(t *testing.T) {
	rng := rand.New(rand.NewSource(177))
	data, _ := testData(rng, 18, 6)
	m, _ := NewLCCMaster(f, lccOpts(1, 1), data, nil, nil)
	if _, err := m.RunRound(context.Background(), "nope", f.RandVec(rng, 6), 0); err == nil {
		t.Fatal("unknown key accepted")
	}
}

func TestUncodedHonest(t *testing.T) {
	rng := rand.New(rand.NewSource(178))
	data, x := testData(rng, 18, 6)
	m, err := NewUncodedMaster(f, UncodedOptions{K: 9, Sim: quietSim(), Seed: 5}, data, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := f.RandVec(rng, 6)
	out, err := m.RunRound(context.Background(), "fwd", w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !field.EqualVec(out.Decoded, fieldmat.MatVec(f, x, w)) {
		t.Fatal("uncoded honest result wrong")
	}
	if len(out.Used) != 9 {
		t.Fatalf("uncoded used %d workers, want all 9", len(out.Used))
	}
	if out.Breakdown.Verify != 0 || out.Breakdown.Decode != 0 {
		t.Fatal("uncoded must have no verify/decode phases")
	}
}

func TestUncodedByzantineCorruptsOutput(t *testing.T) {
	// No verification: corruption lands in exactly the Byzantine worker's
	// block of the output.
	rng := rand.New(rand.NewSource(179))
	data, x := testData(rng, 18, 6)
	behaviors := honestWith(9, map[int]attack.Behavior{4: attack.Constant{V: 1}})
	m, err := NewUncodedMaster(f, UncodedOptions{K: 9, Sim: quietSim(), Seed: 5}, data, behaviors, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := f.RandVec(rng, 6)
	out, err := m.RunRound(context.Background(), "fwd", w, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := fieldmat.MatVec(f, x, w)
	if field.EqualVec(out.Decoded, want) {
		t.Fatal("uncoded output should be corrupted")
	}
	// Blocks: 18 rows / 9 workers = 2 rows each; rows 8,9 belong to worker 4.
	for i := 0; i < 18; i++ {
		inBad := i >= 8 && i < 10
		if inBad && out.Decoded[i] != 1 {
			t.Fatalf("row %d should be the constant attack value", i)
		}
		if !inBad && out.Decoded[i] != want[i] {
			t.Fatalf("row %d corrupted outside the Byzantine block", i)
		}
	}
}

func TestUncodedWaitsForEveryStraggler(t *testing.T) {
	rng := rand.New(rand.NewSource(180))
	data, _ := testData(rng, 900, 120)
	m, err := NewUncodedMaster(f, UncodedOptions{K: 9, Sim: quietSim(), Seed: 5}, data, nil,
		attack.NewFixedStragglers(3))
	if err != nil {
		t.Fatal(err)
	}
	out, err := m.RunRound(context.Background(), "fwd", f.RandVec(rng, 120), 0)
	if err != nil {
		t.Fatal(err)
	}
	honest := quietSim().ComputeTime(100*120, false, nil)
	if out.Breakdown.Wall < 8*honest {
		t.Fatal("uncoded wall time did not include the straggler")
	}
}

func TestUncodedValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(181))
	data, _ := testData(rng, 18, 6)
	if _, err := NewUncodedMaster(f, UncodedOptions{K: 0, Sim: quietSim()}, data, nil, nil); err == nil {
		t.Fatal("K=0 accepted")
	}
	if _, err := NewUncodedMaster(f, UncodedOptions{K: 9, Sim: quietSim()}, data, make([]attack.Behavior, 2), nil); err == nil {
		t.Fatal("behaviour mismatch accepted")
	}
	m, _ := NewUncodedMaster(f, UncodedOptions{K: 9, Sim: quietSim()}, data, nil, nil)
	if _, err := m.RunRound(context.Background(), "nope", f.RandVec(rng, 6), 0); err == nil {
		t.Fatal("unknown key accepted")
	}
	if m.Name() != "uncoded" {
		t.Fatalf("Name = %q", m.Name())
	}
	if cost, recoded := m.FinishIteration(0); recoded || cost != 0 {
		t.Fatal("uncoded must not adapt")
	}
}

func TestUncodedPadding(t *testing.T) {
	rng := rand.New(rand.NewSource(182))
	x := fieldmat.Rand(f, rng, 20, 5) // 20 % 9 != 0
	data := map[string]*fieldmat.Matrix{"fwd": x}
	m, err := NewUncodedMaster(f, UncodedOptions{K: 9, Sim: quietSim(), Seed: 5}, data, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := f.RandVec(rng, 5)
	out, err := m.RunRound(context.Background(), "fwd", w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Decoded) != 20 {
		t.Fatalf("decoded %d rows, want 20", len(out.Decoded))
	}
	if !field.EqualVec(out.Decoded, fieldmat.MatVec(f, x, w)) {
		t.Fatal("padded uncoded result wrong")
	}
	// A batch: each worker's result holds one column per input, and every
	// column lands at its block's offset in its own output.
	inputs := make([][]field.Elem, 4)
	for c := range inputs {
		inputs[c] = f.RandVec(rng, x.Cols)
	}
	batch, err := m.RunRoundBatch(context.Background(), "fwd", inputs, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkBatch(t, batch, x, inputs)
}

// deadExecutor returns no results at all: every worker crashed or dropped.
type deadExecutor struct{}

func (deadExecutor) RunRound(context.Context, string, []field.Elem, int, int, []int) []cluster.Result {
	return nil
}

func TestLCCZeroArrivalsErrorsInsteadOfPanicking(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	x := fieldmat.Rand(f, rng, 36, 6)
	m, err := NewLCCMaster(f, LCCOptions{N: 12, K: 9, S: 1, M: 1, Sim: simnet.DefaultConfig(), Seed: 1},
		map[string]*fieldmat.Matrix{"fwd": x}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.SetExecutor(deadExecutor{})
	if _, err := m.RunRound(context.Background(), "fwd", f.RandVec(rng, 6), 0); err == nil {
		t.Fatal("a round with zero arrivals must error, not decode")
	}
}
