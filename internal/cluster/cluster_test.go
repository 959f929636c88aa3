package cluster

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/attack"
	"repro/internal/field"
	"repro/internal/fieldmat"
	"repro/internal/simnet"
)

var f = field.Default()

func buildWorkers(t *testing.T, rng *rand.Rand, n, rows, cols int) ([]*Worker, []*fieldmat.Matrix) {
	t.Helper()
	workers := make([]*Worker, n)
	shards := make([]*fieldmat.Matrix, n)
	for i := range workers {
		workers[i] = NewWorker(i)
		shards[i] = fieldmat.Rand(f, rng, rows, cols)
		workers[i].Shards["fwd"] = shards[i]
	}
	return workers, shards
}

func TestWorkerComputeHonest(t *testing.T) {
	rng := rand.New(rand.NewSource(130))
	w := NewWorker(0)
	shard := fieldmat.Rand(f, rng, 5, 7)
	w.Shards["fwd"] = shard
	in := f.RandVec(rng, 7)
	out, ops, err := w.Compute(f, "fwd", in, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ops != 35 {
		t.Fatalf("ops = %g, want 35", ops)
	}
	if !field.EqualVec(out, fieldmat.MatVec(f, shard, in)) {
		t.Fatal("honest compute wrong")
	}
}

func TestWorkerComputeErrors(t *testing.T) {
	w := NewWorker(0)
	w.Shards["fwd"] = fieldmat.NewMatrix(2, 3)
	if _, _, err := w.Compute(f, "missing", make([]field.Elem, 3), 1, 0); err == nil {
		t.Fatal("missing shard accepted")
	}
	if _, _, err := w.Compute(f, "fwd", make([]field.Elem, 4), 1, 0); err == nil {
		t.Fatal("wrong input length accepted")
	}
}

func TestWorkerByzantineBehaviourApplied(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	w := NewWorker(3)
	shard := fieldmat.Rand(f, rng, 4, 4)
	w.Shards["fwd"] = shard
	w.Behavior = attack.Constant{V: 8}
	out, _, err := w.Compute(f, "fwd", f.RandVec(rng, 4), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range out {
		if v != 8 {
			t.Fatal("behaviour not applied")
		}
	}
}

func TestVirtualExecutorArrivalOrderAndCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(132))
	workers, shards := buildWorkers(t, rng, 6, 10, 8)
	cfg := simnet.DefaultConfig()
	cfg.JitterFrac = 0 // deterministic times for the assertion below
	ex := NewVirtualExecutor(f, cfg, workers, attack.NewFixedStragglers(2), 1)
	in := f.RandVec(rng, 8)
	active := []int{0, 1, 2, 3, 4, 5}
	results := ex.RunRound(context.Background(), "fwd", in, 1, 0, active)
	if len(results) != 6 {
		t.Fatalf("got %d results", len(results))
	}
	for i := 1; i < len(results); i++ {
		if results[i].ArriveAt < results[i-1].ArriveAt {
			t.Fatal("results out of arrival order")
		}
	}
	// The straggler must arrive last: same work, 10x slower.
	if results[len(results)-1].Worker != 2 {
		t.Fatalf("straggler arrived at position != last (last = worker %d)", results[len(results)-1].Worker)
	}
	// Outputs must be the true products.
	for _, r := range results {
		want := fieldmat.MatVec(f, shards[r.Worker], in)
		if !field.EqualVec(r.Output, want) {
			t.Fatalf("worker %d output wrong", r.Worker)
		}
	}
}

func TestVirtualExecutorDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(133))
	workers, _ := buildWorkers(t, rng, 5, 6, 6)
	in := f.RandVec(rng, 6)
	run := func() []Result {
		ex := NewVirtualExecutor(f, simnet.DefaultConfig(), workers, nil, 99)
		return ex.RunRound(context.Background(), "fwd", in, 1, 0, []int{0, 1, 2, 3, 4})
	}
	a, b := run(), run()
	for i := range a {
		if a[i].Worker != b[i].Worker || a[i].ArriveAt != b[i].ArriveAt {
			t.Fatal("virtual executor not deterministic under a fixed seed")
		}
	}
}

func TestVirtualExecutorActiveSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(134))
	workers, _ := buildWorkers(t, rng, 6, 4, 4)
	ex := NewVirtualExecutor(f, simnet.DefaultConfig(), workers, nil, 7)
	results := ex.RunRound(context.Background(), "fwd", f.RandVec(rng, 4), 1, 0, []int{1, 3, 5})
	if len(results) != 3 {
		t.Fatalf("got %d results for 3 active workers", len(results))
	}
	seen := map[int]bool{}
	for _, r := range results {
		seen[r.Worker] = true
	}
	if !seen[1] || !seen[3] || !seen[5] {
		t.Fatal("wrong workers responded")
	}
}

func TestVirtualExecutorTimingComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(135))
	workers, _ := buildWorkers(t, rng, 2, 8, 8)
	cfg := simnet.DefaultConfig()
	cfg.JitterFrac = 0
	ex := NewVirtualExecutor(f, cfg, workers, nil, 1)
	in := f.RandVec(rng, 8)
	results := ex.RunRound(context.Background(), "fwd", in, 1, 0, []int{0, 1})
	for _, r := range results {
		wantArrive := r.ComputeSec + r.CommSec
		if diff := r.ArriveAt - wantArrive; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("arrival %g != compute+comm %g", r.ArriveAt, wantArrive)
		}
	}
}

func TestVirtualExecutorWorkerError(t *testing.T) {
	workers := []*Worker{NewWorker(0)} // no shards at all
	ex := NewVirtualExecutor(f, simnet.DefaultConfig(), workers, nil, 1)
	results := ex.RunRound(context.Background(), "fwd", []field.Elem{1}, 1, 0, []int{0})
	if len(results) != 1 || results[0].Err == nil {
		t.Fatal("worker error not propagated")
	}
}

// scriptedDynamics is a hand-written simnet.Dynamics for executor tests.
type scriptedDynamics struct {
	crashed map[int]bool
	dropped map[int]bool
	rate    map[int]float64
	link    map[int]float64
}

func (d scriptedDynamics) ComputeFactor(w, _ int) float64 {
	if f, ok := d.rate[w]; ok {
		return f
	}
	return 1
}

func (d scriptedDynamics) LinkFactor(w, _ int) float64 {
	if f, ok := d.link[w]; ok {
		return f
	}
	return 1
}

func (d scriptedDynamics) Crashed(w, _ int) bool { return d.crashed[w] }
func (d scriptedDynamics) Dropped(w, _ int) bool { return d.dropped[w] }

func TestVirtualExecutorDynamics(t *testing.T) {
	rng := rand.New(rand.NewSource(138))
	workers, _ := buildWorkers(t, rng, 5, 8, 8)
	cfg := simnet.DefaultConfig()
	cfg.JitterFrac = 0
	ex := NewVirtualExecutor(f, cfg, workers, nil, 1)
	ex.Dynamics = scriptedDynamics{
		crashed: map[int]bool{0: true},
		dropped: map[int]bool{1: true},
		rate:    map[int]float64{2: 8},
		link:    map[int]float64{3: 5},
	}
	in := f.RandVec(rng, 8)
	results := ex.RunRound(context.Background(), "fwd", in, 1, 0, []int{0, 1, 2, 3, 4})
	// Crashed and dropped workers are erasures: absent from the results.
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3 (one crash, one drop)", len(results))
	}
	byWorker := map[int]Result{}
	for _, r := range results {
		byWorker[r.Worker] = r
	}
	if _, ok := byWorker[0]; ok {
		t.Fatal("crashed worker returned a result")
	}
	if _, ok := byWorker[1]; ok {
		t.Fatal("dropped worker's result reached the master")
	}
	base := byWorker[4]
	slow := byWorker[2]
	if got, want := slow.ComputeSec, 8*base.ComputeSec; !approx(got, want) {
		t.Errorf("rate curve not applied: compute %g, want %g", got, want)
	}
	degraded := byWorker[3]
	if got, want := degraded.CommSec, 5*base.CommSec; !approx(got, want) {
		t.Errorf("link factor not applied: comm %g, want %g", got, want)
	}
}

func approx(a, b float64) bool {
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	return diff <= 1e-12*(1+b)
}

func TestMatVecOpExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(140))
	shard := fieldmat.Rand(f, rng, 5, 4)
	in := f.RandVec(rng, 4)
	out, ops, err := MatVecOp{}.Apply(f, shard, in)
	if err != nil {
		t.Fatal(err)
	}
	if ops != 20 {
		t.Fatalf("ops = %g", ops)
	}
	if !field.EqualVec(out, fieldmat.MatVec(f, shard, in)) {
		t.Fatal("MatVecOp wrong")
	}
	if (MatVecOp{}).Degree() != 1 {
		t.Fatal("MatVecOp degree wrong")
	}
	if _, _, err := (MatVecOp{}).Apply(f, shard, in[:2]); err == nil {
		t.Fatal("short input accepted")
	}
}

func TestGramOpExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(141))
	shard := fieldmat.Rand(f, rng, 4, 6)
	out, ops, err := GramOp{}.Apply(f, shard, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ops != 4*4*6 {
		t.Fatalf("ops = %g", ops)
	}
	want := fieldmat.MatMul(f, shard, shard.Transpose())
	if !field.EqualVec(out, want.Data) {
		t.Fatal("GramOp wrong")
	}
	if (GramOp{}).Degree() != 2 {
		t.Fatal("GramOp degree wrong")
	}
}

func TestWorkerCustomOpDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(142))
	w := NewWorker(0)
	shard := fieldmat.Rand(f, rng, 3, 5)
	w.Shards["gram"] = shard
	w.Ops["gram"] = GramOp{}
	out, _, err := w.Compute(f, "gram", nil, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 9 {
		t.Fatalf("gram output length %d, want 9", len(out))
	}
	// Keys without a registered op default to matvec.
	w.Shards["fwd"] = shard
	if _, _, err := w.Compute(f, "fwd", f.RandVec(rng, 5), 1, 0); err != nil {
		t.Fatal("default matvec dispatch broken:", err)
	}
}

func TestPackInputsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(143))
	inputs := make([][]field.Elem, 4)
	for i := range inputs {
		inputs[i] = f.RandVec(rng, 6)
	}
	packed, per, err := PackInputs(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if per != 6 || len(packed) != 24 {
		t.Fatalf("packed (per=%d, len=%d), want (6, 24)", per, len(packed))
	}
	back := SplitPacked(packed, 4)
	for i := range inputs {
		if !field.EqualVec(back[i], inputs[i]) {
			t.Fatalf("entry %d did not round-trip", i)
		}
	}
	// A batch of one broadcasts the input slice itself, no copy.
	single, _, err := PackInputs(inputs[:1])
	if err != nil {
		t.Fatal(err)
	}
	if &single[0] != &inputs[0][0] {
		t.Fatal("batch-of-one should alias the input")
	}
}

func TestPackInputsRejectsEmptyAndRagged(t *testing.T) {
	if _, _, err := PackInputs(nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	ragged := [][]field.Elem{make([]field.Elem, 3), make([]field.Elem, 2)}
	if _, _, err := PackInputs(ragged); err == nil {
		t.Fatal("ragged batch accepted")
	}
}

func TestMatVecOpApplyBatchMatchesPerVector(t *testing.T) {
	rng := rand.New(rand.NewSource(144))
	shard := fieldmat.Rand(f, rng, 7, 5)
	inputs := make([][]field.Elem, 3)
	for i := range inputs {
		inputs[i] = f.RandVec(rng, 5)
	}
	packed, _, err := PackInputs(inputs)
	if err != nil {
		t.Fatal(err)
	}
	out, ops, err := MatVecOp{}.ApplyBatch(f, shard, packed, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ops != 3*7*5 {
		t.Fatalf("ops = %g, want %d", ops, 3*7*5)
	}
	for i, in := range inputs {
		want := fieldmat.MatVec(f, shard, in)
		if !field.EqualVec(out[i*7:(i+1)*7], want) {
			t.Fatalf("batched column %d differs from its matvec", i)
		}
	}
	if _, _, err := (MatVecOp{}).ApplyBatch(f, shard, packed[:14], 3); err == nil {
		t.Fatal("short packed input accepted")
	}
}

func TestWorkerComputeBatched(t *testing.T) {
	rng := rand.New(rand.NewSource(145))
	w := NewWorker(0)
	shard := fieldmat.Rand(f, rng, 4, 6)
	w.Shards["fwd"] = shard
	inputs := [][]field.Elem{f.RandVec(rng, 6), f.RandVec(rng, 6)}
	packed, _, err := PackInputs(inputs)
	if err != nil {
		t.Fatal(err)
	}
	out, ops, err := w.Compute(f, "fwd", packed, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ops != 2*4*6 {
		t.Fatalf("ops = %g", ops)
	}
	for i, in := range inputs {
		if !field.EqualVec(out[i*4:(i+1)*4], fieldmat.MatVec(f, shard, in)) {
			t.Fatalf("batched worker output %d wrong", i)
		}
	}
}

func TestVirtualExecutorBatchedRound(t *testing.T) {
	rng := rand.New(rand.NewSource(146))
	workers, shards := buildWorkers(t, rng, 3, 5, 4)
	ex := NewVirtualExecutor(f, simnet.DefaultConfig(), workers, nil, 9)
	inputs := [][]field.Elem{f.RandVec(rng, 4), f.RandVec(rng, 4), f.RandVec(rng, 4)}
	packed, _, err := PackInputs(inputs)
	if err != nil {
		t.Fatal(err)
	}
	results := ex.RunRound(context.Background(), "fwd", packed, 3, 0, []int{0, 1, 2})
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	for _, r := range results {
		for c, in := range inputs {
			want := fieldmat.MatVec(f, shards[r.Worker], in)
			if !field.EqualVec(r.Output[c*5:(c+1)*5], want) {
				t.Fatalf("worker %d batch entry %d wrong", r.Worker, c)
			}
		}
	}
}

func TestVirtualExecutorCancelledContextStopsScheduling(t *testing.T) {
	rng := rand.New(rand.NewSource(147))
	workers, _ := buildWorkers(t, rng, 4, 4, 4)
	ex := NewVirtualExecutor(f, simnet.DefaultConfig(), workers, nil, 9)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results := ex.RunRound(ctx, "fwd", f.RandVec(rng, 4), 1, 0, []int{0, 1, 2, 3})
	if len(results) != 0 {
		t.Fatalf("a pre-cancelled round computed %d results", len(results))
	}
}
