package avcc

import (
	"context"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/cluster"
	"repro/internal/field"
	"repro/internal/fieldmat"
	"repro/internal/rpccluster"
)

// AVCC on the wall clock, over loopback frames: rounds end at the
// threshold-th verified arrival, and the adaptation rule reads what was
// awaited — not what the driver cancelled.

// paced makes a worker take a fixed time before it answers (then applies its
// own behaviour). Every worker is paced by a few milliseconds, so real
// arrival times differ only by scheduling noise that is small against them
// and the 2× straggler cut-off reads the same on a loaded two-core host as on
// an idle one; a straggler is paced by a stall far beyond that.
type paced struct {
	pace time.Duration
	then attack.Behavior
}

func (p paced) Apply(f *field.Field, iter int, honest []field.Elem) []field.Elem {
	time.Sleep(p.pace)
	return p.then.Apply(f, iter, honest)
}

func (paced) Name() string { return "paced" }

const (
	framePace  = 5 * time.Millisecond
	frameStall = 300 * time.Millisecond
)

// frameMaster builds a (12, 9) master whose own workers are served by one
// loopback frame server, which its executor dials once per worker: every
// worker paced by `pace`, `byz` lying on top of it, `stragglers` stalling
// `stall` instead. The executor and the server close with the test, or
// earlier through the returned close.
func frameMaster(t *testing.T, opt Options, data map[string]*fieldmat.Matrix,
	byz map[int]attack.Behavior, pace, stall time.Duration, stragglers ...int) (*Master, func()) {
	t.Helper()
	behaviors := byzBehaviors(12, byz)
	for i, b := range behaviors {
		p := pace
		if slices.Contains(stragglers, i) {
			p = stall
		}
		behaviors[i] = paced{pace: p, then: b}
	}
	m, err := NewMaster(f, opt, data, behaviors, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := rpccluster.ServeFrames("127.0.0.1:0", f, m.Workers()...)
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, len(m.Workers()))
	for i := range addrs {
		addrs[i] = srv.Addr
	}
	exec, err := rpccluster.DialFrames(addrs, nil)
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	m.SetExecutor(exec)
	closeAll := func() {
		exec.Close()
		srv.Close()
	}
	t.Cleanup(closeAll)
	return m, closeAll
}

// timedRound runs one round and fails the test if it took as long as limit.
func timedRound(t *testing.T, m *Master, w []field.Elem, iter int, limit time.Duration) *cluster.RoundOutput {
	t.Helper()
	start := time.Now()
	out, err := m.RunRound(context.Background(), "fwd", w, iter)
	if elapsed := time.Since(start); elapsed >= limit {
		t.Fatalf("iter %d took %v, limit %v", iter, elapsed, limit)
	}
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestFramesRoundEndsAtThresholdNotAtSlowestWorker(t *testing.T) {
	rng := rand.New(rand.NewSource(170))
	data, x := testData(rng, 36, 10)
	baseGo := runtime.NumGoroutine()
	m, closeAll := frameMaster(t, paperOpts(1, 1, false), data,
		map[int]attack.Behavior{10: attack.ReverseValue{C: 1}}, framePace, frameStall, 3)
	w := f.RandVec(rng, 10)
	want := fieldmat.MatVec(f, x, w)
	for iter := 0; iter < 5; iter++ {
		out := timedRound(t, m, w, iter, 100*time.Millisecond)
		if !field.EqualVec(out.Decoded, want) {
			t.Fatalf("iter %d: decode wrong", iter)
		}
		if slices.Contains(out.Used, 10) || slices.Contains(out.Used, 3) {
			t.Fatalf("iter %d: Used = %v holds the liar or the straggler", iter, out.Used)
		}
		for _, id := range out.Byzantine {
			if id != 10 {
				t.Fatalf("iter %d: honest worker %d named Byzantine", iter, id)
			}
		}
	}
	// Nothing outlives the deployment: once the executor and the server are
	// closed, the connections' loops and the stopped rounds' stalled calls
	// all leave.
	closeAll()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseGo {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines alive, %d before the rounds", runtime.NumGoroutine(), baseGo)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestFramesSkippedStragglerNeverRecodes(t *testing.T) {
	// One straggler inside the slack is simply not awaited: its cancelled
	// call, and the two spare fast workers cancelled with it, are not
	// evidence of straggling, so twenty iterations leave the code alone.
	rng := rand.New(rand.NewSource(171))
	data, x := testData(rng, 36, 10)
	m, _ := frameMaster(t, paperOpts(2, 1, true), data, nil, framePace, frameStall, 3)
	w := f.RandVec(rng, 10)
	want := fieldmat.MatVec(f, x, w)
	for iter := 0; iter < 20; iter++ {
		out := timedRound(t, m, w, iter, frameStall/2)
		if !field.EqualVec(out.Decoded, want) {
			t.Fatalf("iter %d: decode wrong", iter)
		}
		if _, recoded := m.FinishIteration(iter); recoded {
			t.Fatalf("iter %d re-coded on %d observed stragglers: un-awaited workers were counted",
				iter, out.StragglersObserved)
		}
	}
	if n, k := m.Coding(); n != 12 || k != 9 {
		t.Fatalf("coding drifted to (%d,%d)", n, k)
	}
}

func TestFramesFig5ScenarioRecodesLikeTheVirtualPath(t *testing.T) {
	// TestFig5ScenarioRecodesTo11_8's geometry on the wall clock: three
	// stragglers and a Byzantine exceed the slack, so the round is forced to
	// wait for a straggler — and the two still out when it completes are then
	// KNOWN late. The re-code must be the one the virtual path makes, and it
	// installs new shards on workers whose stalled calls the server is still
	// running.
	rng := rand.New(rand.NewSource(172))
	// Compute-dominated sizes, as there, so the virtual path's waited-for
	// straggler is detectably late.
	data, x := testData(rng, 900, 120)
	byz := map[int]attack.Behavior{11: attack.ReverseValue{C: 1}}

	virtual, err := NewMaster(f, paperOpts(2, 1, true), data, byzBehaviors(12, byz), attack.NewFixedStragglers(0, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	w := f.RandVec(rng, 120)
	want := fieldmat.MatVec(f, x, w)
	if _, err := virtual.RunRound(context.Background(), "fwd", w, 0); err != nil {
		t.Fatal(err)
	}
	virtual.FinishIteration(0)
	wantN, wantK := virtual.Coding()

	m, _ := frameMaster(t, paperOpts(2, 1, true), data, byz, framePace, frameStall, 0, 1, 2)
	out := timedRound(t, m, w, 0, 10*frameStall)
	if !field.EqualVec(out.Decoded, want) {
		t.Fatal("iteration-0 decode wrong")
	}
	if out.StragglersObserved != 3 {
		t.Fatalf("observed %d stragglers, want the 3 the round waited on or left out late", out.StragglersObserved)
	}
	if _, recoded := m.FinishIteration(0); !recoded {
		t.Fatal("stragglers beyond the slack must re-code")
	}
	if n, k := m.Coding(); n != wantN || k != wantK || n != 11 || k != 8 {
		t.Fatalf("coding = (%d,%d), virtual path (%d,%d), want (11,8)", n, k, wantN, wantK)
	}
	// After the re-code no straggler is on the critical path.
	out = timedRound(t, m, w, 1, frameStall/2)
	if !field.EqualVec(out.Decoded, want) {
		t.Fatal("post-recode decode wrong")
	}
}

func TestMasterOverFrames(t *testing.T) {
	// Real concurrency instead of virtual time: outputs must be identical;
	// Byzantine results must never be used.
	rng := rand.New(rand.NewSource(404))
	data, x := testData(rng, 36, 8)
	m, _ := frameMaster(t, paperOpts(1, 2, true), data,
		map[int]attack.Behavior{4: attack.ReverseValue{C: 1}}, 0, 20*time.Millisecond, 0)
	w := f.RandVec(rng, 8)
	want := fieldmat.MatVec(f, x, w)
	for iter := 0; iter < 2; iter++ {
		out, err := m.RunRound(context.Background(), "fwd", w, iter)
		if err != nil {
			t.Fatal(err)
		}
		if !field.EqualVec(out.Decoded, want) {
			t.Fatalf("iter %d: decode wrong over frames", iter)
		}
		if slices.Contains(out.Used, 4) {
			t.Fatal("Byzantine used in decode")
		}
	}
}

func TestObserveCountsPendingOnlyWhenKnownLate(t *testing.T) {
	// The adaptation rule on synthetic rounds, free of any scheduler: who is
	// counted among the workers the round stopped without hearing from.
	rng := rand.New(rand.NewSource(174))
	data, _ := testData(rng, 36, 10)
	m, err := NewMaster(f, paperOpts(2, 1, true), data, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	round := func(stoppedAt float64, pending []int, arrivals ...float64) *cluster.Round {
		r := &cluster.Round{Pending: pending, StoppedAt: stoppedAt, Consumed: len(arrivals)}
		for id, at := range arrivals {
			r.Results = append(r.Results, cluster.Result{Worker: id, ArriveAt: at})
		}
		return r
	}
	us := func(xs ...float64) []float64 {
		for i := range xs {
			xs[i] *= 1e-6
		}
		return xs
	}
	for _, tc := range []struct {
		name string
		r    *cluster.Round
		want int
	}{
		// Nine even arrivals, three spare workers cancelled with the round.
		{"spare fast workers", round(280e-6, []int{9, 10, 11}, us(200, 210, 220, 230, 240, 250, 260, 270, 280)...), 0},
		// One delayed wake-up on the deciding arrival of a sub-millisecond
		// round: that arrival is late by the 2× rule, the three still out are
		// not thereby stragglers.
		{"jittery deciding arrival", round(700e-6, []int{9, 10, 11}, us(200, 205, 210, 215, 220, 225, 230, 235, 700)...), 1},
		// Forced to wait 300 ms for a ninth result with three workers still
		// out: the one waited for and the three known later still.
		{"forced to wait", round(0.3, []int{9, 10, 11}, 5e-3, 5e-3, 5e-3, 5e-3, 5e-3, 5e-3, 5e-3, 5e-3, 0.3), 4},
		// Workers 9–11 asked, no result, not pending: missing for good.
		{"missing for good", round(280e-6, nil, us(200, 210, 220, 230, 240, 250, 260, 270, 280)...), 3},
	} {
		if got := m.Observe(tc.r); got != tc.want {
			t.Errorf("%s: observed %d stragglers, want %d", tc.name, got, tc.want)
		}
	}
}
