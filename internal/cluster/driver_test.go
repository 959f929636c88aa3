package cluster

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/field"
	"repro/internal/fieldmat"
	"repro/internal/simnet"
)

// The driver's contract with its executor, pinned with executors that follow
// a script: what is handed over when, what is only returned, who cancels.

const (
	scriptRows = 4
	lieMarker  = field.Elem(666)
)

// scriptPolicy asks workers 0..n-1, needs `need` of them, rejects any result
// whose first element is lieMarker, and decodes to the first accepted output.
type scriptPolicy struct {
	n, need  int
	checked  map[int]int // worker → Check calls
	observed int
	last     Round // the round as Observe saw it
}

func (p *scriptPolicy) Plan(string, int) Plan {
	active := make([]int, p.n)
	for i := range active {
		active[i] = i
	}
	return Plan{Active: active, K: 1, Need: p.need}
}

func (p *scriptPolicy) Check(_ *Round, res *Result) (bool, float64) {
	p.checked[res.Worker]++
	return res.Output[0] != lieMarker, 1
}

func (p *scriptPolicy) Decode(r *Round) ([][]field.Elem, float64, error) {
	if len(r.Outputs) < p.need {
		return nil, 0, errors.New("too few results")
	}
	return r.Unpack(r.Outputs[:1]), 1, nil
}

func (p *scriptPolicy) Observe(r *Round) int {
	p.observed++
	p.last = *r
	return 0
}

func scriptDriver(t *testing.T, n, need int) (*Driver, *scriptPolicy) {
	t.Helper()
	p := &scriptPolicy{n: n, need: need, checked: map[int]int{}}
	data := map[string]*fieldmat.Matrix{"fwd": fieldmat.Rand(f, rand.New(rand.NewSource(1)), scriptRows, 2)}
	d, err := NewDriver(f, "script", p, n, data, simnet.DefaultConfig(), 1, false, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return d, p
}

func good(worker int) Result {
	return Result{Worker: worker, Output: []field.Elem{field.Elem(worker + 1), 2, 3, 4}}
}

func liar(worker int) Result {
	return Result{Worker: worker, Output: []field.Elem{lieMarker, 2, 3, 4}}
}

func failed(worker int) Result {
	return Result{Worker: worker, Err: errors.New("no shard")}
}

// scriptedExecutor plays its steps against the round's Arrivals from the
// RunRound goroutine, and keeps the Arrivals so a test can try to land
// something after the return.
type scriptedExecutor struct {
	steps  []func(arr *Arrivals)
	arr    *Arrivals
	ctxErr error // the round ctx's state when RunRound returned
}

func (e *scriptedExecutor) RunRound(ctx context.Context, _ string, _ []field.Elem, _, _ int, active []int) []Result {
	e.arr = NewArrivals(ctx, len(active))
	for _, step := range e.steps {
		step(e.arr)
	}
	results := e.arr.Wait()
	e.ctxErr = ctx.Err()
	return results
}

func land(res Result) func(*Arrivals) {
	return func(arr *Arrivals) { arr.Land(res) }
}

func miss(worker int) func(*Arrivals) {
	return func(arr *Arrivals) { arr.Miss(worker) }
}

var scriptInput = [][]field.Elem{{1, 2}}

func TestDriverStopsExecutorAtThreshold(t *testing.T) {
	d, p := scriptDriver(t, 5, 3)
	ex := &scriptedExecutor{steps: []func(*Arrivals){
		miss(4), // fails on its own while the round is live
		land(good(0)), land(good(1)), land(good(2)),
		// worker 3 never reports: only the driver's stop ends this round
	}}
	d.SetExecutor(ex)
	out, err := d.RunRoundBatch(context.Background(), "fwd", scriptInput, 0)
	if err != nil {
		t.Fatalf("the driver's own stop must not fail the round: %v", err)
	}
	if !errors.Is(ex.ctxErr, context.Canceled) {
		t.Fatalf("executor's ctx after the threshold = %v, want cancelled", ex.ctxErr)
	}
	if !slices.Equal(out.Used, []int{0, 1, 2}) {
		t.Fatalf("Used = %v", out.Used)
	}
	if p.observed != 1 {
		t.Fatalf("Observe ran %d times", p.observed)
	}
	// Worker 3 was merely not awaited; worker 4 is missing for good.
	if !slices.Equal(p.last.Pending, []int{3}) {
		t.Fatalf("Pending = %v, want [3]", p.last.Pending)
	}
	if want := p.last.Results[2].ArriveAt; p.last.StoppedAt != want || want <= 0 {
		t.Fatalf("StoppedAt = %g, want the deciding arrival %g", p.last.StoppedAt, want)
	}
	// Nothing reaches the driver after RunRound has returned.
	ex.arr.Land(liar(3))
	if p.checked[3] != 0 || len(ex.arr.Wait()) != 3 {
		t.Fatal("a result landing after the return was recorded or handed over")
	}
}

func TestDriverCallerCancelIsARoundCancellation(t *testing.T) {
	d, p := scriptDriver(t, 4, 3)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	d.SetExecutor(&scriptedExecutor{steps: []func(*Arrivals){
		land(good(0)),
		func(*Arrivals) { cancel() },
		land(good(1)), land(good(2)),
	}})
	_, err := d.RunRoundBatch(ctx, "fwd", scriptInput, 0)
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "round cancelled") {
		t.Fatalf("err = %v, want the round cancellation", err)
	}
	if p.observed != 0 {
		t.Fatal("Observe ran on a cancelled round: adaptation would fire on partial evidence")
	}
}

func TestDriverWorkerErrorDecidesOnlyBeforeThreshold(t *testing.T) {
	d, _ := scriptDriver(t, 4, 3)
	ex := &scriptedExecutor{steps: []func(*Arrivals){
		land(good(0)), land(failed(2)),
	}}
	d.SetExecutor(ex)
	_, err := d.RunRoundBatch(context.Background(), "fwd", scriptInput, 0)
	if err == nil || !strings.Contains(err.Error(), "worker 2 failed") {
		t.Fatalf("err = %v, want the round failed by worker 2", err)
	}
	if errors.Is(err, context.Canceled) || ex.ctxErr == nil {
		t.Fatalf("a worker error stops the executor (ctx %v) without reading as a cancellation (%v)", ex.ctxErr, err)
	}

	d, _ = scriptDriver(t, 4, 3)
	d.SetExecutor(&scriptedExecutor{steps: []func(*Arrivals){
		land(good(0)), land(good(1)), land(good(3)), land(failed(2)),
	}})
	if _, err := d.RunRoundBatch(context.Background(), "fwd", scriptInput, 0); err != nil {
		t.Fatalf("an error landing after the threshold failed the round: %v", err)
	}
}

func TestDriverNeverChecksPastThreshold(t *testing.T) {
	d, p := scriptDriver(t, 5, 3)
	d.SetExecutor(&scriptedExecutor{steps: []func(*Arrivals){
		land(liar(4)), land(good(0)), land(good(1)), land(good(2)), land(liar(3)),
	}})
	out, err := d.RunRoundBatch(context.Background(), "fwd", scriptInput, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.checked[3] != 0 || slices.Contains(out.Used, 3) || slices.Contains(out.Byzantine, 3) {
		t.Fatalf("the late liar was looked at: checked %d, Used %v, Byzantine %v", p.checked[3], out.Used, out.Byzantine)
	}
	if !slices.Equal(out.Byzantine, []int{4}) || p.last.Consumed != 4 {
		t.Fatalf("Byzantine = %v, Consumed = %d; want [4], 4", out.Byzantine, p.last.Consumed)
	}
}

// halfHandedExecutor hands over the first `hand` of its results and merely
// returns the rest — the executor with nothing in flight to stop.
type halfHandedExecutor struct {
	results []Result
	hand    int
}

func (e *halfHandedExecutor) RunRound(ctx context.Context, _ string, _ []field.Elem, _, _ int, _ []int) []Result {
	for i := 0; i < e.hand; i++ {
		deliver(ctx, &e.results[i])
	}
	return e.results
}

func TestDriverAcceptsUnhandedResultsExactlyOnce(t *testing.T) {
	for _, hand := range []int{0, 2} {
		d, p := scriptDriver(t, 6, 4)
		d.SetExecutor(&halfHandedExecutor{
			results: []Result{good(0), liar(1), good(2), good(3), good(4)}, hand: hand,
		})
		out, err := d.RunRoundBatch(context.Background(), "fwd", scriptInput, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(out.Used, []int{0, 2, 3, 4}) || !slices.Equal(out.Byzantine, []int{1}) {
			t.Fatalf("%d handed over: Used = %v, Byzantine = %v", hand, out.Used, out.Byzantine)
		}
		for w := 0; w < 5; w++ {
			if p.checked[w] != 1 {
				t.Fatalf("%d handed over: worker %d checked %d times", hand, w, p.checked[w])
			}
		}
		// The executor ran to its own end: silent worker 5 is missing for
		// good, not merely un-awaited.
		if len(p.last.Pending) != 0 {
			t.Fatalf("%d handed over: Pending = %v", hand, p.last.Pending)
		}
	}
}

func TestDriverVirtualPathHasNobodyPending(t *testing.T) {
	d, p := scriptDriver(t, 6, 3)
	for _, w := range d.Workers() {
		w.Shards["fwd"] = fieldmat.Rand(f, rand.New(rand.NewSource(int64(w.ID))), scriptRows, 2)
	}
	d.exec.(*VirtualExecutor).Dynamics = scriptedDynamics{crashed: map[int]bool{1: true}, dropped: map[int]bool{4: true}}
	if _, err := d.RunRoundBatch(context.Background(), "fwd", scriptInput, 0); err != nil {
		t.Fatal(err)
	}
	if len(p.last.Pending) != 0 || len(p.last.Results) != 4 || p.last.Consumed != 3 {
		t.Fatalf("Pending = %v, %d results, %d consumed; want none, 4, 3",
			p.last.Pending, len(p.last.Results), p.last.Consumed)
	}
}

// TestDriverRoundAllocsIndependentOfArrivals: the acceptance step allocates
// nothing per arrival, so a round of twelve hand-overs costs the driver the
// same number of allocations as a round of four.
func TestDriverRoundAllocsIndependentOfArrivals(t *testing.T) {
	allocs := func(n int) float64 {
		d, _ := scriptDriver(t, n, n)
		steps := make([]func(*Arrivals), n)
		for i := range steps {
			steps[i] = land(good(i))
		}
		d.SetExecutor(&scriptedExecutor{steps: steps})
		return testing.AllocsPerRun(10, func() {
			if _, err := d.RunRoundBatch(context.Background(), "fwd", scriptInput, 0); err != nil {
				t.Fatal(err)
			}
		})
	}
	if four, twelve := allocs(4), allocs(12); twelve != four {
		t.Fatalf("%g allocations for 12 arrivals, %g for 4", twelve, four)
	}
}
