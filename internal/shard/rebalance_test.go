package shard

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/avcc"
	"repro/internal/cluster"
	"repro/internal/field"
	"repro/internal/fieldmat"
	"repro/internal/metrics"
	"repro/internal/simnet"
)

// timedGroup is a scriptable GroupMaster whose round wall scales with the
// rows it was built over — the stand-in for a real group whose compute cost
// tracks its row span. Its decoded output is rows elements of value slot, so
// concatenation length and group order stay checkable across rebalances.
type timedGroup struct {
	slot    int
	rows    int
	perRow  float64
	workers []*cluster.Worker
}

func (g *timedGroup) Name() string                 { return "timed" }
func (g *timedGroup) SetExecutor(cluster.Executor) {}
func (g *timedGroup) Workers() []*cluster.Worker   { return g.workers }
func (g *timedGroup) FinishIteration(int) (float64, bool) {
	return 0, false
}

func (g *timedGroup) RunRound(ctx context.Context, key string, input []field.Elem, iter int) (*cluster.RoundOutput, error) {
	b, err := g.RunRoundBatch(ctx, key, [][]field.Elem{input}, iter)
	if err != nil {
		return nil, err
	}
	return b.Round(0), nil
}

func (g *timedGroup) RunRoundBatch(_ context.Context, _ string, inputs [][]field.Elem, _ int) (*cluster.BatchOutput, error) {
	wall := g.perRow * float64(g.rows)
	out := &cluster.BatchOutput{
		Outputs: make([][]field.Elem, len(inputs)),
		// A coherent breakdown: components sum to exactly the wall.
		Breakdown: metrics.Breakdown{
			Compute: 0.7 * wall, Comm: 0.1 * wall, Verify: 0.1 * wall, Decode: 0.1 * wall, Wall: wall,
		},
	}
	for i := range inputs {
		row := make([]field.Elem, g.rows)
		for r := range row {
			row[r] = field.Elem(g.slot)
		}
		out.Outputs[i] = row
	}
	return out, nil
}

// timedRebuilder builds timedGroups whose per-row cost depends on the seed
// slot — slot identity (not position) carries the degradation, exactly as a
// slot-keyed scenario does in the scheme layer.
func timedRebuilder(perRowOf func(slot int) float64) Rebuilder {
	return func(slot int, data map[string]*fieldmat.Matrix) (GroupMaster, error) {
		rows := 0
		for _, x := range data {
			rows = x.Rows
		}
		g := &timedGroup{slot: slot, rows: rows, perRow: perRowOf(slot)}
		for w := 0; w < 2; w++ {
			g.workers = append(g.workers, cluster.NewWorker(w))
		}
		return g, nil
	}
}

func elasticFixture(t *testing.T, rows, groups, quantum int, rcfg RebalanceConfig, rb Rebuilder) *Master {
	t.Helper()
	x := fieldmat.NewMatrix(rows, 2)
	for i := range x.Data {
		x.Data[i] = field.Elem(i % 97)
	}
	plan, err := EvenPlan(rows, groups)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewElasticMaster(map[string]*fieldmat.Matrix{"fwd": x},
		map[string]*Plan{"fwd": plan}, quantum, rcfg, rb)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// runRound drives one successful round + FinishIteration and fails the test
// on any error; it returns the merged output.
func runRound(t *testing.T, m *Master, iter int) *cluster.BatchOutput {
	t.Helper()
	out, err := m.RunRoundBatch(context.Background(), "fwd", [][]field.Elem{{1, 2}}, iter)
	if err != nil {
		t.Fatalf("round %d: %v", iter, err)
	}
	m.FinishIteration(iter)
	return out
}

func spanRows(t *testing.T, m *Master, key string) []int {
	t.Helper()
	p := m.Plan(key)
	if err := p.Validate(); err != nil {
		t.Fatalf("live plan invalid: %v", err)
	}
	rows := make([]int, len(p.Spans))
	for g, s := range p.Spans {
		rows[g] = s.Rows
	}
	return rows
}

// TestElasticMoveShiftsRowsToFastGroup: a group 4x slower per row must give
// rows to its fast neighbour until the walls roughly equalise, with every
// intermediate plan valid and every merged output still covering all rows.
func TestElasticMoveShiftsRowsToFastGroup(t *testing.T) {
	rcfg := RebalanceConfig{Alpha: 0.5, Ratio: 1.2, CooldownRounds: 1}
	m := elasticFixture(t, 64, 2, 1, rcfg, timedRebuilder(func(slot int) float64 {
		if slot == 0 {
			return 4.0
		}
		return 1.0
	}))
	for i := 0; i < 12; i++ {
		out := runRound(t, m, i)
		if got := len(out.Outputs[0]); got != 64 {
			t.Fatalf("round %d merged output has %d rows, want 64", i, got)
		}
		if _, err := m.Tick(LoadSignal{}); err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
	}
	rows := spanRows(t, m, "fwd")
	// Equal walls at 4x per-row asymmetry put the slow group near
	// 64/(1+4) ≈ 13 rows; allow slack for EWMA lag and quantization.
	if rows[0] > 20 || rows[0] < 1 {
		t.Errorf("slow group holds %d rows after rebalancing, want it drained toward ~13", rows[0])
	}
	st := m.RebalanceStatus()
	if st.Moves < 1 || st.RowsMoved < 10 {
		t.Errorf("status reports %d moves / %d rows moved, want an actual rebalance", st.Moves, st.RowsMoved)
	}
	if !st.Enabled {
		t.Error("elastic master reports Enabled = false")
	}
}

// TestElasticQuantumAlignment: with a 4-row quantum (the gavcc coded-block
// constraint) every span boundary must stay a multiple of 4 through moves.
func TestElasticQuantumAlignment(t *testing.T) {
	rcfg := RebalanceConfig{Alpha: 0.5, Ratio: 1.2, CooldownRounds: 1}
	m := elasticFixture(t, 32, 2, 4, rcfg, timedRebuilder(func(slot int) float64 {
		if slot == 0 {
			return 5.0
		}
		return 1.0
	}))
	for i := 0; i < 10; i++ {
		runRound(t, m, i)
		if _, err := m.Tick(LoadSignal{}); err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
		p := m.Plan("fwd")
		for g, s := range p.Spans {
			if s.Start%4 != 0 || s.Rows%4 != 0 {
				t.Fatalf("after tick %d group %d span [%d, %d) breaks the 4-row quantum", i, g, s.Start, s.End())
			}
		}
	}
	if rows := spanRows(t, m, "fwd"); rows[0] < 4 {
		t.Errorf("slow group shrank to %d rows, below the one-quantum floor", rows[0])
	}
	if st := m.RebalanceStatus(); st.Moves < 1 {
		t.Errorf("no moves happened at quantum 4 (status %+v)", st)
	}
}

// TestElasticAutoscaleUpAndDown walks the fleet through queue-driven scale
// up to MaxGroups, idle-driven scale down, and a re-add — checking that
// seed-stream slots are never reused.
func TestElasticAutoscaleUpAndDown(t *testing.T) {
	rcfg := RebalanceConfig{
		Alpha: 0.5, Ratio: 1.2, CooldownRounds: -1, // no cooldown: each tick may act
		MinGroups: 2, MaxGroups: 4,
		ScaleUpDepth: 4, ScaleDownDepth: 0, ScaleDownTicks: 2,
	}
	m := elasticFixture(t, 32, 2, 1, rcfg, timedRebuilder(func(int) float64 { return 1.0 }))

	// Ticks interleave moves with adds/retires (after a split the halves are
	// uneven, so a rebalancing move is a legitimate response), so the
	// assertions are about where the fleet CONVERGES, not per-tick actions.
	iter := 0
	tickUntil := func(depth int, wantGroups int, label string) {
		t.Helper()
		for attempt := 0; attempt < 20; attempt++ {
			runRound(t, m, iter)
			iter++
			res, err := m.Tick(LoadSignal{QueueDepth: depth})
			if err != nil {
				t.Fatalf("%s: tick: %v", label, err)
			}
			if depth >= rcfg.ScaleUpDepth && res.Action == "retire" {
				t.Fatalf("%s: fleet retired a group under load", label)
			}
			if depth <= rcfg.ScaleDownDepth && res.Action == "add" {
				t.Fatalf("%s: fleet added a group while idle", label)
			}
			if m.Groups() == wantGroups {
				return
			}
		}
		t.Fatalf("%s: groups = %d after 20 ticks, want %d", label, m.Groups(), wantGroups)
	}
	holdAt := func(depth, wantGroups int, label string) {
		t.Helper()
		for i := 0; i < 4; i++ {
			runRound(t, m, iter)
			iter++
			if _, err := m.Tick(LoadSignal{QueueDepth: depth}); err != nil {
				t.Fatalf("%s: tick: %v", label, err)
			}
			if m.Groups() != wantGroups {
				t.Fatalf("%s: groups moved to %d, want pinned at %d", label, m.Groups(), wantGroups)
			}
		}
	}

	tickUntil(10, 4, "scale up")
	holdAt(10, 4, "at MaxGroups") // saturated: no growth past the bound
	tickUntil(0, 2, "scale down")
	holdAt(0, 2, "at MinGroups") // idle: never drops below the floor
	tickUntil(10, 3, "re-add")   // grows again — and must take a FRESH slot

	seen := map[int]bool{}
	maxSlot := -1
	for _, gs := range m.Snapshot() {
		if seen[gs.Slot] {
			t.Fatalf("slot %d appears twice in the live fleet", gs.Slot)
		}
		seen[gs.Slot] = true
		if gs.Slot > maxSlot {
			maxSlot = gs.Slot
		}
	}
	st := m.RebalanceStatus()
	if st.GroupsAdded < 3 || st.GroupsRetired < 2 {
		t.Errorf("added/retired = %d/%d, want at least 3/2 across the cycle", st.GroupsAdded, st.GroupsRetired)
	}
	// Every add mints a fresh seed-stream slot; none may recycle a retired
	// group's randomness stream.
	if want := 2 + int(st.GroupsAdded); st.NextSlot != want {
		t.Errorf("NextSlot = %d, want %d (2 initial groups + %d adds, no reuse)", st.NextSlot, want, st.GroupsAdded)
	}
	if maxSlot != st.NextSlot-1 {
		t.Errorf("newest live slot = %d, want the most recently minted %d", maxSlot, st.NextSlot-1)
	}
	if rows := spanRows(t, m, "fwd"); len(rows) != 3 {
		t.Fatalf("plan has %d spans, want 3", len(rows))
	}
}

// TestElasticRetiresDrainedLaggard: a group 8x slower per row first gets
// drained by wall-equalising moves — which stall once its tiny span's wall
// matches the fleet — and must then be RETIRED outright: token rows at a
// terrible per-row cost do not earn a seed slot.
func TestElasticRetiresDrainedLaggard(t *testing.T) {
	rcfg := RebalanceConfig{
		Alpha: 0.5, Ratio: 1.2, CooldownRounds: -1,
		MinGroups: 2, MaxGroups: 3, // no scale-up signals: the fleet may only shrink
	}
	m := elasticFixture(t, 96, 3, 1, rcfg, timedRebuilder(func(slot int) float64 {
		if slot == 1 {
			return 8.0
		}
		return 1.0
	}))
	for i := 0; i < 20 && m.Groups() == 3; i++ {
		runRound(t, m, i)
		if _, err := m.Tick(LoadSignal{}); err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
	}
	if m.Groups() != 2 {
		t.Fatalf("the 8x laggard was never retired: %d groups, status %+v", m.Groups(), m.RebalanceStatus())
	}
	st := m.RebalanceStatus()
	if st.Moves < 1 || st.GroupsRetired != 1 {
		t.Fatalf("want drain-then-retire (moves >= 1, retired == 1), got status %+v", st)
	}
	for _, gs := range m.Snapshot() {
		if gs.Slot == 1 {
			t.Fatalf("slot 1 still lives after its retirement: %+v", gs)
		}
	}
	if rows := spanRows(t, m, "fwd"); rows[0]+rows[1] != 96 {
		t.Fatalf("retire lost rows: %v", rows)
	}
}

// TestElasticRebuildFailureRollsBack: when the rebuilder rejects a new
// topology (a real scheme constructor can: infeasible K, exhausted hosts),
// the fleet must keep serving under the previous plan and record the error.
func TestElasticRebuildFailureRollsBack(t *testing.T) {
	fail := false
	inner := timedRebuilder(func(int) float64 { return 1.0 })
	rb := func(slot int, data map[string]*fieldmat.Matrix) (GroupMaster, error) {
		if fail {
			return nil, errors.New("no machines left")
		}
		return inner(slot, data)
	}
	rcfg := RebalanceConfig{CooldownRounds: -1, MinGroups: 1, MaxGroups: 3, ScaleUpDepth: 1}
	m := elasticFixture(t, 16, 2, 1, rcfg, rb)

	before := fmt.Sprint(spanRows(t, m, "fwd"), m.Groups())
	runRound(t, m, 0)
	fail = true
	if _, err := m.Tick(LoadSignal{QueueDepth: 5}); err == nil || !strings.Contains(err.Error(), "no machines left") {
		t.Fatalf("tick error = %v, want the rebuilder's failure", err)
	}
	if after := fmt.Sprint(spanRows(t, m, "fwd"), m.Groups()); after != before {
		t.Fatalf("failed scale-up changed the topology: %s -> %s", before, after)
	}
	if st := m.RebalanceStatus(); !strings.Contains(st.LastError, "no machines left") {
		t.Fatalf("LastError = %q, want the rebuild failure recorded", st.LastError)
	}
	runRound(t, m, 1) // the fleet still serves

	fail = false
	if res, err := m.Tick(LoadSignal{QueueDepth: 5}); err != nil || res.Action != "add" {
		t.Fatalf("tick after recovery = (%+v, %v), want a successful add", res, err)
	}
}

// TestMergedBreakdownStaysCoherent is the satellite-2 reconciliation check:
// when every group reports a coherent breakdown (components sum to its
// wall), the merged breakdown must also be coherent — components never sum
// past the merged wall — because it is one group's breakdown, not a
// per-component max across groups.
func TestMergedBreakdownStaysCoherent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		groups := 2 + rng.Intn(4)
		fakes := make([]*fakeGroup, groups)
		plan := &Plan{Rows: groups, Spans: make([]Span, groups)}
		for g := range fakes {
			fakes[g] = newFakeGroup(g, 1)
			comp := []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
			wall := comp[0] + comp[1] + comp[2] + comp[3]
			fakes[g].out = &cluster.BatchOutput{Breakdown: metrics.Breakdown{
				Compute: comp[0], Comm: comp[1], Verify: comp[2], Decode: comp[3], Wall: wall,
			}}
			plan.Spans[g] = Span{Start: g, Rows: 1}
		}
		m, err := NewMaster(map[string]*Plan{"fwd": plan}, func(g int) (GroupMaster, error) {
			return fakes[g], nil
		})
		if err != nil {
			t.Fatal(err)
		}
		out, err := m.RunRoundBatch(context.Background(), "fwd", [][]field.Elem{{1}}, trial)
		if err != nil {
			t.Fatal(err)
		}
		bd := out.Breakdown
		sum := bd.Compute + bd.Comm + bd.Verify + bd.Decode
		if sum > bd.Wall*(1+1e-12) {
			t.Fatalf("trial %d: merged components sum %.6f past the merged wall %.6f: %+v", trial, sum, bd.Wall, bd)
		}
		matches := false
		for _, fg := range fakes {
			if fg.out.Breakdown == bd {
				matches = true
			}
		}
		if !matches {
			t.Fatalf("trial %d: merged breakdown %+v is not any single group's", trial, bd)
		}
	}
}

// TestSiblingCancelSuppressesFinishIteration is the satellite-1 guard at the
// fake level: after a round where one group failed and cancelled its
// sibling, FinishIteration for that iteration must not fan in at all — and
// the suppression must be per-iteration, not permanent.
func TestSiblingCancelSuppressesFinishIteration(t *testing.T) {
	g0, g1 := newFakeGroup(0, 2), newFakeGroup(1, 2)
	g0.block = true // will observe the sibling-induced cancellation
	g1.err = errors.New("decode exploded")
	m, err := NewMaster(twoGroupPlans(t), func(g int) (GroupMaster, error) {
		return []GroupMaster{g0, g1}[g], nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunRound(context.Background(), "fwd", []field.Elem{1}, 7); err == nil {
		t.Fatal("round with a failing group succeeded")
	}
	if cost, recoded := m.FinishIteration(7); cost != 0 || recoded {
		t.Fatalf("FinishIteration(failed iter) = (%v, %v), want (0, false)", cost, recoded)
	}
	if g0.finished != 0 || g1.finished != 0 {
		t.Fatalf("FinishIteration fanned into (%d, %d) groups after a failed round, want none", g0.finished, g1.finished)
	}

	// A later iteration that completes cleanly adapts as usual.
	g0.block, g1.err = false, nil
	g0.out = &cluster.BatchOutput{}
	g1.out = &cluster.BatchOutput{}
	if _, err := m.RunRound(context.Background(), "fwd", []field.Elem{1}, 8); err != nil {
		t.Fatal(err)
	}
	m.FinishIteration(8)
	if g0.finished != 1 || g1.finished != 1 {
		t.Fatalf("FinishIteration after a clean round fanned into (%d, %d) groups, want one each", g0.finished, g1.finished)
	}
}

// TestSiblingCancelLeavesAvccAdaptationUntouched is the satellite-1
// regression with a REAL adaptive group: group 0 is a live AVCC master,
// group 1 a fake that fails the round. The cancelled AVCC group must keep
// its (n, k) coding and full active set — before this guard, the
// ctx-cancel erasures read as mass straggling and FinishIteration shrank K
// and quarantined healthy workers.
func TestSiblingCancelLeavesAvccAdaptationUntouched(t *testing.T) {
	f := field.Default()
	rows, cols := 36, 8
	x := fieldmat.NewMatrix(rows, cols)
	for i := range x.Data {
		x.Data[i] = f.Reduce(uint64(i) * 2654435761)
	}
	plan, err := EvenPlan(rows, 2)
	if err != nil {
		t.Fatal(err)
	}
	x0, err := SliceSpan(x, plan.Spans[0])
	if err != nil {
		t.Fatal(err)
	}
	real, err := avcc.NewMaster(f, avcc.Options{
		Params:            avcc.Params{N: 12, K: 9, S: 1, M: 1},
		Sim:               simnet.DefaultConfig(),
		Seed:              7,
		Dynamic:           true,
		DeterministicKeys: true,
	}, map[string]*fieldmat.Matrix{"fwd": x0}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	failer := newFakeGroup(1, 2)
	failer.err = errors.New("transport collapsed")
	m, err := NewMaster(map[string]*Plan{"fwd": plan}, func(g int) (GroupMaster, error) {
		if g == 0 {
			return real, nil
		}
		return failer, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	input := make([]field.Elem, cols)
	for i := range input {
		input[i] = field.Elem(i + 1)
	}
	if _, err := m.RunRound(context.Background(), "fwd", input, 0); err == nil {
		t.Fatal("round with a failing sibling succeeded")
	}
	m.FinishIteration(0)
	if n, k := real.Coding(); n != 12 || k != 9 {
		t.Fatalf("cancelled AVCC group re-coded to (%d, %d) after a sibling failure, want (12, 9) untouched", n, k)
	}
	if active := len(real.ActiveWorkers()); active != 12 {
		t.Fatalf("cancelled AVCC group quarantined down to %d active workers, want all 12", active)
	}
}

// TestSnapshotDuringRebalance hammers Snapshot/RebalanceStatus/Plan from a
// poller goroutine while rounds run and the topology moves — the shard-level
// half of the satellite-3 race fix (run under -race in CI).
func TestSnapshotDuringRebalance(t *testing.T) {
	rcfg := RebalanceConfig{Alpha: 0.5, Ratio: 1.2, CooldownRounds: 1,
		MinGroups: 1, MaxGroups: 4, ScaleUpDepth: 2, ScaleDownTicks: 2}
	m := elasticFixture(t, 64, 2, 1, rcfg, timedRebuilder(func(slot int) float64 {
		if slot == 0 {
			return 4.0
		}
		return 1.0
	}))
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, gs := range m.Snapshot() {
				if gs.Workers < 1 || gs.Spans["fwd"].Rows < 1 {
					t.Errorf("snapshot saw a degenerate group: %+v", gs)
					return
				}
			}
			m.RebalanceStatus()
			if err := m.Plan("fwd").Validate(); err != nil {
				t.Errorf("snapshotted plan invalid: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 30; i++ {
		runRound(t, m, i)
		depth := 5
		if i > 20 {
			depth = 0
		}
		if _, err := m.Tick(LoadSignal{QueueDepth: depth}); err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
	}
	close(stop)
	<-done
	if st := m.RebalanceStatus(); st.Moves+st.GroupsAdded == 0 {
		t.Error("the topology never moved; the race coverage is vacuous")
	}
}
