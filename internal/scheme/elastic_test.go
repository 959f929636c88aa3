package scheme

// The elastic shard plane at the scheme layer: construction through the
// registry (WithRebalance / WithGroupScenarios), bit-exact serving across
// mid-run topology changes, the Service→master feedback loop, Service
// accounting across a retire/add cycle, and the degraded-fleet soak behind
// the "recovers without restart" claim.

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/field"
	"repro/internal/fieldmat"
	"repro/internal/scenario"
	"repro/internal/shard"
)

// degradeAll slows every worker of an n-worker group by factor from
// iteration `from` on, permanently — the "half the fleet degrades mid-run"
// fault. A uniform within-group slowdown leaves relative arrivals alone, so
// the group's own straggler detector stays quiet; only the BETWEEN-group
// imbalance grows, which is exactly the elastic plane's job to fix.
func degradeAll(n int, factor float64, from int) *scenario.Scenario {
	s := &scenario.Scenario{Name: "degrade", N: n}
	for w := 0; w < n; w++ {
		s.Events = append(s.Events, scenario.Event{
			Kind: scenario.Slowdown, Worker: w, From: from, Factor: factor,
		})
	}
	return s
}

func TestElasticConfigValidation(t *testing.T) {
	f := field.Default()
	x := fieldmat.NewMatrix(64, 8)
	data := map[string]*fieldmat.Matrix{"fwd": x}

	_, err := New("avcc", f, NewConfig(
		WithRebalance(shard.RebalanceConfig{Ratio: 0.5}), // a ratio <= 1 re-triggers forever
	), data, nil, nil)
	var cfgErr *InvalidConfigError
	if !errors.As(err, &cfgErr) || cfgErr.Field != "Rebalance" {
		t.Fatalf("Ratio 0.5 accepted: err = %v, want an InvalidConfigError on Rebalance", err)
	}

	// Autoscale bounds must contain the initial group count.
	if _, err := New("avcc", f, NewConfig(
		WithShards(4),
		WithRebalance(shard.RebalanceConfig{MinGroups: 1, MaxGroups: 2}),
	), data, nil, nil); err == nil {
		t.Fatal("4 initial groups accepted under MaxGroups = 2")
	}

	// WithRebalance alone routes to the shard plane with one starting group.
	m, err := New("avcc", f, NewConfig(
		WithRebalance(shard.DefaultRebalanceConfig()),
	), data, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	el, ok := m.(Elastic)
	if !ok {
		t.Fatalf("New returned %T, which is not Elastic", m)
	}
	if st := el.RebalanceStatus(); !st.Enabled || st.Groups != 1 {
		t.Fatalf("status = %+v, want an enabled single-group fleet", st)
	}
}

// TestElasticDecodeBitExactAcrossRebalance is the correctness half of the
// tentpole: with group 0 degraded from the start, the elastic fleet moves
// rows mid-run — and every decode before, during, and after those moves must
// stay the exact product, identical to the rebalance-off fleet on the same
// seed.
func TestElasticDecodeBitExactAcrossRebalance(t *testing.T) {
	const rounds = 16
	f := field.Default()
	run := func(rebalance bool) ([][]field.Elem, Master) {
		rng := rand.New(rand.NewSource(5))
		x := fieldmat.Rand(f, rng, 240, 48)
		opts := []Option{
			WithSeed(5),
			WithShards(2),
			WithSim(conformanceSim()),
			WithGroupScenarios(degradeAll(12, 4, 0)), // slot 0 slow, slot 1 clean
		}
		if rebalance {
			opts = append(opts, WithRebalance(shard.RebalanceConfig{
				Alpha: 0.5, Ratio: 1.2, CooldownRounds: 1,
			}))
		}
		m, err := New("avcc", f, NewConfig(opts...), map[string]*fieldmat.Matrix{"fwd": x}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		outs := make([][]field.Elem, rounds)
		for iter := 0; iter < rounds; iter++ {
			in := f.RandVec(rng, x.Cols)
			out, err := m.RunRound(context.Background(), "fwd", in, iter)
			if err != nil {
				t.Fatalf("rebalance=%v iter %d: %v", rebalance, iter, err)
			}
			if !field.EqualVec(out.Decoded, fieldmat.MatVec(f, x, in)) {
				t.Fatalf("rebalance=%v iter %d: decode is not the exact product", rebalance, iter)
			}
			outs[iter] = out.Decoded
			m.FinishIteration(iter)
			if el, ok := m.(Elastic); ok && rebalance {
				if _, err := el.Tick(shard.LoadSignal{}); err != nil {
					t.Fatalf("rebalance=%v iter %d: tick: %v", rebalance, iter, err)
				}
			}
		}
		return outs, m
	}

	off, _ := run(false)
	on, m := run(true)
	for iter := range on {
		if !field.EqualVec(on[iter], off[iter]) {
			t.Fatalf("iter %d: rebalance-on decode differs from rebalance-off on the same seed", iter)
		}
	}
	st := m.(Elastic).RebalanceStatus()
	if st.Moves < 1 {
		t.Fatalf("the degraded fleet never rebalanced (status %+v); the bit-exactness claim is vacuous", st)
	}
	// The slow group must have shed rows to its clean neighbour.
	snap := m.(Elastic).Snapshot()
	if slow, fast := snap[0].Spans["fwd"].Rows, snap[1].Spans["fwd"].Rows; slow >= fast {
		t.Errorf("group 0 (degraded 4x) still holds %d rows vs the clean group's %d", slow, fast)
	}
}

// TestServiceTicksElasticMaster pins the feedback plumbing: the dispatcher
// must call the elastic master's Tick after every successful round, with the
// live queue depth and service p99.
func TestServiceTicksElasticMaster(t *testing.T) {
	f := field.Default()
	rng := rand.New(rand.NewSource(13))
	x := fieldmat.Rand(f, rng, 96, 16)
	m, err := New("avcc", f, NewConfig(
		WithSeed(13),
		WithShards(2),
		WithRebalance(shard.DefaultRebalanceConfig()),
	), map[string]*fieldmat.Matrix{"fwd": x}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(m, ServiceConfig{MaxBatch: 4})
	defer svc.Close(context.Background())

	const reqs = 6
	for i := 0; i < reqs; i++ {
		in := f.RandVec(rng, x.Cols)
		out, err := svc.Submit(context.Background(), "fwd", in).Wait(context.Background())
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if !field.EqualVec(out.Decoded, fieldmat.MatVec(f, x, in)) {
			t.Fatalf("request %d: served decode is not the exact product", i)
		}
	}
	st := m.(Elastic).RebalanceStatus()
	if st.Ticks < 1 {
		t.Fatalf("the service ran %d requests but never ticked the elastic master (status %+v)", reqs, st)
	}
	if st.LastError != "" {
		t.Fatalf("ticking recorded an error: %s", st.LastError)
	}
}

// TestServiceCountersReconcileAcrossElasticCycle drives a Service over an
// elastic deployment that retires and adds groups while concurrent callers
// submit (seed slot 0 runs 6x slow; growth pressure adds a group, then the
// laggard is replaced). The accounting must survive the topology churn
// exactly: nothing fails, every decode is the exact product, each tenant's
// submits are completed, failed or rejected, and every completed request
// rode exactly one round.
func TestServiceCountersReconcileAcrossElasticCycle(t *testing.T) {
	const (
		callers = 8
		submits = 25 // per caller
	)
	tenants := []string{"alpha", "beta", "gamma", "delta"}
	f := field.Default()
	rng := rand.New(rand.NewSource(31))
	x := fieldmat.Rand(f, rng, 240, 16)
	m, err := New("avcc", f, NewConfig(
		WithSeed(31),
		WithShards(2),
		WithSim(conformanceSim()),
		WithGroupScenarios(degradeAll(12, 6, 0)), // slot 0 runs 6x slow from the start
		WithRebalance(shard.RebalanceConfig{
			Alpha: 0.5, Ratio: 1.2, CooldownRounds: 1,
			MinGroups: 1, MaxGroups: 3,
			ScaleUpWall: 1e-9, // constant growth pressure: add, then replace the laggard
		}),
	), map[string]*fieldmat.Matrix{"fwd": x}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(m, ServiceConfig{MaxBatch: 4, MaxLinger: time.Millisecond})

	inputs := make([][][]field.Elem, callers)
	for c := range inputs {
		inputs[c] = make([][]field.Elem, submits)
		for i := range inputs[c] {
			inputs[c][i] = f.RandVec(rng, x.Cols)
		}
	}
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		completed int
	)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ctx := WithTenant(context.Background(), tenants[c%len(tenants)])
			for i, in := range inputs[c] {
				out, err := svc.Submit(ctx, "fwd", in).Wait(context.Background())
				if err != nil {
					t.Errorf("caller %d request %d: %v", c, i, err)
					continue
				}
				if !field.EqualVec(out.Decoded, fieldmat.MatVec(f, x, in)) {
					t.Errorf("caller %d request %d: decode across the cycle is not the exact product", c, i)
				}
				mu.Lock()
				completed++
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if err := svc.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	st := m.(Elastic).RebalanceStatus()
	if st.GroupsRetired < 1 || st.GroupsAdded < 1 {
		t.Fatalf("no retire/add cycle happened under load (status %+v); the reconciliation is vacuous", st)
	}
	stats := svc.Stats()
	var totCompleted uint64
	for _, ts := range stats.Tenants {
		if ts.Submitted != ts.Completed+ts.Failed+ts.Rejected {
			t.Errorf("tenant %s: submitted %d != completed %d + failed %d + rejected %d",
				ts.Tenant, ts.Submitted, ts.Completed, ts.Failed, ts.Rejected)
		}
		totCompleted += ts.Completed
	}
	if int(totCompleted) != completed {
		t.Errorf("tenants account %d completed requests, callers saw %d", totCompleted, completed)
	}
	// Every completed request rode exactly one coded round across the
	// retire/add cycle: none lost, none double-counted.
	if int(stats.Requests) != completed {
		t.Errorf("rounds carried %d requests, callers completed %d", stats.Requests, completed)
	}
}

// TestElasticServingSoakRecoversFromDegradedFleet is the headline soak: a
// four-group fleet serves batched rounds; at iteration 12 HALF the fleet
// (seed slots 0 and 1) degrades 6x, permanently. The elastic plane must
// recover virtual throughput to >= 80% of the pre-fault steady state with no
// restart — by draining the slow groups, retiring them at the floor, and
// growing fresh (healthy-slot) groups in their place. A poller goroutine
// hammers the /statz surfaces throughout, so -race covers the snapshot path
// against live topology changes.
func TestElasticServingSoakRecoversFromDegradedFleet(t *testing.T) {
	const (
		rounds  = 64
		faultAt = 12
		batch   = 4
	)
	f := field.Default()
	rng := rand.New(rand.NewSource(21))
	x := fieldmat.Rand(f, rng, 480, 64)
	m, err := New("avcc", f, NewConfig(
		WithSeed(21),
		WithShards(4),
		WithSim(conformanceSim()),
		// Slots 0 and 1 carry the fault; every other slot — including the
		// fresh slots autoscaling mints mid-run — is the clean default.
		WithGroupScenarios(degradeAll(12, 6, faultAt), degradeAll(12, 6, faultAt)),
		WithRebalance(shard.RebalanceConfig{
			Alpha: 0.5, Ratio: 1.2, CooldownRounds: 1,
			MinGroups: 2, MaxGroups: 8,
			// The virtual-wall trigger: host-side queue depth cannot sense a
			// VIRTUAL slowdown (the simulated rounds cost the same host time),
			// so capacity scaling keys off the walls the fleet observes. A
			// threshold below any real wall keeps growth pressure on whenever
			// head-room exists.
			ScaleUpWall: 1e-9,
		}),
	), map[string]*fieldmat.Matrix{"fwd": x}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	el := m.(Elastic)

	stop := make(chan struct{})
	pollerDone := make(chan struct{})
	go func() {
		defer close(pollerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, gs := range el.Snapshot() {
				if gs.Workers < 1 || gs.Spans["fwd"].Rows < 1 {
					t.Errorf("poller saw a degenerate group: %+v", gs)
					return
				}
			}
			el.RebalanceStatus()
		}
	}()

	reqsPerSec := make([]float64, rounds)
	for iter := 0; iter < rounds; iter++ {
		inputs := make([][]field.Elem, batch)
		for i := range inputs {
			inputs[i] = f.RandVec(rng, x.Cols)
		}
		out, err := m.RunRoundBatch(context.Background(), "fwd", inputs, iter)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		for i := range inputs {
			if !field.EqualVec(out.Round(i).Decoded, fieldmat.MatVec(f, x, inputs[i])) {
				t.Fatalf("iter %d request %d: decode is not the exact product", iter, i)
			}
		}
		if out.Breakdown.Wall <= 0 {
			t.Fatalf("iter %d: round reported wall %v", iter, out.Breakdown.Wall)
		}
		reqsPerSec[iter] = batch / out.Breakdown.Wall
		m.FinishIteration(iter)
		if _, err := el.Tick(shard.LoadSignal{}); err != nil {
			t.Fatalf("iter %d: tick: %v", iter, err)
		}
	}
	close(stop)
	<-pollerDone

	mean := func(lo, hi int) float64 {
		sum := 0.0
		for _, v := range reqsPerSec[lo:hi] {
			sum += v
		}
		return sum / float64(hi-lo)
	}
	pre := mean(faultAt-4, faultAt)      // steady state just before the fault
	trough := mean(faultAt+1, faultAt+5) // right after half the fleet degraded
	recovered := mean(rounds-8, rounds)  // late steady state, no restart
	if trough >= pre {
		t.Fatalf("the fault never bit: pre-fault %.1f req/s, post-fault %.1f", pre, trough)
	}
	if recovered < 0.8*pre {
		t.Fatalf("recovered to %.1f virtual req/s, want >= 80%% of the pre-fault %.1f (trough %.1f)",
			recovered, pre, trough)
	}

	st := el.RebalanceStatus()
	if st.Moves < 1 || st.GroupsRetired < 1 {
		t.Fatalf("recovery without rebalancing? status %+v", st)
	}
	// Recovery must have come partly from growth: at least one live group
	// sits on a fresh slot (>= 4) — a clean scenario timeline and a seed
	// stream no initial (and no degraded) group ever used.
	fresh := false
	for _, gs := range el.Snapshot() {
		if gs.Slot >= 4 {
			fresh = true
		}
	}
	if !fresh {
		t.Errorf("no runtime-added group survives in the recovered fleet (status %+v)", st)
	}
}
