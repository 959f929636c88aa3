package loadgen

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/field"
	"repro/internal/fieldmat"
	"repro/internal/scenario"
	"repro/internal/scheme"
	"repro/internal/shard"
	"repro/internal/simnet"
)

var f = field.Default()

func TestScheduleIsDeterministicAndPoisson(t *testing.T) {
	cfg := Config{Rate: 500, Duration: 2 * time.Second, Cols: 8, Seed: 7}
	a, b := schedule(cfg), schedule(cfg)
	if len(a) == 0 {
		t.Fatal("empty schedule")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed produced %d vs %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at arrival %d", i)
		}
	}
	cfg.Seed = 8
	if c := schedule(cfg); len(c) == len(a) {
		same := true
		for i := range c {
			if c[i] != a[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical schedules")
		}
	}
	// Poisson with mean 1000 arrivals: 4 sigma is ~±127.
	if len(a) < 800 || len(a) > 1200 {
		t.Fatalf("%d arrivals for a 2s x 500rps window", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatal("schedule not monotonic")
		}
	}
}

func TestFlashCrowdCurveOffersMoreLoad(t *testing.T) {
	curve := MustCompileProfile(scenario.FlashCrowd, 12, 9, 3)
	if curve.Peak() < 2.5 {
		t.Fatalf("flash-crowd peak multiplier %.2f, want the ~3x burst", curve.Peak())
	}
	flat := Config{Rate: 400, Duration: 2 * time.Second, Cols: 8, Seed: 11}
	burst := flat
	burst.Curve = curve
	nFlat, nBurst := len(schedule(flat)), len(schedule(burst))
	if nBurst <= nFlat {
		t.Fatalf("flash-crowd offered %d arrivals, flat offered %d", nBurst, nFlat)
	}
}

func TestCompileProfileCurves(t *testing.T) {
	steady := MustCompileProfile(scenario.Steady, 12, 9, 1)
	for i, m := range steady.Mult {
		if m != 1 {
			t.Fatalf("steady segment %d has multiplier %g", i, m)
		}
	}
	for _, name := range Profiles() {
		c, err := CompileProfile(name, 12, 9, 5)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(c.Mult) < curveHorizon {
			t.Fatalf("%s: curve spans %d segments", name, len(c.Mult))
		}
		for i, m := range c.Mult {
			if m < 1 {
				t.Fatalf("%s: segment %d multiplier %g < 1", name, i, m)
			}
		}
		// Determinism: preset compilation is a pure function of its inputs.
		c2, _ := CompileProfile(name, 12, 9, 5)
		for i := range c.Mult {
			if c.Mult[i] != c2.Mult[i] {
				t.Fatalf("%s: recompilation diverged at segment %d", name, i)
			}
		}
	}
	if _, err := CompileProfile("no-such-profile", 12, 9, 1); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

func TestRunClassifiesOutcomes(t *testing.T) {
	var mu sync.Mutex
	n := 0
	target := TargetFunc(func(context.Context, []field.Elem) error {
		mu.Lock()
		n++
		k := n
		mu.Unlock()
		switch k % 3 {
		case 0:
			return fmt.Errorf("%w: queue full", ErrOverload)
		case 1:
			return nil
		default:
			return errors.New("boom")
		}
	})
	rep, err := Run(context.Background(), target, Config{
		Rate: 2000, Duration: 300 * time.Millisecond, Cols: 4, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Offered == 0 || rep.Completed == 0 || rep.Overloaded == 0 || rep.Failed == 0 {
		t.Fatalf("classification missing a class: %+v", rep)
	}
	if rep.Completed+rep.Overloaded+rep.Failed+rep.Dropped != rep.Offered {
		t.Fatalf("outcome classes do not partition offered load: %+v", rep)
	}
	if rep.OverloadRate <= 0 || rep.OverloadRate >= 1 {
		t.Fatalf("overload rate %g", rep.OverloadRate)
	}
	if _, err := json.Marshal(rep); err != nil {
		t.Fatalf("report does not marshal: %v", err)
	}
}

// TestRunAgainstRealService drives the open loop end to end through
// scheme.Service over a real AVCC master: everything completes, latency
// quantiles are populated, and the goodput matches the completion count.
func TestRunAgainstRealService(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	x := fieldmat.Rand(f, rng, 36, 10)
	m, err := scheme.New("avcc", f, scheme.NewConfig(scheme.WithSeed(21)),
		map[string]*fieldmat.Matrix{"fwd": x}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	svc := scheme.NewService(m, scheme.ServiceConfig{MaxBatch: 16, MaxLinger: time.Millisecond})
	defer svc.Close(context.Background())

	rep, err := Run(context.Background(), ServiceTarget{Svc: svc}, Config{
		Rate:     400,
		Duration: 300 * time.Millisecond,
		Curve:    MustCompileProfile(scenario.FlashCrowd, 12, 9, 21),
		Cols:     10,
		Seed:     21,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Profile != scenario.FlashCrowd {
		t.Fatalf("report profile %q", rep.Profile)
	}
	if rep.Completed == 0 || rep.Completed != rep.Offered {
		t.Fatalf("healthy service dropped load: %+v", rep)
	}
	if rep.Failed != 0 || rep.Overloaded != 0 {
		t.Fatalf("healthy service reported failures: %+v", rep)
	}
	if rep.P50Ms <= 0 || rep.P99Ms < rep.P50Ms {
		t.Fatalf("latency quantiles implausible: p50=%.3f p99=%.3f", rep.P50Ms, rep.P99Ms)
	}
	if rep.GoodputRPS <= 0 {
		t.Fatalf("goodput %.1f", rep.GoodputRPS)
	}
}

// TestRunCountersReconcileAcrossElasticCycle drives the open loop through an
// ELASTIC deployment that retires and adds groups mid-run (seed slot 0 is
// virtually degraded; autoscaling replaces it with a fresh group). The shed
// and goodput accounting must survive the topology churn exactly: the outcome
// classes partition offered load, nothing fails, and every completed request
// is one the service's own round counter carried — no request lost or
// double-counted across a retire/add cycle.
func TestRunCountersReconcileAcrossElasticCycle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	x := fieldmat.Rand(f, rng, 240, 16)
	slow := &scenario.Scenario{Name: "degrade", N: 12}
	for w := 0; w < 12; w++ {
		slow.Events = append(slow.Events, scenario.Event{
			Kind: scenario.Slowdown, Worker: w, From: 0, Factor: 6,
		})
	}
	sim := simnet.DefaultConfig()
	sim.LinkLatency = 1e-5
	m, err := scheme.New("avcc", f, scheme.NewConfig(
		scheme.WithSeed(31),
		scheme.WithShards(2),
		scheme.WithSim(sim),
		scheme.WithGroupScenarios(slow), // slot 0 runs 6x slow from the start
		scheme.WithRebalance(shard.RebalanceConfig{
			Alpha: 0.5, Ratio: 1.2, CooldownRounds: 1,
			MinGroups: 1, MaxGroups: 3,
			ScaleUpWall: 1e-9, // constant growth pressure: add, then replace the laggard
		}),
	), map[string]*fieldmat.Matrix{"fwd": x}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	svc := scheme.NewService(m, scheme.ServiceConfig{MaxBatch: 4, MaxLinger: time.Millisecond})

	rep, err := Run(context.Background(), ServiceTarget{Svc: svc}, Config{
		Rate: 400, Duration: 400 * time.Millisecond, Cols: 16, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	st := m.(scheme.Elastic).RebalanceStatus()
	if st.GroupsRetired < 1 || st.GroupsAdded < 1 {
		t.Fatalf("no retire/add cycle happened under load (status %+v); the reconciliation is vacuous", st)
	}
	if rep.Completed+rep.Overloaded+rep.Failed+rep.Dropped != rep.Offered {
		t.Fatalf("outcome classes do not partition offered load across the cycle: %+v", rep)
	}
	if rep.Failed != 0 {
		t.Fatalf("topology churn surfaced as request failures: %+v", rep)
	}
	if rep.Completed == 0 || rep.GoodputRPS <= 0 {
		t.Fatalf("no goodput through the elastic fleet: %+v", rep)
	}
	// The service-side ledger must agree with the harness-side one: every
	// completed request rode exactly one coded round; shed requests rode none.
	if stats := svc.Stats(); int(stats.Requests) != rep.Completed {
		t.Fatalf("service carried %d requests in rounds, harness completed %d (report %+v)",
			stats.Requests, rep.Completed, rep)
	}
}

// stuckMaster blocks every round until released: the serving queue fills,
// and the open loop must observe 503-class shedding (not failures).
type stuckMaster struct {
	release chan struct{}
}

func (m *stuckMaster) Name() string { return "stuck" }
func (m *stuckMaster) RunRound(ctx context.Context, key string, input []field.Elem, iter int) (*cluster.RoundOutput, error) {
	b, err := m.RunRoundBatch(ctx, key, [][]field.Elem{input}, iter)
	if err != nil {
		return nil, err
	}
	return b.Round(0), nil
}
func (m *stuckMaster) RunRoundBatch(_ context.Context, _ string, inputs [][]field.Elem, _ int) (*cluster.BatchOutput, error) {
	<-m.release
	out := &cluster.BatchOutput{Outputs: make([][]field.Elem, len(inputs))}
	copy(out.Outputs, inputs)
	return out, nil
}
func (m *stuckMaster) FinishIteration(int) (float64, bool) { return 0, false }
func (m *stuckMaster) SetExecutor(cluster.Executor)        {}
func (m *stuckMaster) Workers() []*cluster.Worker          { return nil }
func (m *stuckMaster) IndependentRounds() bool             { return false }

func TestRunObservesShedLoadUnderOverload(t *testing.T) {
	sm := &stuckMaster{release: make(chan struct{})}
	svc := scheme.NewService(sm, scheme.ServiceConfig{MaxBatch: 1, MaxPending: 2})
	// The master stays wedged for the whole offered-load window, then
	// unsticks so the few admitted requests complete rather than time out.
	go func() {
		time.Sleep(250 * time.Millisecond)
		close(sm.release)
	}()
	rep, err := Run(context.Background(), ServiceTarget{Svc: svc}, Config{
		Rate: 300, Duration: 200 * time.Millisecond, Cols: 4, Seed: 5,
		Timeout: 5 * time.Second,
	})
	svc.Close(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Overloaded == 0 {
		t.Fatalf("wedged service shed nothing across %d arrivals", rep.Offered)
	}
	if rep.Failed != 0 {
		t.Fatalf("shed load misclassified as failure: %+v", rep)
	}
}
