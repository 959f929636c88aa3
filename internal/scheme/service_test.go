package scheme

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/avcc"
	"repro/internal/cluster"
	"repro/internal/field"
	"repro/internal/fieldmat"
	"repro/internal/scenario"
)

// echoMaster is a scriptable Master for queue-behaviour tests: every batch
// entry resolves to its own input, rounds can be made to block, and batch
// sizes are recorded. Its rounds are serial unless independent is set, so
// the batch-sequence assertions below test the serial dispatch rule.
type echoMaster struct {
	mu          sync.Mutex
	batches     []int
	finishes    int           // FinishIteration calls observed
	gate        chan struct{} // non-nil: every round waits for one receive
	started     chan struct{} // non-nil: signalled when a round begins
	independent bool          // IndependentRounds' answer
}

func (m *echoMaster) Name() string { return "echo" }

func (m *echoMaster) RunRound(ctx context.Context, key string, input []field.Elem, iter int) (*cluster.RoundOutput, error) {
	b, err := m.RunRoundBatch(ctx, key, [][]field.Elem{input}, iter)
	if err != nil {
		return nil, err
	}
	return b.Round(0), nil
}

func (m *echoMaster) RunRoundBatch(_ context.Context, key string, inputs [][]field.Elem, _ int) (*cluster.BatchOutput, error) {
	if m.started != nil {
		m.started <- struct{}{}
	}
	if m.gate != nil {
		<-m.gate
	}
	if key == "fail" {
		return nil, fmt.Errorf("echo: round failed")
	}
	m.mu.Lock()
	m.batches = append(m.batches, len(inputs))
	m.mu.Unlock()
	out := &cluster.BatchOutput{Outputs: make([][]field.Elem, len(inputs))}
	copy(out.Outputs, inputs)
	return out, nil
}

func (m *echoMaster) FinishIteration(int) (float64, bool) {
	m.mu.Lock()
	m.finishes++
	m.mu.Unlock()
	return 0, false
}
func (m *echoMaster) SetExecutor(cluster.Executor) {}
func (m *echoMaster) Workers() []*cluster.Worker   { return nil }
func (m *echoMaster) IndependentRounds() bool      { return m.independent }

func (m *echoMaster) batchSizes() []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]int(nil), m.batches...)
}

func (m *echoMaster) finishCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.finishes
}

// heldMaster wraps a real master so that its first round waits until
// release is closed: requests submitted meanwhile queue up behind it, which
// is how the test below builds a backlog deterministically (a lone request
// dispatches at once, so near-simultaneous submits need not coalesce).
type heldMaster struct {
	Master
	once    sync.Once
	started chan struct{}
	release chan struct{}
}

func (m *heldMaster) RunRoundBatch(ctx context.Context, key string, inputs [][]field.Elem, iter int) (*cluster.BatchOutput, error) {
	m.once.Do(func() {
		close(m.started)
		<-m.release
	})
	return m.Master.RunRoundBatch(ctx, key, inputs, iter)
}

// TestServiceServesCorrectDecodes drives a real AVCC master through the
// service from many goroutines and checks every future decodes the exact
// product — the serving layer must be invisible to correctness — and that
// the backlog queued behind a held round coalesces into full batches.
func TestServiceServesCorrectDecodes(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	x := fieldmat.Rand(f, rng, 36, 10)
	m, err := New("avcc", f, NewConfig(WithSeed(31)), map[string]*fieldmat.Matrix{"fwd": x}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	held := &heldMaster{Master: m, started: make(chan struct{}), release: make(chan struct{})}
	const maxBatch = 8
	svc := NewService(held, ServiceConfig{MaxBatch: maxBatch, MaxLinger: 20 * time.Millisecond})
	defer svc.Close(context.Background())

	const requests = 24
	type job struct {
		in []field.Elem
		fu *Future
	}
	jobs := make([]job, requests)
	for i := range jobs {
		jobs[i].in = f.RandVec(rng, 10)
	}
	// The first request runs alone and is held; the rest queue behind it.
	jobs[0].fu = svc.Submit(context.Background(), "fwd", jobs[0].in)
	<-held.started
	var wg sync.WaitGroup
	for i := 1; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			jobs[i].fu = svc.Submit(context.Background(), "fwd", jobs[i].in)
		}(i)
	}
	wg.Wait()
	close(held.release)
	for i, j := range jobs {
		out, err := j.fu.Wait(context.Background())
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if !field.EqualVec(out.Decoded, fieldmat.MatVec(f, x, j.in)) {
			t.Fatalf("request %d decoded the wrong product", i)
		}
	}
	stats := svc.Stats()
	if stats.Requests != requests {
		t.Fatalf("stats counted %d requests, want %d", stats.Requests, requests)
	}
	if want := 1 + (requests-1+maxBatch-1)/maxBatch; stats.Rounds > uint64(want) {
		t.Fatalf("no coalescing: %d rounds for %d requests, want at most %d", stats.Rounds, requests, want)
	}
}

func TestServiceRespectsMaxBatch(t *testing.T) {
	em := &echoMaster{}
	svc := NewService(em, ServiceConfig{MaxBatch: 4, MaxLinger: 20 * time.Millisecond})
	defer svc.Close(context.Background())

	futures := make([]*Future, 10)
	for i := range futures {
		futures[i] = svc.Submit(context.Background(), "k", []field.Elem{field.Elem(i)})
	}
	for _, fu := range futures {
		if _, err := fu.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range em.batchSizes() {
		if b > 4 {
			t.Fatalf("round carried %d requests, MaxBatch is 4", b)
		}
	}
}

func TestServicePerTenantAccounting(t *testing.T) {
	em := &echoMaster{}
	svc := NewService(em, ServiceConfig{MaxBatch: 8, MaxLinger: time.Millisecond})
	defer svc.Close(context.Background())

	alice := WithTenant(context.Background(), "alice")
	bob := WithTenant(context.Background(), "bob")
	var fus []*Future
	for i := 0; i < 6; i++ {
		fus = append(fus, svc.Submit(alice, "k", []field.Elem{1}))
	}
	for i := 0; i < 3; i++ {
		fus = append(fus, svc.Submit(bob, "k", []field.Elem{2}))
	}
	for _, fu := range fus {
		if _, err := fu.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	byName := map[string]TenantStats{}
	for _, ts := range svc.Stats().Tenants {
		byName[ts.Tenant] = ts
	}
	a, b := byName["alice"], byName["bob"]
	if a.Submitted != 6 || a.Completed != 6 || a.Failed != 0 {
		t.Fatalf("alice stats %+v", a)
	}
	if b.Submitted != 3 || b.Completed != 3 {
		t.Fatalf("bob stats %+v", b)
	}
	if a.Latency.Count != 6 || b.Latency.Count != 3 {
		t.Fatalf("latency sample counts (%d, %d), want (6, 3)", a.Latency.Count, b.Latency.Count)
	}
	if a.Latency.P50 <= 0 || a.Latency.P99 < a.Latency.P50 {
		t.Fatalf("alice latency quantiles implausible: %+v", a.Latency)
	}
}

func TestServiceRoundErrorFailsTheWholeBatch(t *testing.T) {
	em := &echoMaster{}
	svc := NewService(em, ServiceConfig{MaxBatch: 4, MaxLinger: time.Millisecond})
	defer svc.Close(context.Background())

	fu1 := svc.Submit(context.Background(), "fail", []field.Elem{1})
	fu2 := svc.Submit(context.Background(), "fail", []field.Elem{2})
	for _, fu := range []*Future{fu1, fu2} {
		if _, err := fu.Wait(context.Background()); err == nil {
			t.Fatal("failed round resolved a future without error")
		}
	}
	for _, ts := range svc.Stats().Tenants {
		if ts.Tenant == DefaultTenant && ts.Failed != 2 {
			t.Fatalf("failed count %d, want 2", ts.Failed)
		}
	}
}

func TestServiceGracefulDrain(t *testing.T) {
	em := &echoMaster{gate: make(chan struct{}, 64), started: make(chan struct{}, 64)}
	svc := NewService(em, ServiceConfig{MaxBatch: 2, MaxLinger: time.Hour})

	// A priming round runs alone and blocks on the gate; four requests queue
	// behind it — three for "k", then one for another key.
	primed := svc.Submit(context.Background(), "k", []field.Elem{0})
	<-em.started
	fus := []*Future{
		svc.Submit(context.Background(), "k", []field.Elem{1}),
		svc.Submit(context.Background(), "k", []field.Elem{2}),
		svc.Submit(context.Background(), "k", []field.Elem{3}),
		svc.Submit(context.Background(), "j", []field.Elem{4}),
	}
	em.gate <- struct{}{}
	<-em.started // round 1 dispatched (full batch of 2 beat the linger)

	// Close begins the drain: admission stops immediately...
	closeDone := make(chan error, 1)
	go func() { closeDone <- svc.Close(context.Background()) }()
	for { // wait for Close to flip admission off before probing it
		svc.mu.Lock()
		closed := svc.closed
		svc.mu.Unlock()
		if closed {
			break
		}
		time.Sleep(time.Millisecond)
	}
	rejected := svc.Submit(context.Background(), "k", []field.Elem{5})
	if _, err := rejected.Wait(context.Background()); !errors.Is(err, ErrServiceClosed) {
		t.Fatalf("post-Close submit got %v, want ErrServiceClosed", err)
	}
	// ... but queued work still completes: round 1, then the drained round
	// for request 3 — which must NOT wait out the 1h linger, although request
	// 4 queued behind it means it is not alone — then request 4's round.
	for range 3 {
		em.gate <- struct{}{}
	}
	for i, fu := range append([]*Future{primed}, fus...) {
		if _, err := fu.Wait(context.Background()); err != nil {
			t.Fatalf("queued request %d failed during drain: %v", i, err)
		}
	}
	if err := <-closeDone; err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got, want := em.batchSizes(), []int{1, 2, 1, 1}; !slices.Equal(got, want) {
		t.Fatalf("rounds carried %v requests, want %v", got, want)
	}
}

func TestServiceCloseHonoursContext(t *testing.T) {
	em := &echoMaster{gate: make(chan struct{}), started: make(chan struct{}, 1)}
	svc := NewService(em, ServiceConfig{MaxBatch: 1})
	svc.Submit(context.Background(), "k", []field.Elem{1})
	<-em.started // the round is now blocked on the gate

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := svc.Close(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Close under a stuck round returned %v, want the context error", err)
	}
	close(em.gate) // release the round so the dispatcher exits
}

func TestServiceQueueFullRejectsFast(t *testing.T) {
	em := &echoMaster{gate: make(chan struct{}), started: make(chan struct{}, 1)}
	svc := NewService(em, ServiceConfig{MaxBatch: 1, MaxPending: 1})

	first := svc.Submit(context.Background(), "k", []field.Elem{1})
	<-em.started // dispatched (queue empty again), round blocked
	queued := svc.Submit(context.Background(), "k", []field.Elem{2})
	overflow := svc.Submit(context.Background(), "k", []field.Elem{3})
	if _, err := overflow.Wait(context.Background()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit got %v, want ErrQueueFull", err)
	}
	close(em.gate)
	for _, fu := range []*Future{first, queued} {
		if _, err := fu.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	svc.Close(context.Background())
}

func TestServiceDropsRequestsCancelledWhileQueued(t *testing.T) {
	em := &echoMaster{gate: make(chan struct{}), started: make(chan struct{}, 2)}
	svc := NewService(em, ServiceConfig{MaxBatch: 1})

	first := svc.Submit(context.Background(), "k", []field.Elem{1})
	<-em.started // round 1 blocked; anything submitted now queues behind it

	ctx, cancel := context.WithCancel(context.Background())
	doomed := svc.Submit(ctx, "k", []field.Elem{2})
	cancel()
	em.gate <- struct{}{} // release round 1

	if _, err := doomed.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled-while-queued request got %v, want context.Canceled", err)
	}
	if _, err := first.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	close(em.gate)
	svc.Close(context.Background())
}

// TestServiceDrivesAdaptation: the serving loop calls FinishIteration per
// round, so AVCC's dynamic re-coding keeps working under serving traffic.
type adaptingMaster struct {
	echoMaster
	recodes int
}

func (m *adaptingMaster) FinishIteration(int) (float64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.recodes++
	return 0, true
}

func TestServiceCountsRecodes(t *testing.T) {
	am := &adaptingMaster{}
	svc := NewService(am, ServiceConfig{MaxBatch: 1})
	fu := svc.Submit(context.Background(), "k", []field.Elem{1})
	if _, err := fu.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	svc.Close(context.Background())
	if got := svc.Stats().Recodes; got != 1 {
		t.Fatalf("stats recorded %d recodes, want 1", got)
	}
}

// TestServiceFailedRoundSkipsAdaptation is the regression for the serving
// loop feeding failed rounds to the adaptive controller: FinishIteration
// used to run unconditionally after every batch, failure included, so a
// transport collapse adapted the coding on observations the round never
// produced. A failed round must leave the controller untouched; a
// successful one still drives it.
func TestServiceFailedRoundSkipsAdaptation(t *testing.T) {
	em := &echoMaster{}
	svc := NewService(em, ServiceConfig{MaxBatch: 4, MaxLinger: time.Millisecond})
	defer svc.Close(context.Background())

	fu := svc.Submit(context.Background(), "fail", []field.Elem{1})
	if _, err := fu.Wait(context.Background()); err == nil {
		t.Fatal("failed round resolved without error")
	}
	if n := em.finishCount(); n != 0 {
		t.Fatalf("FinishIteration ran %d times for a failed round", n)
	}
	ok := svc.Submit(context.Background(), "k", []field.Elem{2})
	if _, err := ok.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := em.finishCount(); n != 1 {
		t.Fatalf("FinishIteration ran %d times after one successful round, want 1", n)
	}
}

// TestServiceFailedRoundDoesNotShrinkCoding drives the same regression
// through a real AVCC master: a round that fails because Byzantines exceed
// the verification budget must not shrink K or quarantine anyone — the
// round produced no decode, so there is nothing to adapt on — and the
// stranded observations must not poison the NEXT iteration's adaptation
// either.
func TestServiceFailedRoundDoesNotShrinkCoding(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	x := fieldmat.Rand(f, rng, 36, 10)
	m, err := New("avcc", f, NewConfig(WithCoding(12, 9), WithBudgets(1, 2, 0), WithSeed(33)),
		map[string]*fieldmat.Matrix{"fwd": x}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ad := m.(Adaptive)
	n0, k0 := ad.Coding()
	active0 := len(ad.ActiveWorkers())

	// Half the fleet lies: far beyond the M=2 budget, so verification finds
	// fewer than threshold-many honest results and the round errors out.
	lying := m.Workers()[:6]
	for _, w := range lying {
		w.Behavior = attack.Constant{V: 3}
	}
	svc := NewService(m, ServiceConfig{MaxBatch: 1})
	defer svc.Close(context.Background())

	in := f.RandVec(rng, 10)
	if _, err := svc.Submit(context.Background(), "fwd", in).Wait(context.Background()); err == nil {
		t.Fatal("a round with 6 Byzantines under an M=2 budget must fail")
	}
	if n, k := ad.Coding(); n != n0 || k != k0 {
		t.Fatalf("failed round re-coded (%d,%d) → (%d,%d)", n0, k0, n, k)
	}
	if got := len(ad.ActiveWorkers()); got != active0 {
		t.Fatalf("failed round quarantined workers: %d active, want %d", got, active0)
	}

	// The fleet heals; the next round must decode exactly — and the failed
	// round's stranded Byzantine observations must not get the now-honest
	// workers quarantined retroactively.
	for _, w := range lying {
		w.Behavior = attack.Honest{}
	}
	out, err := svc.Submit(context.Background(), "fwd", in).Wait(context.Background())
	if err != nil {
		t.Fatalf("healed round failed: %v", err)
	}
	if !field.EqualVec(out.Decoded, fieldmat.MatVec(f, x, in)) {
		t.Fatal("healed round decoded the wrong product")
	}
	if n, k := ad.Coding(); n != n0 || k != k0 {
		t.Fatalf("stale observations re-coded (%d,%d) → (%d,%d)", n0, k0, n, k)
	}
	if got := len(ad.ActiveWorkers()); got != active0 {
		t.Fatalf("stale observations quarantined workers: %d active, want %d", got, active0)
	}
}

func TestServiceEvictsWrongLengthRequestAlone(t *testing.T) {
	// One client's wrong-sized input must fail alone: the neighbours riding
	// the same coalesced round still decode. A held priming round makes all
	// three queue together, so good1 heads their batch.
	em := &echoMaster{gate: make(chan struct{}, 2), started: make(chan struct{}, 2)}
	svc := NewService(em, ServiceConfig{MaxBatch: 4, MaxLinger: 5 * time.Millisecond})
	defer svc.Close(context.Background())

	primed := svc.Submit(context.Background(), "k", []field.Elem{0, 0})
	<-em.started
	good1 := svc.Submit(context.Background(), "k", []field.Elem{1, 2})
	bad := svc.Submit(context.Background(), "k", []field.Elem{7})
	good2 := svc.Submit(context.Background(), "k", []field.Elem{3, 4})
	em.gate <- struct{}{}
	em.gate <- struct{}{}
	if _, err := bad.Wait(context.Background()); !errors.Is(err, ErrInputLength) {
		t.Fatalf("wrong-length request got %v, want ErrInputLength", err)
	}
	for i, fu := range []*Future{primed, good1, good2} {
		if _, err := fu.Wait(context.Background()); err != nil {
			t.Fatalf("well-formed request %d failed alongside the bad one: %v", i, err)
		}
	}
	if got, want := em.batchSizes(), []int{1, 2}; !slices.Equal(got, want) {
		t.Fatalf("rounds carried %v requests, want %v", got, want)
	}
}

// TestServiceLoneRequestDispatchesAtOnce: with nothing else queued, no
// second request can fill the round, so the head dispatches without
// waiting out MaxLinger.
func TestServiceLoneRequestDispatchesAtOnce(t *testing.T) {
	em := &echoMaster{}
	svc := NewService(em, ServiceConfig{MaxBatch: 4, MaxLinger: time.Hour})
	defer svc.Close(context.Background())

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := svc.Submit(context.Background(), "k", []field.Elem{1}).Wait(ctx); err != nil {
		t.Fatalf("a lone request under a 1h linger did not resolve: %v", err)
	}
}

// TestServiceBacklogRunsInFullBatches: a backlog queued behind a held
// round drains in MaxBatch-sized rounds; the held round itself ran alone.
func TestServiceBacklogRunsInFullBatches(t *testing.T) {
	em := &echoMaster{gate: make(chan struct{}, 3), started: make(chan struct{}, 3)}
	svc := NewService(em, ServiceConfig{MaxBatch: 4, MaxLinger: time.Hour})
	defer svc.Close(context.Background())

	fus := []*Future{svc.Submit(context.Background(), "k", []field.Elem{0})}
	<-em.started
	for i := 1; i <= 8; i++ {
		fus = append(fus, svc.Submit(context.Background(), "k", []field.Elem{field.Elem(i)}))
	}
	for range 3 {
		em.gate <- struct{}{}
	}
	for i, fu := range fus {
		out, err := fu.Wait(context.Background())
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if out.Decoded[0] != field.Elem(i) {
			t.Fatalf("request %d got %v", i, out.Decoded)
		}
	}
	if got, want := em.batchSizes(), []int{1, 4, 4}; !slices.Equal(got, want) {
		t.Fatalf("rounds carried %v requests, want %v", got, want)
	}
}

// TestServiceLingersOnceAnotherRequestIsQueued: the lone-request exit must
// not turn off batching. Two requests queued behind a held round are not
// alone, so their round waits for MaxBatch (or the 1h linger); two more
// submits fill it, and all four ride one round.
func TestServiceLingersOnceAnotherRequestIsQueued(t *testing.T) {
	em := &echoMaster{gate: make(chan struct{}, 2), started: make(chan struct{}, 2)}
	svc := NewService(em, ServiceConfig{MaxBatch: 4, MaxLinger: time.Hour})
	defer svc.Close(context.Background())

	fus := []*Future{svc.Submit(context.Background(), "k", []field.Elem{0})}
	<-em.started
	fus = append(fus,
		svc.Submit(context.Background(), "k", []field.Elem{1}),
		svc.Submit(context.Background(), "k", []field.Elem{2}))
	em.gate <- struct{}{}
	if _, err := fus[0].Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-em.started:
		t.Fatalf("a round of 2 started under a 1h linger with MaxBatch 4 (batches %v)", em.batchSizes())
	case <-time.After(50 * time.Millisecond):
	}
	fus = append(fus,
		svc.Submit(context.Background(), "k", []field.Elem{3}),
		svc.Submit(context.Background(), "k", []field.Elem{4}))
	<-em.started
	em.gate <- struct{}{}
	for i, fu := range fus {
		if _, err := fu.Wait(context.Background()); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if got, want := em.batchSizes(), []int{1, 4}; !slices.Equal(got, want) {
		t.Fatalf("rounds carried %v requests, want %v", got, want)
	}
}

// TestServiceKeepsTwoIndependentRoundsInFlight: a master whose rounds are
// independent gets a second round while the first is still out, and never
// a third.
func TestServiceKeepsTwoIndependentRoundsInFlight(t *testing.T) {
	em := &echoMaster{gate: make(chan struct{}), started: make(chan struct{}, 3), independent: true}
	svc := NewService(em, ServiceConfig{MaxBatch: 1, MaxLinger: time.Hour})
	defer svc.Close(context.Background())

	var fus []*Future
	for i := range 3 {
		fus = append(fus, svc.Submit(context.Background(), "k", []field.Elem{field.Elem(i)}))
	}
	for round := 1; round <= 2; round++ {
		select {
		case <-em.started:
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d did not start while round 1 was held", round)
		}
	}
	select {
	case <-em.started:
		t.Fatal("a third round started while two were in flight")
	case <-time.After(50 * time.Millisecond):
	}
	if n := svc.Pending(); n != 1 {
		t.Fatalf("%d requests queued behind the two rounds, want 1", n)
	}
	close(em.gate)
	for i, fu := range fus {
		out, err := fu.Wait(context.Background())
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if out.Decoded[0] != field.Elem(i) {
			t.Fatalf("request %d resolved to %v", i, out.Decoded)
		}
	}
	if n := em.finishCount(); n != 3 {
		t.Fatalf("FinishIteration ran %d times for 3 rounds", n)
	}
}

// overlapExecutor hides the virtual executor's type from the driver, which
// would then declare its rounds independent: only the master's own answer
// keeps them serial.
type overlapExecutor struct{ cluster.Executor }

// concurrencyMaster records the most RunRoundBatch calls ever in flight at
// once.
type concurrencyMaster struct {
	Master
	mu       sync.Mutex
	cur, max int
}

func (m *concurrencyMaster) RunRoundBatch(ctx context.Context, key string, inputs [][]field.Elem, iter int) (*cluster.BatchOutput, error) {
	m.mu.Lock()
	m.cur++
	m.max = max(m.max, m.cur)
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		m.cur--
		m.mu.Unlock()
	}()
	return m.Master.RunRoundBatch(ctx, key, inputs, iter)
}

// TestServiceNeverOverlapsAdaptiveRounds: dynamic AVCC reads every round's
// observations before the next, so the service keeps its rounds serial even
// on an executor the driver alone would overlap — and it still re-codes
// under churn, with every decode exact.
func TestServiceNeverOverlapsAdaptiveRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(conformanceSeed))
	x := fieldmat.Rand(f, rng, 720, 120)
	scn, err := scenario.Profile(scenario.Churn, 12, 9, conformanceSeed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := NewConfig(WithCoding(12, 9), WithBudgets(1, 1, 0), WithSim(conformanceSim()),
		WithSeed(conformanceSeed), WithScenario(scn))
	m, err := New("avcc", f, cfg, map[string]*fieldmat.Matrix{"fwd": x}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := scenario.NewEngine(scn)
	if err != nil {
		t.Fatal(err)
	}
	ve := cluster.NewVirtualExecutor(f, cfg.Sim, m.Workers(), nil, cfg.Seed+1)
	ve.Dynamics = eng
	m.SetExecutor(overlapExecutor{ve})
	if !m.(*avcc.Master).Driver.IndependentRounds() {
		t.Fatal("the driver should call rounds on this executor independent")
	}
	if m.IndependentRounds() {
		t.Fatal("dynamic avcc declared its rounds independent")
	}

	cm := &concurrencyMaster{Master: m}
	svc := NewService(cm, ServiceConfig{MaxBatch: 2, MaxLinger: time.Millisecond})
	defer svc.Close(context.Background())
	const clients, each = 4, 10
	var wg sync.WaitGroup
	errs := make(chan error, clients*each)
	for c := range clients {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for range each {
				in := f.RandVec(rng, x.Cols)
				out, err := svc.Submit(context.Background(), "fwd", in).Wait(context.Background())
				if err == nil && !field.EqualVec(out.Decoded, fieldmat.MatVec(f, x, in)) {
					err = errors.New("decode not bit-exact")
				}
				if err != nil {
					errs <- err
				}
			}
		}(int64(c))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if cm.max != 1 {
		t.Fatalf("%d adaptive rounds were in flight at once, want 1", cm.max)
	}
	if svc.Stats().Recodes == 0 {
		t.Fatal("no re-code under churn: the adaptive rule stopped running")
	}
}

// TestServiceCloseDrainsBothRounds: Close waits for both rounds in flight and
// the queue behind them, every future resolves exactly once, and every
// tenant's submissions are accounted as completed, failed or rejected.
func TestServiceCloseDrainsBothRounds(t *testing.T) {
	em := &echoMaster{gate: make(chan struct{}), started: make(chan struct{}, 64), independent: true}
	svc := NewService(em, ServiceConfig{MaxBatch: 2, MaxLinger: time.Hour})

	tenants := []string{"alice", "bob", "carol"}
	var fus []*Future
	submit := func(i int) {
		ctx := WithTenant(context.Background(), tenants[i%len(tenants)])
		key := "k"
		if i%4 == 3 {
			key = "fail"
		}
		fus = append(fus, svc.Submit(ctx, key, []field.Elem{field.Elem(i)}))
	}
	submit(0)
	<-em.started // round 1: alone, with no round in flight
	for i := 1; i < 12; i++ {
		submit(i)
	}
	<-em.started // round 2: the next full batch, beside round 1
	closed := make(chan error, 1)
	go func() { closed <- svc.Close(context.Background()) }()
	for {
		svc.mu.Lock()
		c := svc.closed
		svc.mu.Unlock()
		if c {
			break
		}
		time.Sleep(time.Millisecond)
	}
	submit(12) // rejected
	select {
	case err := <-closed:
		t.Fatalf("Close returned %v with two rounds held", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(em.gate)
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}

	resolved := make(map[string]*TenantStats)
	for _, name := range tenants {
		resolved[name] = &TenantStats{}
	}
	for i, fu := range fus {
		select {
		case <-fu.Done():
		default:
			t.Fatalf("request %d unresolved after Close", i)
		}
		_, err := fu.Wait(context.Background())
		ts := resolved[tenants[i%len(tenants)]]
		switch {
		case err == nil:
			ts.Completed++
		case errors.Is(err, ErrServiceClosed):
			ts.Rejected++
		default:
			ts.Failed++
		}
	}
	for _, ts := range svc.Stats().Tenants {
		want := resolved[ts.Tenant]
		if ts.Submitted != ts.Completed+ts.Failed+ts.Rejected {
			t.Errorf("%s: submitted %d != completed %d + failed %d + rejected %d",
				ts.Tenant, ts.Submitted, ts.Completed, ts.Failed, ts.Rejected)
		}
		if ts.Completed != want.Completed || ts.Failed != want.Failed || ts.Rejected != want.Rejected {
			t.Errorf("%s: counters %d/%d/%d, futures resolved %d/%d/%d (completed/failed/rejected)",
				ts.Tenant, ts.Completed, ts.Failed, ts.Rejected, want.Completed, want.Failed, want.Rejected)
		}
	}
}
