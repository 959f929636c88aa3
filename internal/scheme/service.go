// Service: the multi-tenant serving layer over any registered scheme.
//
// The round API (Master.RunRound) is one caller, one vector, one coded
// round. Serving heavy traffic needs the opposite shape: many concurrent
// callers issuing small solves against ONE shared coded deployment. Service
// bridges the two with a coalescing queue — concurrent Submits for the same
// round key are packed into one batched round (Master.RunRoundBatch: one
// broadcast, one compute pass per worker, one stacked verification, one
// decode), which PR 3's blocked kernels make nearly as cheap as a
// single-vector round. Callers get a Future; tenants get isolated metrics;
// the process gets graceful drain.
package scheme

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/field"
	"repro/internal/metrics"
	"repro/internal/shard"
)

// ErrServiceClosed rejects Submits after Close began; in-flight and queued
// requests still complete (graceful drain).
var ErrServiceClosed = errors.New("scheme: service closed")

// ErrQueueFull rejects Submits while MaxPending requests are already
// queued: fail fast at admission instead of letting latency grow unbounded.
var ErrQueueFull = errors.New("scheme: service queue full")

// ErrInputLength rejects a request whose input length disagrees with the
// rest of its batch. Only the offending request fails — one client sending
// wrong-sized inputs must not fail the round its neighbours are riding.
var ErrInputLength = errors.New("scheme: input length differs from the round's batch")

// ErrNonCanonicalInput rejects a request with an input element ≥ q, alone:
// the kernels take canonical operands only. It is cluster's sentinel, so
// errors.Is matches the driver's refusal as well.
var ErrNonCanonicalInput = cluster.ErrNonCanonicalInput

// DefaultTenant is the tenant requests are accounted under when their
// context carries no WithTenant annotation.
const DefaultTenant = "default"

type tenantCtxKey struct{}

// WithTenant annotates ctx with the tenant a Submit should be accounted
// under. The serving layer is multi-tenant only in its accounting — all
// tenants share the one coded deployment; per-tenant quotas belong in a
// gateway above this API.
func WithTenant(ctx context.Context, tenant string) context.Context {
	return context.WithValue(ctx, tenantCtxKey{}, tenant)
}

// TenantFrom extracts the WithTenant annotation, or DefaultTenant.
func TenantFrom(ctx context.Context) string {
	if t, ok := ctx.Value(tenantCtxKey{}).(string); ok && t != "" {
		return t
	}
	return DefaultTenant
}

// ServiceConfig tunes the coalescing queue.
type ServiceConfig struct {
	// MaxBatch caps how many requests one coded round carries. <= 0 means
	// DefaultMaxBatch.
	MaxBatch int
	// MaxLinger is how long a partly filled round is held open, counted
	// from its first request's arrival, once another request is already
	// queued. A full batch dispatches immediately, and so does a request
	// that is alone in the queue; 0 means DefaultMaxLinger; negative
	// disables lingering (every dispatch takes whatever is queued right
	// now).
	MaxLinger time.Duration
	// MaxPending bounds the admission queue; Submit fails fast with
	// ErrQueueFull beyond it. <= 0 means DefaultMaxPending.
	MaxPending int
	// AuditReceipts makes the dispatcher verify every round receipt the
	// master issues (one Verify per round, shared by the batch) and record
	// the verdict in the per-tenant receipt counters. Auditing is
	// observability only: a failing receipt is counted, not withheld — the
	// receipt itself is the tenant's evidence.
	AuditReceipts bool
}

// Defaults for ServiceConfig's zero values.
const (
	DefaultMaxBatch   = 32
	DefaultMaxLinger  = 500 * time.Microsecond
	DefaultMaxPending = 4096
)

func (c ServiceConfig) maxBatch() int {
	if c.MaxBatch <= 0 {
		return DefaultMaxBatch
	}
	return c.MaxBatch
}

func (c ServiceConfig) maxLinger() time.Duration {
	if c.MaxLinger == 0 {
		return DefaultMaxLinger
	}
	if c.MaxLinger < 0 {
		return 0
	}
	return c.MaxLinger
}

func (c ServiceConfig) maxPending() int {
	if c.MaxPending <= 0 {
		return DefaultMaxPending
	}
	return c.MaxPending
}

// Future is the handle Submit returns. Wait blocks until the request's
// round decoded (or failed), or until ctx ends — the computation itself is
// not cancelled by abandoning the Future; its result is simply discarded.
type Future struct {
	done chan struct{}
	out  *cluster.RoundOutput
	err  error
}

func newFuture() *Future { return &Future{done: make(chan struct{})} }

func (fu *Future) resolve(out *cluster.RoundOutput, err error) {
	fu.out, fu.err = out, err
	close(fu.done)
}

// Done is closed when the result is available.
func (fu *Future) Done() <-chan struct{} { return fu.done }

// Wait returns the decoded round output for this request. The output's
// accounting slices (Used, Byzantine) are shared with the whole batch:
// treat them as read-only.
func (fu *Future) Wait(ctx context.Context) (*cluster.RoundOutput, error) {
	select {
	case <-fu.done:
		return fu.out, fu.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// request is one queued Submit.
type request struct {
	ctx      context.Context
	tenant   string
	key      string
	input    []field.Elem
	fu       *Future
	enqueued time.Time
}

// tenantCounters is the mutable per-tenant accounting (guarded by
// Service.mu except the histogram, which locks itself).
type tenantCounters struct {
	submitted uint64
	completed uint64
	failed    uint64
	rejected  uint64
	receipts  metrics.ReceiptCounters
	latency   *metrics.Histogram
}

// TenantStats is a point-in-time view of one tenant's traffic.
type TenantStats struct {
	Tenant    string
	Submitted uint64
	Completed uint64
	Failed    uint64
	Rejected  uint64
	// Receipts counts the tenant's committed-verification receipts (issued
	// with its outputs; verified/failed when the service audits them).
	Receipts metrics.ReceiptCounters
	// Latency is the Submit→resolve wall latency distribution.
	Latency metrics.HistogramSnapshot
}

// ServiceStats is a point-in-time view of the whole service.
type ServiceStats struct {
	// Rounds is how many coded rounds the dispatcher ran; Requests how
	// many submits they carried. Requests/Rounds is the realised batching
	// factor.
	Rounds   uint64
	Requests uint64
	// Recodes counts dynamic re-codings the underlying master performed
	// between rounds (AVCC adapting to serving-time churn).
	Recodes uint64
	// Tenants is sorted by tenant name.
	Tenants []TenantStats
}

// roundsInFlight is how many rounds a Service keeps in flight when its
// master declares its rounds independent: one on the wire while the next
// fills. Two is measured against one only; a third slot measured no
// different on the saturated benchmark, whose backlog fills two rounds
// (DESIGN.md §8).
const roundsInFlight = 2

// Service coalesces concurrent Submits into batched rounds on one master.
// Create with NewService, submit with Submit, retire with Close.
type Service struct {
	master Master
	cfg    ServiceConfig
	// slots is how many rounds may be in flight at once: roundsInFlight when
	// the master's rounds are independent, else 1 (the serial dispatcher).
	slots int
	// q is the master's field modulus, against which Submit checks every
	// input; 0 when the master reports no field (test fakes).
	q uint64
	// elastic is non-nil when master is a shard-plane fleet: after every
	// successful round the dispatcher feeds it the live load signal (queue
	// depth) so the fleet can rebalance or autoscale.
	elastic Elastic

	mu    sync.Mutex
	queue []*request
	// pending counts queued requests per round key so the linger loop can
	// poll batch fullness in O(1) instead of rescanning the queue.
	pending map[string]int
	closed  bool
	iter    int
	// inFlight counts the rounds started and not yet resolved.
	inFlight int
	rounds   uint64
	served   uint64
	recodes  uint64
	tenants  map[string]*tenantCounters

	wake chan struct{}
	done chan struct{}
	// running tracks the round goroutines, so that Close drains them.
	running sync.WaitGroup
}

// NewService starts the dispatcher over master. The master must not be
// driven concurrently by anyone else while the service owns it. Its rounds
// and FinishIteration calls run one at a time, unless the master declares
// its rounds independent (IndependentRounds, read here once), in which case
// up to roundsInFlight rounds overlap, each finishing its own iteration.
func NewService(master Master, cfg ServiceConfig) *Service {
	slots := 1
	if master.IndependentRounds() {
		slots = roundsInFlight
	}
	s := &Service{
		master:  master,
		cfg:     cfg,
		slots:   slots,
		pending: make(map[string]int),
		tenants: make(map[string]*tenantCounters),
		wake:    make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	if fm, ok := master.(interface{ Field() *field.Field }); ok {
		if f := fm.Field(); f != nil {
			s.q = f.Q()
		}
	}
	s.elastic, _ = master.(Elastic)
	go s.dispatch()
	return s
}

// Submit enqueues one solve for the given round key. The returned Future
// never blocks the caller: admission errors (ErrServiceClosed,
// ErrQueueFull) surface through Wait. An input with an element ≥ q fails
// alone with ErrNonCanonicalInput (counted as failed), before it can join a
// batch. The request is accounted to TenantFrom(ctx); a ctx cancelled while
// the request is still queued drops it at dispatch time with ctx's error.
func (s *Service) Submit(ctx context.Context, key string, input []field.Elem) *Future {
	fu := newFuture()
	tenant := TenantFrom(ctx)
	canonical := s.q == 0 || field.Canonical(s.q, input)
	s.mu.Lock()
	tc := s.tenant(tenant)
	tc.submitted++
	switch {
	case !canonical:
		tc.failed++
		s.mu.Unlock()
		fu.resolve(nil, fmt.Errorf("%w (q = %d)", ErrNonCanonicalInput, s.q))
		return fu
	case s.closed:
		tc.rejected++
		s.mu.Unlock()
		fu.resolve(nil, ErrServiceClosed)
		return fu
	case len(s.queue) >= s.cfg.maxPending():
		tc.rejected++
		s.mu.Unlock()
		fu.resolve(nil, ErrQueueFull)
		return fu
	}
	s.queue = append(s.queue, &request{
		ctx: ctx, tenant: tenant, key: key, input: input,
		fu: fu, enqueued: time.Now(),
	})
	s.pending[key]++
	s.mu.Unlock()
	s.signal()
	return fu
}

// tenant returns the counters for name; callers hold s.mu.
func (s *Service) tenant(name string) *tenantCounters {
	tc, ok := s.tenants[name]
	if !ok {
		tc = &tenantCounters{latency: metrics.NewHistogram()}
		s.tenants[name] = tc
	}
	return tc
}

func (s *Service) signal() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// Close stops admission and drains: queued requests still run (in batched
// rounds, without lingering), then the dispatcher exits once every round in
// flight has resolved its futures. ctx bounds the
// wait; on expiry the dispatcher keeps draining in the background and
// ctx's error is returned.
func (s *Service) Close(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.signal()
	select {
	case <-s.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Pending reports how many requests currently sit in the admission queue
// (excluding any batch already handed to the dispatcher). Load shedders and
// tests use it to observe queue pressure without racing the dispatcher.
func (s *Service) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// Stats snapshots the service-wide and per-tenant accounting.
func (s *Service) Stats() ServiceStats {
	s.mu.Lock()
	stats := ServiceStats{Rounds: s.rounds, Requests: s.served, Recodes: s.recodes}
	type pair struct {
		name string
		tc   *tenantCounters
	}
	pairs := make([]pair, 0, len(s.tenants))
	for name, tc := range s.tenants {
		pairs = append(pairs, pair{name, tc})
	}
	counters := make([]TenantStats, len(pairs))
	for i, p := range pairs {
		counters[i] = TenantStats{
			Tenant:    p.name,
			Submitted: p.tc.submitted,
			Completed: p.tc.completed,
			Failed:    p.tc.failed,
			Rejected:  p.tc.rejected,
			Receipts:  p.tc.receipts,
		}
	}
	s.mu.Unlock()
	// Histogram snapshots take the histogram's own lock; do it outside mu.
	for i, p := range pairs {
		counters[i].Latency = p.tc.latency.Snapshot()
	}
	sort.Slice(counters, func(i, j int) bool { return counters[i].Tenant < counters[j].Tenant })
	stats.Tenants = counters
	return stats
}

// dispatch is the single dispatcher goroutine: it lingers until the oldest
// request's round fills (or times out), packs the longest same-key run of
// the queue into one batched round, and hands it to a goroutine that
// resolves the futures. It starts filling the next round only while a slot
// is free, so with one slot the rounds run strictly one after another.
func (s *Service) dispatch() {
	defer close(s.done)
	defer s.running.Wait()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 || s.inFlight >= s.slots {
			if len(s.queue) == 0 && s.closed {
				s.mu.Unlock()
				return
			}
			s.mu.Unlock()
			<-s.wake
			s.mu.Lock()
		}
		head := s.queue[0]
		s.mu.Unlock()

		s.linger(head)
		batch := s.take(head.key)
		if len(batch) == 0 {
			continue
		}
		s.mu.Lock()
		iter := s.iter
		s.iter++
		s.inFlight++
		s.mu.Unlock()
		s.running.Add(1)
		go func() {
			defer s.running.Done()
			s.runBatch(batch, iter)
			s.mu.Lock()
			s.inFlight--
			s.mu.Unlock()
			s.signal()
		}()
	}
}

// linger waits until head's round is full, the linger deadline passed, or
// the service is draining. A head that is the only queued request, with no
// round in flight, dispatches at once: nothing else can fill its round, and
// holding it open only adds its linger to that request's latency. Once a
// second request is queued — or a round is in flight, whose requests will
// queue again as it resolves — the round waits for MaxBatch or the deadline.
func (s *Service) linger(head *request) {
	maxLinger := s.cfg.maxLinger()
	deadline := head.enqueued.Add(maxLinger)
	for {
		s.mu.Lock()
		n := s.pending[head.key]
		alone := len(s.queue) == 1 && s.inFlight == 0
		closed := s.closed
		s.mu.Unlock()
		if n >= s.cfg.maxBatch() || alone || closed || maxLinger <= 0 {
			return
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return
		}
		t := time.NewTimer(remain)
		select {
		case <-s.wake:
			t.Stop()
		case <-t.C:
		}
	}
}

// take removes up to MaxBatch requests with the given key from the queue
// (in arrival order), dropping any whose context already ended and evicting
// any whose input length disagrees with the batch head's — a batched round
// needs equal-length inputs, and one client's wrong-sized request must fail
// alone, not take down the round its neighbours are riding.
func (s *Service) take(key string) []*request {
	max := s.cfg.maxBatch()
	s.mu.Lock()
	taken := make([]*request, 0, max)
	rest := s.queue[:0]
	for _, r := range s.queue {
		if r.key == key && len(taken) < max {
			taken = append(taken, r)
		} else {
			rest = append(rest, r)
		}
	}
	for i := len(rest); i < len(s.queue); i++ {
		s.queue[i] = nil // let dropped entries collect
	}
	s.queue = rest
	if n := s.pending[key] - len(taken); n > 0 {
		s.pending[key] = n
	} else {
		delete(s.pending, key)
	}
	s.mu.Unlock()

	live := taken[:0]
	for _, r := range taken {
		if err := r.ctx.Err(); err != nil {
			s.finish(r, nil, fmt.Errorf("scheme: request cancelled while queued: %w", err))
			continue
		}
		if len(live) > 0 && len(r.input) != len(live[0].input) {
			s.finish(r, nil, fmt.Errorf("%w: got %d elements, the round's batch has %d",
				ErrInputLength, len(r.input), len(live[0].input)))
			continue
		}
		live = append(live, r)
	}
	return live
}

// runBatch executes one coded round over the batch as iteration iter,
// finishes that iteration, and resolves every future. The round runs under
// the service's own (background) context: a single caller abandoning its
// request must not cancel the shared round.
func (s *Service) runBatch(batch []*request, iter int) {
	inputs := make([][]field.Elem, len(batch))
	for i, r := range batch {
		inputs[i] = r.input
	}

	out, err := s.master.RunRoundBatch(context.Background(), batch[0].key, inputs, iter)
	var recoded bool
	if err == nil {
		// Adapt only on rounds that actually completed. A failed round's
		// observations are partial — a cancellation or transport collapse
		// looks like "every worker straggled" — and feeding them to the
		// adaptive controller used to shrink K (or quarantine workers) on
		// evidence the round never produced. The failure is reported to the
		// callers; the coding geometry stays as it was.
		_, recoded = s.master.FinishIteration(iter)
		if s.elastic != nil {
			s.mu.Lock()
			depth := len(s.queue)
			s.mu.Unlock()
			// A failed topology change rolls back and is recorded in the
			// master's RebalanceStatus().LastError; serving continues on the
			// previous plan, so there is nothing for the dispatcher to do
			// with the error here.
			_, _ = s.elastic.Tick(shard.LoadSignal{QueueDepth: depth})
		}
	}

	s.mu.Lock()
	s.rounds++
	s.served += uint64(len(batch))
	if recoded {
		s.recodes++
	}
	s.mu.Unlock()

	if err != nil {
		for _, r := range batch {
			s.finish(r, nil, err)
		}
		return
	}
	if out.Receipt != nil {
		var auditErr error
		if s.cfg.AuditReceipts {
			// One Verify covers the whole batch — the receipt is per-round.
			auditErr = out.Receipt.Verify()
		}
		s.mu.Lock()
		for _, r := range batch {
			rc := &s.tenant(r.tenant).receipts
			rc.Issued++
			if s.cfg.AuditReceipts {
				if auditErr == nil {
					rc.Verified++
				} else {
					rc.Failed++
				}
			}
		}
		s.mu.Unlock()
	}
	for i, r := range batch {
		s.finish(r, out.Round(i), nil)
	}
}

// finish resolves one request and records its accounting.
func (s *Service) finish(r *request, out *cluster.RoundOutput, err error) {
	elapsed := time.Since(r.enqueued).Seconds()
	s.mu.Lock()
	tc := s.tenant(r.tenant)
	if err != nil {
		tc.failed++
	} else {
		tc.completed++
	}
	latency := tc.latency
	s.mu.Unlock()
	latency.Observe(elapsed)
	r.fu.resolve(out, err)
}
