package cluster

import (
	"context"
	"sync"
	"time"
)

// sinkKey carries a round's acceptance state on the ctx its executor runs
// under, so the hand-over survives any decorator that forwards ctx.
type sinkKey struct{}

// deliver hands one landed result to the driver running the round ctx belongs
// to; without a driver (an executor called directly) it does nothing.
func deliver(ctx context.Context, res *Result) {
	if a, ok := ctx.Value(sinkKey{}).(*acceptance); ok {
		a.handed++
		a.accept(res)
	}
}

// lose tells the driver that worker will not answer this round for a reason
// of its own — crash, drop, timeout, transport failure — rather than because
// the round was stopped.
func lose(ctx context.Context, worker int) {
	if a, ok := ctx.Value(sinkKey{}).(*acceptance); ok {
		a.lost = append(a.lost, worker)
	}
}

// Arrivals is the executor's side of a round on the wall clock: the calls of
// one RunRound report here from whatever goroutine learns their outcome —
// their own (Go), or a connection's read loop (Land) — each result is stamped,
// recorded and handed to the driver under one lock (so hand-over order is
// arrival order is slice order), and Wait returns as soon as the round is
// stopped. Every asked worker must be reported exactly once: by Go for a call
// made on a goroutine of its own, by Land for a result the executor received
// itself, and by Miss for a worker the executor gives up on.
type Arrivals struct {
	ctx   context.Context
	start time.Time
	done  chan struct{} // closed when every asked worker has reported

	mu      sync.Mutex
	results []Result
	left    int
	closed  bool
}

// NewArrivals opens the record of a round that asks `asked` workers; the
// round's clock starts now.
func NewArrivals(ctx context.Context, asked int) *Arrivals {
	a := &Arrivals{
		ctx: ctx, start: time.Now(), done: make(chan struct{}),
		results: make([]Result, 0, asked), left: asked,
	}
	if asked == 0 {
		close(a.done)
	}
	return a
}

// Go makes one worker's call on its own goroutine and reports its outcome,
// from this one place: the result, if call returns one, as arrived now; the
// worker as missing if it returns none — of its own doing if the round was
// still live when the call ended.
func (a *Arrivals) Go(worker int, call func() (Result, bool)) {
	go func() {
		if res, ok := call(); ok {
			a.Land(res)
		} else {
			a.miss(worker, a.ctx.Err() == nil)
		}
	}()
}

// Land records res as arrived now, hands it to the driver and reports true. A
// result landing after Wait has returned is discarded, and Land reports
// false: its Output then still belongs to the caller, which must release it
// if it is a recycled vector.
func (a *Arrivals) Land(res Result) bool {
	// Stamped before queueing for the lock, so time spent behind the driver's
	// check of an earlier arrival is not charged to this one; never earlier
	// than the arrival recorded before it.
	res.ArriveAt = time.Since(a.start).Seconds()
	a.mu.Lock()
	defer a.mu.Unlock()
	kept := !a.closed
	if kept {
		if n := len(a.results); n > 0 {
			res.ArriveAt = max(res.ArriveAt, a.results[n-1].ArriveAt)
		}
		a.results = append(a.results, res)
		deliver(a.ctx, &a.results[len(a.results)-1])
	}
	a.reported()
	return kept
}

// Miss reports a worker the executor gives up on without calling it, or whose
// call it has seen fail: while the round is live that is the worker's own
// failure and the driver is told. Once the round's ctx is done a call that
// ends without a result was abandoned, which says nothing about the worker.
func (a *Arrivals) Miss(worker int) { a.miss(worker, a.ctx.Err() == nil) }

// miss counts worker off; own says it failed on its own, as judged when its
// call ended rather than after the wait for the lock.
func (a *Arrivals) miss(worker int, own bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if own && !a.closed {
		lose(a.ctx, worker)
	}
	a.reported()
}

// reported counts one asked worker off. Callers hold a.mu.
func (a *Arrivals) reported() {
	if a.left--; a.left == 0 {
		close(a.done)
	}
}

// Wait blocks until every asked worker has reported or the round's ctx is
// done, whichever is first, and returns what has landed, in arrival order.
// It joins no call: after it returns nothing more is recorded or handed over.
func (a *Arrivals) Wait() []Result {
	select {
	case <-a.done:
	case <-a.ctx.Done():
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.closed = true
	return a.results
}
