// Package cluster provides the distributed-execution substrate: worker
// state (coded shards + adversarial behaviour) and executors that run one
// protocol round across all workers and deliver results in arrival order.
//
// Two executors are provided:
//
//   - VirtualExecutor: workers compute for real, arrival times come from the
//     simnet latency model. Deterministic given a seed; powers every
//     experiment (see DESIGN.md on the testbed substitution).
//   - GoExecutor: workers are goroutines, times are wall-clock, straggling
//     is injected as sleeps. Used by examples and the integration tests
//     that exercise real concurrency.
//
// Driver (driver.go) runs the one round sequence against the Executor
// interface, so the same protocol logic runs on either; the scheme masters
// (internal/avcc, internal/gavcc, internal/baseline) plug a Policy into it.
package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/attack"
	"repro/internal/field"
	"repro/internal/fieldmat"
	"repro/internal/simnet"
)

// Op is the polynomial computation a worker applies to its coded shard.
// The default is the matrix-vector product of the logistic-regression
// rounds (deg f = 1); Generalized AVCC (paper Section IV-B) plugs in
// higher-degree polynomials such as the Gram computation f(X) = X·Xᵀ
// (deg f = 2), which Lagrange coding decodes and Freivalds-style checks
// verify.
type Op interface {
	// Apply computes f on the shard (input is the broadcast operand;
	// degree-only-in-X computations may ignore it). It returns the
	// flattened result and the honest multiply-accumulate count.
	//
	// The returned vector belongs to the caller, and the op must not retain
	// it: it is neither the input nor shard data, and the op keeps no
	// reference to it. A framed worker recycles it (field.PutVec) once the
	// response carrying it is written.
	Apply(f *field.Field, shard *fieldmat.Matrix, input []field.Elem) (out []field.Elem, ops float64, err error)
	// Degree returns deg f for recovery-threshold accounting.
	Degree() int
}

// MatVecOp is the default degree-1 operation y = X̃·input. Its output comes
// from field.GetVec, so a framed worker that recycles its responses computes
// into the same vectors round after round.
type MatVecOp struct{}

// Apply implements Op.
func (MatVecOp) Apply(f *field.Field, shard *fieldmat.Matrix, input []field.Elem) ([]field.Elem, float64, error) {
	if len(input) != shard.Cols {
		return nil, 0, fmt.Errorf("cluster: matvec expects input length %d, got %d", shard.Cols, len(input))
	}
	out := field.GetVec(shard.Rows)
	fieldmat.MatVecInto(f, out, shard, input)
	return out, float64(shard.Rows) * float64(shard.Cols), nil
}

// Degree implements Op.
func (MatVecOp) Degree() int { return 1 }

// BatchOp is the optional interface of operations that can compute a whole
// batch of packed inputs in one pass (input i at input[i*per : (i+1)*per],
// output i at out[i*rows : (i+1)*rows]). Ops without it are applied once per
// batch entry by Worker.Compute. The returned vector is owned as Op.Apply's
// is: the caller's, never retained by the op.
type BatchOp interface {
	ApplyBatch(f *field.Field, shard *fieldmat.Matrix, input []field.Elem, batch int) (out []field.Elem, ops float64, err error)
}

// ApplyBatch implements BatchOp: batch stacked matrix-vector products
// Y = X̃·[w_1 … w_B] as one panel product (fieldmat.MatVecBatchInto), which
// multiplies each packed shard row into four inputs at a time; batch 1 is
// Apply's MatVecInto. Output i is at out[i*Rows : (i+1)*Rows].
func (MatVecOp) ApplyBatch(f *field.Field, shard *fieldmat.Matrix, input []field.Elem, batch int) ([]field.Elem, float64, error) {
	if batch < 1 || len(input) != batch*shard.Cols {
		return nil, 0, fmt.Errorf("cluster: batched matvec expects %d x %d inputs, got length %d",
			batch, shard.Cols, len(input))
	}
	out := field.GetVec(batch * shard.Rows)
	fieldmat.MatVecBatchInto(f, out, shard, input, batch)
	return out, float64(batch) * float64(shard.Rows) * float64(shard.Cols), nil
}

// GramOp is the degree-2 operation G = X̃·X̃ᵀ, flattened row-major. The
// broadcast input is ignored.
type GramOp struct{}

// Apply implements Op.
func (GramOp) Apply(f *field.Field, shard *fieldmat.Matrix, _ []field.Elem) ([]field.Elem, float64, error) {
	g := fieldmat.MatMul(f, shard, shard.Transpose())
	ops := float64(shard.Rows) * float64(shard.Rows) * float64(shard.Cols)
	return g.Data, ops, nil
}

// Degree implements Op.
func (GramOp) Degree() int { return 2 }

// Worker holds a node's coded shards, keyed by round name (the logistic-
// regression protocol uses "fwd" for X̃ and "bwd" for the transposed-shard
// X̃'), plus the behaviour that decides what it actually sends. Ops maps a
// round key to a non-default operation; absent keys use MatVecOp.
type Worker struct {
	ID int
	// Shards are replaced, never mutated in place after first use: Compute
	// packs each shard into 32-bit rows on its first use (fieldmat.Pack) and
	// reuses that copy for as long as the key holds the same *Matrix, so a
	// write into a shard's Data would not reach the packed rows. Installing a
	// new matrix under the key (a re-code) repacks.
	Shards   map[string]*fieldmat.Matrix
	Ops      map[string]Op
	Behavior attack.Behavior

	// packMu guards packed, the packed view of each key's current shard;
	// Compute runs concurrently under the framed and goroutine executors.
	packMu sync.Mutex
	packed map[string]packedShard
}

// packedShard is one cached packed view and the shard it was packed from.
type packedShard struct {
	src, view *fieldmat.Matrix
}

// NewWorker returns an honest worker with no shards.
func NewWorker(id int) *Worker {
	return &Worker{
		ID:       id,
		Shards:   make(map[string]*fieldmat.Matrix),
		Ops:      make(map[string]Op),
		Behavior: attack.Honest{},
	}
}

// packedView returns the packed view of shard, the matrix Shards[key] holds,
// packing it on its first use. The cache entry is tied to the shard pointer:
// a different matrix under the same key is packed afresh.
//
//avcc:noalloc
func (w *Worker) packedView(f *field.Field, key string, shard *fieldmat.Matrix) *fieldmat.Matrix {
	w.packMu.Lock()
	defer w.packMu.Unlock()
	if p, ok := w.packed[key]; ok && p.src == shard {
		return p.view
	}
	if w.packed == nil {
		w.packed = make(map[string]packedShard) //avcc:alloc-ok first use of a worker only
	}
	view := fieldmat.Pack(f, shard) //avcc:alloc-ok first use of a shard only; every later round hits the cache
	w.packed[key] = packedShard{src: shard, view: view}
	return view
}

// op resolves the operation for a round key.
func (w *Worker) op(key string) Op {
	if o, ok := w.Ops[key]; ok && o != nil {
		return o
	}
	return MatVecOp{}
}

// Compute performs the worker's coded computation f(X̃) for the given round
// key and passes it through the worker's behaviour. The returned ops count
// is the honest computation's multiply-accumulate count — Byzantine workers
// burn the same time; sending garbage is not faster.
//
// batch > 1 means input packs that many equal-length vectors (a batched
// round); the op computes all of them in one pass — natively when it
// implements BatchOp, otherwise entry by entry — and the packed result goes
// through the behaviour once, as one message. batch <= 0 is treated as 1.
//
// The op receives the shard's packed view (see Shards), so every worker
// matvec, on every executor, streams 32-bit rows; the view keeps Data, so
// ops that read it directly (GramOp, custom ops) see the same matrix.
func (w *Worker) Compute(f *field.Field, key string, input []field.Elem, batch, iter int) (out []field.Elem, ops float64, err error) {
	shard, ok := w.Shards[key]
	if !ok {
		return nil, 0, fmt.Errorf("cluster: worker %d has no shard %q", w.ID, key)
	}
	shard = w.packedView(f, key, shard)
	op := w.op(key)
	var honest []field.Elem
	if batch <= 1 {
		honest, ops, err = op.Apply(f, shard, input)
	} else if bop, ok := op.(BatchOp); ok {
		honest, ops, err = bop.ApplyBatch(f, shard, input, batch)
	} else if len(input)%batch != 0 {
		err = fmt.Errorf("cluster: packed input length %d not divisible by batch %d", len(input), batch)
	} else {
		per := len(input) / batch
		for i := 0; i < batch; i++ {
			part, partOps, perr := op.Apply(f, shard, input[i*per:(i+1)*per])
			if perr != nil {
				err = perr
				break
			}
			honest = append(honest, part...)
			ops += partOps
		}
	}
	if err != nil {
		return nil, 0, fmt.Errorf("cluster: worker %d shard %q: %w", w.ID, key, err)
	}
	return w.Behavior.Apply(f, iter, honest), ops, nil
}

// Result is one worker's response to a round, with its timing breakdown.
//
// Output belongs to whoever the executor returns the result to. Recycled says
// that it is a field.GetVec vector the executor read the response into: the
// driver puts it back (field.PutVec) once the round's decode, receipt and
// Observe are done, so no policy, issuer or caller may keep it past the
// round. The flag travels with the result, so it survives any decorator that
// forwards RunRound's results.
type Result struct {
	Worker int
	Output []field.Elem
	// Recycled marks an Output the driver releases when the round is done.
	Recycled bool
	// ComputeSec is the worker's compute time (virtual or measured).
	ComputeSec float64
	// CommSec is the total link time (input broadcast + result return).
	CommSec float64
	// ArriveAt is when the master can first see this result, measured in
	// seconds from the round start.
	ArriveAt float64
	// Err carries worker-side failures (missing shard etc.).
	Err error
}

// Executor runs one round across the given active workers. batch is the
// number of equal-length vectors packed into input (1 for a plain round);
// every worker computes the whole batch in one pass and returns one packed
// result. The contract, which the Driver relies on to finish a round at its
// threshold-th good arrival instead of its slowest worker:
//
//   - Hand each result over as it lands. An executor whose results land over
//     time reports them through an Arrivals opened on ctx, which passes each
//     one to the driver the moment it is recorded; the driver cancels ctx as
//     soon as the round is decided.
//   - Return once ctx is done — or every worker has answered or failed —
//     with everything that has landed, in arrival order. Do not wait for
//     calls still out.
//   - Nothing is handed over after RunRound has returned; a late result is
//     discarded.
//   - Nothing reads input after RunRound has returned: the driver recycles a
//     batched round's packed input once the round is done.
//   - A worker with no result is an omission, exactly the erasure the codes
//     absorb: crashed, dropped, timed out, unreachable — which the executor
//     reports as the worker's own failure (Arrivals.Miss while ctx is live) —
//     or merely cancelled with the round, which says nothing about the worker.
//     A cancelled call is never a Result.Err; Err is for a worker that
//     answered with a failure.
//
// ctx also carries the caller's cancellation; the master turns that into its
// round error. Every executor in the tree hands over — the virtual one too, in
// one go once everything has landed in virtual time. The driver still accepts,
// once each and in slice order, results it first sees in the returned slice,
// but only so that an executor written without the hand-over (a test fake)
// cannot have a result skipped or taken twice; such a round is never stopped
// early.
//
// How early a dead worker is known lost depends on the platform. On Linux,
// rpccluster.FrameExecutor asks the kernel for each connection's TCP state as
// it fans out, so a worker whose peer closed or reset before the round began
// is Missed before anyone answers. Elsewhere that check always passes and a
// dead peer is found out only by its connection's read loop: a round that
// fans out before the read loop notices sends the call anyway, and the
// worker is Missed when the read loop fails it — or, if the round is decided
// first, is merely left pending, which says nothing about the worker.
type Executor interface {
	RunRound(ctx context.Context, key string, input []field.Elem, batch, iter int, active []int) []Result
}

// VirtualExecutor computes results eagerly and timestamps them with the
// simnet model. It is deterministic given its seed.
type VirtualExecutor struct {
	F          *field.Field
	Cfg        simnet.Config
	Workers    []*Worker
	Stragglers attack.StragglerSchedule
	Rng        *rand.Rand
	// Dynamics overlays time-varying environment state (per-worker rate
	// curves, link degradation, crashes, drops); nil means the steady
	// world.
	Dynamics simnet.Dynamics
}

// NewVirtualExecutor wires up a virtual cluster. stragglers may be nil for
// a straggler-free environment.
func NewVirtualExecutor(f *field.Field, cfg simnet.Config, workers []*Worker, stragglers attack.StragglerSchedule, seed int64) *VirtualExecutor {
	if stragglers == nil {
		stragglers = attack.NoStragglers{}
	}
	return &VirtualExecutor{
		F: f, Cfg: cfg, Workers: workers, Stragglers: stragglers,
		Rng: rand.New(rand.NewSource(seed)),
	}
}

// RunRound implements Executor in virtual time. Crashed workers are skipped
// outright; dropped results enter the event queue (the loss happens at what
// would have been the arrival instant) but are filtered out of the returned
// results, so both read as erasures to the master. The hand-over is the same
// one Arrivals makes, minus the lock and the clock: each result goes to the
// driver in virtual arrival order, and because everything has landed before
// the first one is handed over, nobody is merely un-awaited — a crashed or
// dropped worker is reported lost. Cancelling ctx stops the eager per-worker
// computation early; already-computed results still drain in arrival order
// (the master surfaces the cancellation itself).
func (e *VirtualExecutor) RunRound(ctx context.Context, key string, input []field.Elem, batch, iter int, active []int) []Result {
	dyn := e.Dynamics
	q := simnet.NewQueue()
	var dropped map[int]bool
	for _, id := range active {
		if ctx.Err() != nil {
			break
		}
		if dyn != nil && dyn.Crashed(id, iter) {
			lose(ctx, id)
			continue
		}
		w := e.Workers[id]
		out, ops, err := w.Compute(e.F, key, input, batch, iter)
		sendIn := e.Cfg.CommTime(len(input))
		var compute, sendOut float64
		if err == nil {
			compute = e.Cfg.ComputeTime(ops, e.Stragglers.IsStraggler(id, iter), e.Rng)
			sendOut = e.Cfg.CommTime(len(out))
		}
		if dyn != nil {
			compute *= dyn.ComputeFactor(id, iter)
			link := dyn.LinkFactor(id, iter)
			sendIn *= link
			sendOut *= link
			if dyn.Dropped(id, iter) {
				if dropped == nil {
					dropped = make(map[int]bool)
				}
				dropped[id] = true
				out = nil
			}
		}
		res := Result{
			Worker:     id,
			Output:     out,
			ComputeSec: compute,
			CommSec:    sendIn + sendOut,
			ArriveAt:   sendIn + compute + sendOut,
			Err:        err,
		}
		q.Push(res.ArriveAt, id, res)
	}
	results := make([]Result, 0, len(active))
	for {
		a, ok := q.Pop()
		if !ok {
			break
		}
		if dropped[a.Worker] {
			lose(ctx, a.Worker) // the loss event: the message vanishes at arrival time
			continue
		}
		results = append(results, a.Payload.(Result))
		deliver(ctx, &results[len(results)-1])
	}
	return results
}

// GoExecutor runs workers as goroutines with wall-clock timing. Straggling
// workers sleep for StragglerDelay before responding; scenario slowdowns
// and link degradation sleep proportionally (StragglerDelay x (factor-1)
// each), so StragglerDelay is the executor's unit of slowness.
type GoExecutor struct {
	F              *field.Field
	Workers        []*Worker
	Stragglers     attack.StragglerSchedule
	StragglerDelay time.Duration
	// Dynamics overlays time-varying environment state; nil means the
	// steady world. Crashed workers spawn no goroutine; dropped results are
	// computed but never delivered.
	Dynamics simnet.Dynamics
}

// RunRound implements Executor with real concurrency: results are handed over
// and ordered by actual completion time, and the round returns as soon as ctx
// is done and no worker is still computing — the workers are the master's own
// objects, which it may re-shard before the next round, so a computation is
// never left running behind the round. What is abandoned is the injected
// slowness: a straggler still sleeping leaves without answering.
func (e *GoExecutor) RunRound(ctx context.Context, key string, input []field.Elem, batch, iter int, active []int) []Result {
	// The round works on a copy of the configuration: a sleeping straggler's
	// goroutine may outlive it.
	run := *e
	if run.Stragglers == nil {
		run.Stragglers = attack.NoStragglers{}
	}
	arr := NewArrivals(ctx, len(active))
	var computing sync.WaitGroup
	for _, id := range active {
		if run.Dynamics != nil && run.Dynamics.Crashed(id, iter) {
			arr.Miss(id)
			continue
		}
		computing.Add(1)
		arr.Go(id, func() (Result, bool) {
			return run.work(ctx, &computing, key, input, batch, iter, id)
		})
	}
	results := arr.Wait()
	computing.Wait()
	return results
}

// work is one worker's part of a round: its computation, which the round
// joins through computing, then its injected slowness, which ctx cuts short.
// ok is false when the worker has nothing to deliver.
func (e *GoExecutor) work(ctx context.Context, computing *sync.WaitGroup, key string, input []field.Elem, batch, iter, id int) (res Result, ok bool) {
	t0 := time.Now()
	var out []field.Elem
	var err error
	stopped := ctx.Err() != nil // before this worker got to run
	if !stopped {
		out, _, err = e.Workers[id].Compute(e.F, key, input, batch, iter)
	}
	computing.Done()
	if stopped {
		return Result{}, false
	}
	if e.Stragglers.IsStraggler(id, iter) && !sleepCtx(ctx, e.StragglerDelay) {
		return Result{}, false
	}
	if dyn := e.Dynamics; dyn != nil {
		// Compute slowdown and link degradation both stretch this worker's
		// wall time; StragglerDelay is the unit for each.
		slow := (dyn.ComputeFactor(id, iter) - 1) + (dyn.LinkFactor(id, iter) - 1)
		if slow > 0 && !sleepCtx(ctx, time.Duration(float64(e.StragglerDelay)*slow)) {
			return Result{}, false
		}
		if dyn.Dropped(id, iter) {
			return Result{}, false // computed, but the message never arrives
		}
	}
	return Result{
		Worker:     id,
		Output:     out,
		ComputeSec: time.Since(t0).Seconds(),
		Err:        err,
	}, true
}

// sleepCtx sleeps for d, returning false early if ctx is cancelled first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
