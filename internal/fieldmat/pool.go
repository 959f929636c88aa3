package fieldmat

// Persistent worker pool and pooled scratch for the matrix kernels.
//
// The seed spawned runtime.NumCPU() goroutines per MatMul/MatVec call; at
// the paper's round rate (every worker of every scheme does a shard matvec
// per iteration) that is thousands of goroutine start/stops per simulated
// second. The pool below starts GOMAXPROCS workers once and feeds them
// row-range tasks through a channel; tasks and their WaitGroups come from
// sync.Pools, so a steady-state kernel call performs zero heap allocations
// (verified by TestKernelsDoNotAllocate and the committed BENCH_kernels.json
// allocs/op column).
//
// Tasks never submit sub-tasks, so the pool cannot deadlock on itself: every
// task runs straight-line kernel code over its row range.
//
// The pool splits a call only when the call is alone. A call that starts
// while another dispatch is in flight runs its whole range on its caller's
// goroutine: its callers are already parallel (a framed server's
// concurrent requests, twelve in-process workers of one round), so a split
// would add two hand-offs and a queue in front of the pool and no
// parallelism. The pool exists for the lone callers, which have idle cores
// to spread over: single-caller set-up (the LCC encoder's combination,
// Freivalds keygen, the receipt commitment) and a remote worker process
// serving one request at a time.

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/field"
)

// ParallelThreshold is the minimum number of elements a kernel call must
// touch before the work is split across the pool: below it the channel
// handoff (~1µs per task) costs more than the arithmetic saves. 2^14
// multiply-adds is a few microseconds of single-core work at the lazy
// kernels' throughput, which is where fan-out starts to win on commodity
// core counts; TestParallelThresholdBoundary pins bit-exactness on both
// sides of the cut. MatVec counts rows·cols, MatMul counts the elements of
// both operands.
const ParallelThreshold = 1 << 14

// task is one index range of a kernel call — rows, columns or FusedTile
// tiles, as the kernel defines it. run is always a static function (no
// captured state) so tasks are reusable and allocation-free; the slots cover
// the union of what the kernels need.
type task struct {
	run           func(*task)
	f             *field.Field
	a, b, c       *Matrix
	x, y          []field.Elem
	dsts, w, srcs [][]field.Elem
	lo, hi        int
	batch         int
	wg            *sync.WaitGroup
}

var (
	poolOnce  sync.Once
	poolTasks chan *task
	poolSize  int

	// inFlight counts the dispatch calls under way, inline ones included.
	inFlight atomic.Int32

	taskPool = sync.Pool{New: func() any { return new(task) }}
	wgPool   = sync.Pool{New: func() any { return new(sync.WaitGroup) }}
)

// ensurePool starts the workers on first use, sized from GOMAXPROCS (the
// scheduler's actual parallelism budget) rather than NumCPU.
func ensurePool() {
	poolOnce.Do(func() {
		poolSize = runtime.GOMAXPROCS(0)
		if poolSize < 1 {
			poolSize = 1
		}
		poolTasks = make(chan *task, 4*poolSize)
		for w := 0; w < poolSize; w++ {
			go func() {
				for t := range poolTasks {
					t.run(t)
					wg := t.wg
					*t = task{} // drop references before pooling
					taskPool.Put(t)
					wg.Done()
				}
			}()
		}
	})
}

// dispatch splits [0, n) into one contiguous block per pool worker, each
// cut on a multiple of grain (the last ends at n), and blocks until all
// blocks complete. The MatVec kernels cut on row blocks of four (rowGrain):
// the masked kernel starts a task only on a block, and the dense row-block
// kernels leave no rows of a task's middle to the one-row kernel. A call
// that starts while another dispatch is in flight, and a call with one
// block to give (one grain of work, or one pool worker), runs [0, n) as one
// task on its caller's goroutine instead: no kernel's reduction depends on
// the cut, so the result is the same bit for bit. proto supplies the kernel
// and operands; it is copied into pooled tasks, never retained. Safe for
// concurrent use from many goroutines (a framed server runs one matvec per
// request at once).
func dispatch(n, grain int, proto *task) {
	ensurePool()
	workers := min(poolSize, (n+grain-1)/grain)
	alone := inFlight.Add(1) == 1
	defer inFlight.Add(-1)
	if workers <= 1 || !alone {
		// Run inline, but still through a pooled copy: passing proto itself
		// into the indirect call would make it escape and cost the callers
		// their zero-allocation guarantee.
		t := taskPool.Get().(*task)
		*t = *proto
		t.lo, t.hi = 0, n
		t.run(t)
		*t = task{}
		taskPool.Put(t)
		return
	}
	wg := wgPool.Get().(*sync.WaitGroup)
	per := ((n+workers-1)/workers + grain - 1) / grain * grain
	for lo := 0; lo < n; lo += per {
		hi := min(lo+per, n)
		t := taskPool.Get().(*task)
		*t = *proto
		t.lo, t.hi = lo, hi
		t.wg = wg
		wg.Add(1)
		poolTasks <- t
	}
	wg.Wait()
	wgPool.Put(wg)
}

// accBuf wraps a reusable uint64 accumulator row. The resting invariant —
// every pooled backing array is all-zero — holds because the kernels only
// dirty acc[0:len) and always FlushAcc (which re-zeroes) before putAcc, so
// getAcc never needs to clear.
type accBuf struct{ s []uint64 }

var accPool = sync.Pool{New: func() any { return new(accBuf) }}

// getAcc returns a zeroed accumulator row of length n.
//
//avcc:noalloc
func getAcc(n int) *accBuf {
	b := accPool.Get().(*accBuf)
	if cap(b.s) < n {
		b.s = make([]uint64, n) //avcc:alloc-ok pool-miss refill: first use per size class only
	}
	b.s = b.s[:n]
	return b
}

// putAcc returns a row to the pool. The caller must have flushed it (all
// entries zero) — see accBuf.
//
//avcc:noalloc
func putAcc(b *accBuf) { accPool.Put(b) }
