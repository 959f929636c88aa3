package rpccluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/field"
	"repro/internal/fieldmat"
	"repro/internal/scheme"
)

// wedgeServer accepts connections and reads (discarding) forever without
// ever replying — the pathological endpoint that would pin every abandoned
// call if giving up did not reap its pending entry.
func wedgeServer(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				io.Copy(io.Discard, conn)
			}()
		}
	}()
	t.Cleanup(func() { l.Close() })
	return l.Addr().String()
}

func heapInuse() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// waitGoroutines polls until the goroutine count drops to at most want, or
// fails after two seconds. Abandoned calls spin up per-call goroutines; all
// of them must wind down once the calls are reaped.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Logf("%s", buf[:runtime.Stack(buf, true)])
			t.Fatalf("%d goroutines still alive, want at most %d", n, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

const (
	soakRounds    = 32
	soakElems     = 128 << 10 // 1 MiB per round's input
	soakLeakFloor = 16 << 20  // half of what leaking every round would pin
)

// TestFrameExecutorReapsAbandonedCalls fires rounds at a wedged server with a
// short call deadline. A caller that gives up deletes its pending entry
// immediately, so the count is verifiably zero after every round — the 1 MiB
// inputs are never pinned — and heap and goroutine counts return to baseline.
func TestFrameExecutorReapsAbandonedCalls(t *testing.T) {
	addr := wedgeServer(t)
	exec, err := DialFrames([]string{addr}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(exec.Close)
	exec.Timeout = 10 * time.Millisecond

	rng := rand.New(rand.NewSource(301))
	baseHeap := heapInuse()
	baseGo := runtime.NumGoroutine()
	for i := 0; i < soakRounds; i++ {
		in := f.RandVec(rng, soakElems)
		if res := exec.RunRound(context.Background(), "fwd", in, 1, i, []int{0}); len(res) != 0 {
			t.Fatalf("round %d: wedged server produced %d results", i, len(res))
		}
		if n := exec.pendingCalls(); n != 0 {
			t.Fatalf("round %d: %d calls still pending after the round ended", i, n)
		}
	}
	waitGoroutines(t, baseGo+2)
	if grew := int64(heapInuse()) - int64(baseHeap); grew > soakLeakFloor {
		t.Fatalf("heap grew %d bytes across the soak: abandoned calls are pinned", grew)
	}
}

// neverReadServer accepts connections and then leaves them alone: it never
// reads, so once the socket buffers fill a frame write to it blocks — the peer
// whose kernel is alive but whose process is not. stop severs what it holds.
func neverReadServer(t *testing.T) (addr string, stop func()) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var held []net.Conn
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, conn)
			mu.Unlock()
		}
	}()
	stop = func() {
		l.Close()
		<-done
		mu.Lock()
		defer mu.Unlock()
		for _, conn := range held {
			conn.Close()
		}
		held = nil
	}
	t.Cleanup(stop)
	return l.Addr().String(), stop
}

// TestFrameWriteBoundedByCallDeadline: once the never-reading peer's buffers
// are full the connection's writer blocks in a frame write, and it is the
// call deadline — not a reader, not Close — that must end it. Calls go out
// one at a time, each queued only once the writer has taken the one before,
// so every write starts well inside its own 50 ms deadline. The peer neither
// reads nor closes, so the connection can only go down through a write that
// hit its deadline; when it does, every call pending on it is missed and
// nothing stays pending.
func TestFrameWriteBoundedByCallDeadline(t *testing.T) {
	addr, _ := neverReadServer(t)
	c := newFrameConn(addr)
	t.Cleanup(c.close)
	if err := c.dial(); err != nil {
		t.Fatal(err)
	}
	tail := newRequestTail("fwd", 1, 0, make([]field.Elem, soakElems))
	defer tail.release()
	arr := cluster.NewArrivals(context.Background(), 256)
	queued := func() int {
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(c.wq) // 0 once the connection is down, too
	}
	finished := make(chan error, 1)
	go func() {
		for id := uint64(1); id <= 256; id++ {
			for queued() > 0 {
				time.Sleep(time.Millisecond)
			}
			if !c.up() {
				finished <- nil // a write hit its deadline and severed the connection
				return
			}
			err := c.send(context.Background(), arr, id, 0, tail, time.Now().Add(50*time.Millisecond))
			if errors.Is(err, errConnFailed) {
				finished <- nil
				return
			}
			if err != nil {
				finished <- fmt.Errorf("call %d: %v", id, err)
				return
			}
		}
		finished <- errors.New("256 MiB written to a peer that never reads")
	}()
	select {
	case err := <-finished:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("a frame write to a peer that does not read outlived its call deadline")
	}
	if n := c.pendingCount(); n != 0 {
		t.Fatalf("%d pending entries after the write failed", n)
	}
}

// TestRoundsFlowPastAPeerThatStopsReading puts a never-reading peer among
// twelve endpoints and pushes 1 MiB inputs at it: the frame write to that peer
// blocks once its buffers are full. The write is bounded by the call deadline,
// and a round never joins a call still out, so rounds keep completing from the
// other eleven, leave nothing pending, and everything unwinds at Close.
func TestRoundsFlowPastAPeerThatStopsReading(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	x := fieldmat.Rand(f, rng, 9, soakElems)
	master, err := scheme.New("static-vcc", f, scheme.NewConfig(
		scheme.WithCoding(12, 9),
		scheme.WithBudgets(1, 1, 0),
		scheme.WithSeed(46),
	), map[string]*fieldmat.Matrix{"fwd": x}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A product this size starts fieldmat's process-wide kernel pool; start it
	// before counting goroutines.
	fieldmat.MatVec(f, x, f.RandVec(rng, soakElems))
	baseGo := runtime.NumGoroutine()
	_, addrs, closers := startServers(t, 11, func(workers []*cluster.Worker) {
		for i := range workers {
			workers[i].Shards["fwd"] = master.Workers()[i].Shards["fwd"]
		}
	})
	deaf, stopDeaf := neverReadServer(t)
	exec, err := DialFrames(append(addrs, deaf), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(exec.Close)
	exec.Timeout = 2 * time.Second // roomy: eleven 1 MiB calls under -race on two cores
	master.SetExecutor(exec)

	in := f.RandVec(rng, soakElems)
	want := fieldmat.MatVec(f, x, in)
	baseHeap := heapInuse()
	finished := make(chan error, 1)
	go func() {
		// 16 MiB at the deaf peer: more than loopback's socket buffers hold.
		for i := 0; i < soakRounds/2; i++ {
			out, err := master.RunRound(context.Background(), "fwd", in, i)
			switch {
			case err != nil:
				finished <- fmt.Errorf("round %d: %w", i, err)
				return
			case !field.EqualVec(out.Decoded, want):
				finished <- fmt.Errorf("round %d decoded wrong", i)
				return
			case exec.pendingCalls() != 0:
				finished <- fmt.Errorf("round %d: %d calls still pending after the round ended", i, exec.pendingCalls())
				return
			}
		}
		finished <- nil
	}()
	select {
	case err := <-finished:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("rounds stopped flowing: a call is wedged in a frame write to the peer that does not read")
	}
	exec.Close()
	for _, closeServer := range closers {
		closeServer()
	}
	stopDeaf()
	waitGoroutines(t, baseGo)
	if grew := int64(heapInuse()) - int64(baseHeap); grew > soakLeakFloor {
		t.Fatalf("heap grew %d bytes across the soak: blocked writes pin their rounds' inputs", grew)
	}
}

// adjustableStall is a stall whose delay can be changed mid-test under a
// lock: the worker is fully configured BEFORE its server starts (server
// handler goroutines read worker state with no synchronisation of their
// own), and the mutex gives the later delay change a happens-before edge.
type adjustableStall struct {
	mu    sync.Mutex
	delay time.Duration
}

func (s *adjustableStall) Apply(_ *field.Field, _ int, honest []field.Elem) []field.Elem {
	s.mu.Lock()
	d := s.delay
	s.mu.Unlock()
	time.Sleep(d)
	return honest
}

func (s *adjustableStall) Name() string { return "adjustable-stall" }

func (s *adjustableStall) set(d time.Duration) {
	s.mu.Lock()
	s.delay = d
	s.mu.Unlock()
}

// TestFrameExecutorDiscardsLateReplies wedges a server that eventually DOES
// answer, after the caller has long given up: the late frames must be
// discarded by request-ID mismatch (the entries were reaped), never
// delivered to a later call, and never accumulate.
func TestFrameExecutorDiscardsLateReplies(t *testing.T) {
	rng := rand.New(rand.NewSource(302))
	w := cluster.NewWorker(0)
	shard := fieldmat.Rand(f, rng, 2, 4)
	w.Shards["fwd"] = shard
	slow := &adjustableStall{delay: 300 * time.Millisecond}
	w.Behavior = slow
	srv, err := ServeFrames("127.0.0.1:0", f, w)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	fe, err := DialFrames([]string{srv.Addr}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fe.Close)
	fe.Timeout = 20 * time.Millisecond

	in := f.RandVec(rng, 4)
	for i := 0; i < 3; i++ {
		if res := fe.RunRound(context.Background(), "fwd", in, 1, i, []int{0}); len(res) != 0 {
			t.Fatalf("round %d beat a 300ms stall with a 20ms deadline", i)
		}
		if n := fe.pendingCalls(); n != 0 {
			t.Fatalf("round %d left %d pending entries", i, n)
		}
	}
	// Let the stalled replies land; the read loop must drop them silently
	// and the connection must remain usable for a fresh, healthy round.
	time.Sleep(400 * time.Millisecond)
	slow.set(0)
	fe.Timeout = 5 * time.Second
	res := fe.RunRound(context.Background(), "fwd", in, 1, 9, []int{0})
	if len(res) != 1 || res[0].Err != nil {
		t.Fatalf("connection unusable after late replies: results %+v", res)
	}
	if !field.EqualVec(res[0].Output, fieldmat.MatVec(f, shard, in)) {
		t.Fatal("a late reply was delivered to the wrong call")
	}
}

// gate blocks a worker's computation of one iteration until it is opened.
type gate struct {
	iter int
	open chan struct{}
}

func (g gate) Apply(_ *field.Field, iter int, honest []field.Elem) []field.Elem {
	if iter == g.iter {
		<-g.open
	}
	return honest
}

func (gate) Name() string { return "gate" }

// TestBlockedRequestDoesNotDelayTheNextOnItsConnection: a worker whose
// computation of one request blocks still answers its next request on the
// same connection — each request has a handler of its own while the blocked
// one holds its — and every handler is gone once the server closes.
func TestBlockedRequestDoesNotDelayTheNextOnItsConnection(t *testing.T) {
	rng := rand.New(rand.NewSource(304))
	baseGo := runtime.NumGoroutine()
	w := cluster.NewWorker(0)
	shard := fieldmat.Rand(f, rng, 3, 4)
	w.Shards["fwd"] = shard
	g := gate{iter: 0, open: make(chan struct{})}
	w.Behavior = g
	srv, err := ServeFrames("127.0.0.1:0", f, w)
	if err != nil {
		t.Fatal(err)
	}
	exec, err := DialFrames([]string{srv.Addr}, nil)
	if err != nil {
		t.Fatal(err)
	}
	exec.Timeout = 30 * time.Second
	in := f.RandVec(rng, 4)

	ctx, cancel := context.WithCancel(context.Background())
	blocked := make(chan []cluster.Result, 1)
	go func() { blocked <- exec.RunRound(ctx, "fwd", in, 1, 0, []int{0}) }()
	for i := 1; i <= 3; i++ {
		start := time.Now()
		res := exec.RunRound(context.Background(), "fwd", in, 1, i, []int{0})
		if len(res) != 1 || res[0].Err != nil || !field.EqualVec(res[0].Output, fieldmat.MatVec(f, shard, in)) {
			t.Fatalf("round %d behind the blocked request: %+v", i, res)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("round %d took %v behind the blocked request", i, elapsed)
		}
	}
	cancel()
	if res := <-blocked; len(res) != 0 {
		t.Fatalf("the blocked round, cancelled, returned %+v", res)
	}
	if n := exec.pendingCalls(); n != 0 {
		t.Fatalf("%d calls pending after the rounds ended", n)
	}
	close(g.open)
	exec.Close()
	srv.Close()
	waitGoroutines(t, baseGo)
}

// TestFullWriteQueueCostsOnlyItsWorker: a connection whose writer is wedged
// behind a peer that does not read, and whose write queue is full, costs its
// worker each round — missed at once, not after the call deadline — and
// never the round, which decodes from the other eleven and leaves nothing
// pending.
func TestFullWriteQueueCostsOnlyItsWorker(t *testing.T) {
	rng := rand.New(rand.NewSource(305))
	x := fieldmat.Rand(f, rng, 36, 8)
	master, err := scheme.New("static-vcc", f, scheme.NewConfig(
		scheme.WithCoding(12, 9),
		scheme.WithBudgets(1, 1, 0),
		scheme.WithSeed(47),
	), map[string]*fieldmat.Matrix{"fwd": x}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	baseGo := runtime.NumGoroutine()
	_, addrs, closers := startServers(t, 11, func(workers []*cluster.Worker) {
		for i := range workers {
			workers[i].Shards["fwd"] = master.Workers()[i].Shards["fwd"]
		}
	})
	deaf, stopDeaf := neverReadServer(t)
	exec, err := DialFrames(append(addrs, deaf), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(exec.Close)
	exec.Timeout = 10 * time.Second
	master.SetExecutor(exec)

	// Wedge the deaf connection's writer in a 16 MiB write with no deadline —
	// far more than a peer that never reads lets through (its receive window
	// never grows; on Linux loopback a write blocks after about 5 MiB) —
	// then fill its queue. The wedging and filling calls are reaped: only
	// the full queue is left.
	dc := exec.conns[11]
	own := cluster.NewArrivals(context.Background(), 0)
	id := uint64(1) << 62
	big := newRequestTail("fwd", 1, 0, make([]field.Elem, 2<<20))
	if err := dc.send(context.Background(), own, id, 11, big, time.Time{}); err != nil {
		t.Fatal(err)
	}
	big.release()
	for {
		dc.mu.Lock()
		taken := len(dc.wq) == 0
		dc.mu.Unlock()
		if taken {
			break
		}
		time.Sleep(time.Millisecond)
	}
	// Let the writer find the call still pending and start the write, which
	// the reap below then no longer stops.
	time.Sleep(100 * time.Millisecond)
	filler := newRequestTail("fwd", 1, 0, []field.Elem{1})
	for {
		id++
		err := dc.send(context.Background(), own, id, 11, filler, time.Time{})
		if errors.Is(err, errQueueFull) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	filler.release()
	for ; id >= 1<<62; id-- {
		dc.reap(id)
	}

	in := f.RandVec(rng, x.Cols)
	want := fieldmat.MatVec(f, x, in)
	active := make([]int, 12)
	for i := range active {
		active[i] = i
	}
	for i := 0; i < 4; i++ {
		// Without a driver to stop it, the round runs until every worker has
		// reported: the deaf one must be missed as the round asks it.
		start := time.Now()
		res := exec.RunRound(context.Background(), "fwd", in, 1, i, active)
		if elapsed := time.Since(start); len(res) != 11 || elapsed > 5*time.Second {
			t.Fatalf("round %d: %d results after %v; want the other 11, well inside the 10s deadline", i, len(res), elapsed)
		}
		out, err := master.RunRound(context.Background(), "fwd", in, i)
		if err != nil || !field.EqualVec(out.Decoded, want) {
			t.Fatalf("round %d behind a full write queue: %v", i, err)
		}
		if n := exec.pendingCalls(); n != 0 {
			t.Fatalf("round %d: %d calls pending after the round ended", i, n)
		}
	}
	exec.Close()
	for _, closeServer := range closers {
		closeServer()
	}
	stopDeaf()
	waitGoroutines(t, baseGo)
}

// TestLateResponsesAreReleased: responses that land after their round has
// ended — 512 KiB each, the largest vector the pools recycle, from a worker
// slower than the call deadline — are never delivered, and the read loop
// gives their vectors back: the next late response is read into the one the
// last released, so the soak allocates a few vectors' worth, not one per
// round, and the heap returns to baseline.
func TestLateResponsesAreReleased(t *testing.T) {
	rng := rand.New(rand.NewSource(306))
	w := cluster.NewWorker(0)
	shard := fieldmat.Rand(f, rng, field.MaxPooledVec, 1)
	w.Shards["fwd"] = shard
	slow := &adjustableStall{delay: 30 * time.Millisecond}
	w.Behavior = slow
	srv, err := ServeFrames("127.0.0.1:0", f, w)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	exec, err := DialFrames([]string{srv.Addr}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(exec.Close)
	in := f.RandVec(rng, 1)
	want := fieldmat.MatVec(f, shard, in)
	exec.Timeout = 5 * time.Second
	if res := exec.RunRound(context.Background(), "fwd", in, 1, 0, []int{0}); len(res) != 1 {
		t.Fatalf("warm-up round: %+v", res) // packs the shard and fills the pools
	}

	exec.Timeout = 5 * time.Millisecond
	baseHeap := heapInuse()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < soakRounds; i++ {
		if res := exec.RunRound(context.Background(), "fwd", in, 1, i, []int{0}); len(res) != 0 {
			t.Fatalf("round %d beat a 30ms stall with a 5ms deadline", i)
		}
		if n := exec.pendingCalls(); n != 0 {
			t.Fatalf("round %d: %d calls pending after the round ended", i, n)
		}
		time.Sleep(40 * time.Millisecond) // the late response lands, alone
	}
	runtime.ReadMemStats(&after)
	slow.set(0)
	exec.Timeout = 5 * time.Second
	res := exec.RunRound(context.Background(), "fwd", in, 1, soakRounds, []int{0})
	if len(res) != 1 || !field.EqualVec(res[0].Output, want) {
		t.Fatal("a late response was delivered to a later round")
	}
	if grew := int64(heapInuse()) - int64(baseHeap); grew > soakLeakFloor {
		t.Fatalf("heap grew %d bytes across the soak: late responses are pinned", grew)
	}
	if raceEnabled {
		return // the race detector makes sync.Pool drop vectors on purpose
	}
	const vecBytes = field.MaxPooledVec * 8
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 8*vecBytes {
		t.Fatalf("%d bytes allocated for %d late %d-byte responses: the read loop does not release them", alloc, soakRounds, vecBytes)
	}
}
