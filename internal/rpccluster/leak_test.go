package rpccluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
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
// are full the frame write itself blocks, and it is the call deadline — not a
// reader, not Close — that must end it.
func TestFrameWriteBoundedByCallDeadline(t *testing.T) {
	addr, _ := neverReadServer(t)
	c := newFrameConn(addr)
	t.Cleanup(c.close)
	if err := c.dial(); err != nil {
		t.Fatal(err)
	}
	tail := encodeRequestTail("fwd", 1, 0, make([]field.Elem, soakElems))
	finished := make(chan error, 1)
	go func() {
		for id := uint64(1); id <= 256; id++ {
			_, err := c.call(context.Background(), 50*time.Millisecond, id, 0, tail)
			if errors.Is(err, os.ErrDeadlineExceeded) {
				finished <- nil // the write hit the deadline
				return
			}
			if !errors.Is(err, errCallTimeout) {
				finished <- fmt.Errorf("call %d: %v, want a deadline", id, err)
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
