package rpccluster

import (
	"context"
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
