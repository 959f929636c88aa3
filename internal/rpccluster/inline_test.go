package rpccluster

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/field"
	"repro/internal/fieldmat"
)

// partWriteElems is an input (2 MiB) several times larger than the send
// buffer pinSendBuffer leaves a connection, so no single writev of its frame
// can go out whole, however fast the peer reads.
const partWriteElems = 256 << 10

// pinSendBuffer fixes c's socket send buffer at 64 KiB (the kernel doubles
// it), so how much of a frame one writev takes does not depend on the
// host's buffer autotuning.
func pinSendBuffer(t *testing.T, c *frameConn) {
	t.Helper()
	c.mu.Lock()
	conn := c.conn
	c.mu.Unlock()
	if err := conn.(*net.TCPConn).SetWriteBuffer(64 << 10); err != nil {
		t.Fatal(err)
	}
}

// writeCounts reads c's inlined and carried counts.
func writeCounts(c *frameConn) (inlined, carried int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inlined, c.carried
}

// TestPartWrittenFrameIsFinishedByTheWriter sends a frame the kernel cannot
// take in one writev, to a worker that reads it: the round's own write goes
// out in part, and the connection's writer must finish the frame, before
// anything later on the connection, for the worker to read a request at all.
// Two such rounds in a row on the same connection decode bit-exact while
// small rounds keep running on the other connections, and nothing is left
// pending.
func TestPartWrittenFrameIsFinishedByTheWriter(t *testing.T) {
	rng := rand.New(rand.NewSource(307))
	big := fieldmat.Rand(f, rng, 1, partWriteElems)
	small := fieldmat.Rand(f, rng, 3, 5)
	_, exec := startCluster(t, 3, func(workers []*cluster.Worker) {
		workers[0].Shards["big"] = big
		for _, w := range workers[1:] {
			w.Shards["small"] = small
		}
	})
	exec.Timeout = 20 * time.Second // roomy: a 2 MiB request under -race on two cores
	pinSendBuffer(t, exec.conns[0])

	stop := make(chan struct{})
	smallDone := make(chan error, 1)
	go func() {
		in := f.RandVec(rand.New(rand.NewSource(308)), small.Cols)
		want := fieldmat.MatVec(f, small, in)
		for i := 0; ; i++ {
			select {
			case <-stop:
				smallDone <- nil
				return
			default:
			}
			res := exec.RunRound(context.Background(), "small", in, 1, i, []int{1, 2})
			if len(res) != 2 {
				smallDone <- fmt.Errorf("small round %d: %d results", i, len(res))
				return
			}
			for _, r := range res {
				if r.Err != nil || !field.EqualVec(r.Output, want) {
					smallDone <- fmt.Errorf("small round %d: worker %d answered wrong (%v)", i, r.Worker, r.Err)
					return
				}
			}
		}
	}()
	for i := 0; i < 2; i++ {
		in := f.RandVec(rng, partWriteElems)
		res := exec.RunRound(context.Background(), "big", in, 1, i, []int{0})
		if len(res) != 1 || res[0].Err != nil || !field.EqualVec(res[0].Output, fieldmat.MatVec(f, big, in)) {
			t.Fatalf("part-written round %d: %+v", i, res)
		}
		if _, carried := writeCounts(exec.conns[0]); carried != i+1 {
			t.Fatalf("after part-written round %d the writer has finished %d frames, want %d", i, carried, i+1)
		}
	}
	close(stop)
	if err := <-smallDone; err != nil {
		t.Fatal(err)
	}
	if n := exec.pendingCalls(); n != 0 {
		t.Fatalf("%d calls pending after the rounds ended", n)
	}
}

// TestInlineWriteOutlivesAnExpiredWriteDeadline: the writer finishes a
// carried frame under its round's deadline, which stays set on the
// connection and passes long after the write. The next frame on the
// connection must still go out inline: a raw write that checked the
// connection's deadline (RawConn.Write does) would fail from then on and push
// every later frame to the queue.
func TestInlineWriteOutlivesAnExpiredWriteDeadline(t *testing.T) {
	c := newFrameConn(wedgeServer(t))
	t.Cleanup(c.close)
	if err := c.dial(); err != nil {
		t.Fatal(err)
	}
	pinSendBuffer(t, c)
	arr := cluster.NewArrivals(context.Background(), 2)

	big := newRequestTail("fwd", 1, 0, make([]field.Elem, partWriteElems))
	deadline := time.Now().Add(time.Second)
	if err := c.send(context.Background(), arr, 1, 0, big, deadline); err != nil {
		t.Fatal(err)
	}
	big.release()
	for wait := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, carried := writeCounts(c); carried == 1 {
			break
		}
		if time.Now().After(wait) {
			t.Fatal("the writer did not finish the part-written frame")
		}
	}
	time.Sleep(time.Until(deadline) + 50*time.Millisecond)

	small := newRequestTail("fwd", 1, 1, []field.Elem{1})
	defer small.release()
	if err := c.send(context.Background(), arr, 2, 0, small, time.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if inlined, carried := writeCounts(c); inlined != 1 || carried != 1 {
		t.Fatalf("after the carried write's deadline passed: %d frames inline and %d carried, want 1 and 1", inlined, carried)
	}
	c.reap(1)
	c.reap(2)
	if n := c.pendingCount(); n != 0 {
		t.Fatalf("%d calls pending", n)
	}
}
