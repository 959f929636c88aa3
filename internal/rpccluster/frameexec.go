package rpccluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/field"
)

// frameDialTimeout bounds (re)connection attempts. A redial runs behind the
// rounds, so a dead endpoint costs each of them an erasure and none of them a
// wait.
const frameDialTimeout = 5 * time.Second

// errConnClosed rejects calls after Close.
var errConnClosed = errors.New("rpccluster: connection closed")

// errConnFailed refuses a call on a connection that has gone down — a
// transport failure the caller reads as an erasure.
var errConnFailed = errors.New("rpccluster: connection failed")

// WorkerError is a server-side application error relayed over the framed
// transport — the framed analogue of rpc.ServerError. The endpoint is alive
// and answered, so the executor surfaces it as Result.Err rather than
// hiding the worker behind an erasure.
type WorkerError string

// Error implements error.
func (e WorkerError) Error() string { return string(e) }

// errQueueFull refuses a call whose connection's write queue is full: the
// connection is not keeping up, and the worker sits this round out.
var errQueueFull = errors.New("rpccluster: write queue full")

// writeQueueLen bounds a connection's queued frame writes. Two rounds in
// flight queue two; a queue this full means the peer is not reading.
const writeQueueLen = 8

// frameConn is one persistent framed connection to a worker endpoint. Every
// call out on it owns an entry in pending, keyed by its request ID, that
// names the round's Arrivals: the connection's read loop lands each response
// there itself, so a call costs no goroutine, channel or timer of its own. A
// round that ends — decided, cancelled or past its deadline — reaps its
// entries at once, so a late response matches nothing on arrival and its
// vector goes straight back to the pool: nothing a slow server does can pin
// client memory. Frames
// go out through one writer per connection, fed by a bounded queue that a
// round fills without ever blocking. A severed connection misses all its
// pending calls at once and stays down until the next round that asks its
// worker starts a redial — behind the round, which goes on without the
// worker.
type frameConn struct {
	addr string

	mu      sync.Mutex
	conn    net.Conn        // nil while the connection is down
	probe   *peerProbe      // conn's TCP-state probe, made when it was dialled
	wq      chan frameWrite // conn's write queue; closed when conn goes down
	dialing bool            // a dial is under way, off the lock
	pending map[uint64]pendingCall
	closed  bool
}

// pendingCall is one call out on a connection: where its response lands.
type pendingCall struct {
	arr    *cluster.Arrivals
	worker int
	sent   time.Time
}

// frameWrite is one queued request frame: its head is built by the writer,
// the tail is the round's shared encoding.
type frameWrite struct {
	id       uint64
	worker   int
	tail     *requestTail
	deadline time.Time // zero: none
}

// requestTail is a round's shared request tail (encodeRequestTail), recycled.
// The round holds one reference while it fans out and every queued write
// holds one until it has gone out or been dropped; the last release puts the
// buffer back in the pool.
type requestTail struct {
	b    []byte
	refs atomic.Int32
}

var tailPool = sync.Pool{New: func() any { return new(requestTail) }}

// newRequestTail encodes a round's tail into a recycled buffer, held once.
func newRequestTail(key string, batch, iter int, input []field.Elem) *requestTail {
	t := tailPool.Get().(*requestTail)
	t.b = appendRequestTail(t.b[:0], key, batch, iter, input)
	t.refs.Store(1)
	return t
}

func (t *requestTail) hold() { t.refs.Add(1) }

func (t *requestTail) release() {
	if t.refs.Add(-1) == 0 {
		tailPool.Put(t)
	}
}

func newFrameConn(addr string) *frameConn {
	return &frameConn{addr: addr, pending: make(map[uint64]pendingCall)}
}

// dial (re)establishes the connection if it is down, and starts its read
// loop and its writer. One attempt runs at a time, off the lock, so nothing —
// a reap, the next round's fan-out — ever waits behind a dial to a dead
// address.
func (c *frameConn) dial() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return errConnClosed
	}
	if c.conn != nil || c.dialing {
		c.mu.Unlock()
		return nil
	}
	c.dialing = true
	c.mu.Unlock()
	conn, err := net.DialTimeout("tcp", c.addr, frameDialTimeout)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dialing = false
	if err != nil {
		return err
	}
	if c.closed {
		conn.Close()
		return errConnClosed
	}
	c.conn, c.probe = conn, newPeerProbe(conn)
	c.wq = make(chan frameWrite, writeQueueLen)
	go c.readLoop(conn)
	go c.writeLoop(conn, c.wq)
	return nil
}

// up reports whether the connection is usable right now. It asks the kernel
// whether the peer has gone rather than waiting for the read loop to be
// scheduled and find out: a round is decided within a few arrivals, and a
// machine that died before it began must be known lost to it, not merely
// slower than the rest.
func (c *frameConn) up() bool {
	c.mu.Lock()
	conn, probe := c.conn, c.probe
	c.mu.Unlock()
	if conn == nil {
		return false
	}
	if probe.closed() {
		c.fail(conn)
		return false
	}
	return true
}

// send registers call id of worker, whose response lands in arr, and queues
// its frame — head plus the round's shared tail, written under deadline. It
// never blocks: a stopped round, a connection gone down or a full write
// queue refuses the call with an error, and the caller reports the worker
// missed. A call whose round is already stopped is refused under the same
// lock reap takes, so once a stopped round has reaped its calls none of them
// can register afterwards.
func (c *frameConn) send(ctx context.Context, arr *cluster.Arrivals, id uint64, worker int, tail *requestTail, deadline time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return err
	}
	if c.closed {
		return errConnClosed
	}
	if c.conn == nil {
		return errConnFailed // died since the fan-out found it up
	}
	tail.hold()
	select {
	case c.wq <- frameWrite{id: id, worker: worker, tail: tail, deadline: deadline}:
	default:
		tail.release()
		return errQueueFull
	}
	c.pending[id] = pendingCall{arr: arr, worker: worker, sent: time.Now()}
	return nil
}

// reap abandons a pending call and reports whether it was still out: the
// entry is removed NOW, so the response — if it ever arrives — is released
// at the read loop, and a write still queued for it is dropped unwritten.
func (c *frameConn) reap(id uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.pending[id]
	delete(c.pending, id)
	return ok
}

// isPending reports whether call id is still out.
func (c *frameConn) isPending(id uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.pending[id]
	return ok
}

// fail severs conn (if it is still the live one) and misses every call
// pending on it.
func (c *frameConn) fail(conn net.Conn) {
	conn.Close()
	c.mu.Lock()
	if c.conn != conn {
		c.mu.Unlock()
		return
	}
	failed := c.down()
	c.mu.Unlock()
	missAll(failed)
}

// close tears the connection down for good and misses anything in flight.
func (c *frameConn) close() {
	c.mu.Lock()
	c.closed = true
	conn := c.conn
	var failed map[uint64]pendingCall
	if conn != nil {
		failed = c.down()
	}
	c.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	missAll(failed)
}

// down marks the live connection down: it stops its writer (which drops what
// is still queued) and hands back the calls that were pending on it. Callers
// hold c.mu.
func (c *frameConn) down() map[uint64]pendingCall {
	close(c.wq)
	c.conn, c.probe, c.wq = nil, nil, nil
	failed := c.pending
	c.pending = make(map[uint64]pendingCall)
	return failed
}

// missAll reports every call of a failed connection missing to its round:
// the worker's own loss while that round is live.
func missAll(calls map[uint64]pendingCall) {
	for _, p := range calls {
		p.arr.Miss(p.worker)
	}
}

// writeLoop writes conn's queued frames, in order, until the queue is
// closed. A write whose call was reaped while it waited is dropped unwritten.
// Each write carries its call's deadline, so a peer that stops reading costs
// one deadline; a write error severs conn, and what is still queued is
// dropped.
func (c *frameConn) writeLoop(conn net.Conn, wq <-chan frameWrite) {
	var head [requestHeadLen]byte
	var parts [2][]byte
	var bufs net.Buffers
	failed := false
	for w := range wq {
		if !failed && c.isPending(w.id) {
			requestHead(&head, w.id, w.worker, len(w.tail.b))
			parts = [2][]byte{head[:], w.tail.b}
			bufs = parts[:]
			// Zero clears the previous write's deadline; an error here means
			// conn is closed and the write reports it.
			_ = conn.SetWriteDeadline(w.deadline)
			if _, err := bufs.WriteTo(conn); err != nil {
				failed = true
				c.fail(conn)
			}
		}
		w.tail.release()
	}
}

// readLoop lands response frames in their calls' rounds until the connection
// dies or a frame is malformed. A response that answers a reaped call, or
// lands after its round has ended, is released undelivered.
func (c *frameConn) readLoop(conn net.Conn) {
	br := bufio.NewReaderSize(conn, 1<<16)
	var resp responseFrame
	for {
		if err := readResponseInto(br, &resp); err != nil {
			c.fail(conn)
			return
		}
		c.mu.Lock()
		call, ok := c.pending[resp.ID]
		if ok {
			delete(c.pending, resp.ID)
		}
		c.mu.Unlock()
		if !ok || !call.arr.Land(call.result(&resp)) {
			field.PutVec(resp.Output)
		}
	}
}

// result is the cluster.Result a response makes for its call. Its output is
// the recycled vector the read loop read it into, which the round's driver
// releases.
func (p pendingCall) result(resp *responseFrame) cluster.Result {
	res := cluster.Result{
		Worker: p.worker, Output: resp.Output, Recycled: true,
		ComputeSec: time.Since(p.sent).Seconds(),
	}
	if resp.Err != "" {
		res.Err = WorkerError(resp.Err)
	}
	return res
}

// pendingCount reports the live pending-call entries (soak tests assert it
// returns to zero after rounds full of abandoned calls).
func (c *frameConn) pendingCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// FrameExecutor implements cluster.Executor over the framed transport:
// persistent per-worker connections, explicit request IDs with immediate
// reaping of abandoned calls, zero-copy element payloads, and a broadcast
// path that encodes the round's input once for all workers.
type FrameExecutor struct {
	conns  []*frameConn
	ids    []int
	idx    map[int]int
	nextID atomic.Uint64
	// Timeout is the per-call deadline cap: the effective deadline, which
	// every call of a round shares and which bounds its frame write too, is
	// Timeout ∧ the context's deadline; 0 means DefaultCallTimeout, negative
	// leaves only the context governing. A call that exceeds its deadline or
	// fails at the transport layer yields no Result (an erasure); a
	// server-side application error surfaces as Result.Err.
	Timeout time.Duration
}

// DialFrames connects to framed worker endpoints. addrs[i] must host the
// worker whose ID is ids[i] (or 0..len-1 when ids is nil). All endpoints
// are dialled eagerly so a bad address fails deployment, not a round; a
// connection that later dies costs every round that asks its worker one
// erasure until a redial — started by those rounds, run behind them — brings
// it back.
func DialFrames(addrs []string, ids []int) (*FrameExecutor, error) {
	if ids == nil {
		ids = make([]int, len(addrs))
		for i := range ids {
			ids[i] = i
		}
	}
	if len(ids) != len(addrs) {
		return nil, fmt.Errorf("rpccluster: %d ids for %d addrs", len(ids), len(addrs))
	}
	e := &FrameExecutor{ids: ids, idx: make(map[int]int, len(ids))}
	for i, id := range ids {
		e.idx[id] = i
	}
	for _, a := range addrs {
		c := newFrameConn(a)
		if err := c.dial(); err != nil {
			e.Close()
			return nil, fmt.Errorf("rpccluster: dial %s: %w", a, err)
		}
		e.conns = append(e.conns, c)
	}
	return e, nil
}

// Close tears down all connections.
func (e *FrameExecutor) Close() {
	for _, c := range e.conns {
		c.close()
	}
}

// pendingCalls sums the live pending-call entries across all connections.
// The wedged-server soak asserts it returns to zero once every abandoned
// call has been reaped.
func (e *FrameExecutor) pendingCalls() int {
	n := 0
	for _, c := range e.conns {
		n += c.pendingCount()
	}
	return n
}

// RunRound implements cluster.Executor: each result is handed over as its
// frame arrives, workers whose calls time out or fail at the transport layer
// are omitted (erasures), server-side errors surface as Result.Err, and the
// round returns the moment ctx is done. The round's broadcast input is encoded
// ONCE, into a recycled tail that every worker's frame shares, and queued to
// each connection's writer without waiting on any of them: a connection whose
// queue is full costs its worker this round, never the round. Responses land
// from the connections' read loops; the round arms one deadline (Timeout ∧
// ctx), and when it expires every call still out is reaped and missed.
func (e *FrameExecutor) RunRound(ctx context.Context, key string, input []field.Elem, batch, iter int, active []int) []cluster.Result {
	arr := cluster.NewArrivals(ctx, len(active))
	timeout, has := effectiveTimeout(e.Timeout, ctx)
	if has && timeout <= 0 {
		// The caller's deadline passed before anything could go out: that is
		// the caller's loss, not its workers'. Nothing is sent or reported,
		// and Wait returns on the expired ctx.
		return arr.Wait()
	}
	var deadline time.Time // zero: only the context governs
	if has {
		deadline = time.Now().Add(timeout)
	}
	tail := newRequestTail(key, batch, iter, input)
	// The round's request IDs are firstID, firstID+1, … in active's order.
	firstID := e.nextID.Add(uint64(len(active))) - uint64(len(active)) + 1
	for i, id := range active {
		ci, ok := e.idx[id]
		switch {
		case !ok:
			arr.Land(cluster.Result{Worker: id, Err: fmt.Errorf("rpccluster: no connection for worker %d", id)})
		case !e.conns[ci].up():
			// Known down as the round asks: the worker is lost to this round
			// and the round is told before anyone can answer, so it knows
			// however soon it is decided. The redial runs behind it.
			arr.Miss(id)
			go e.conns[ci].dial()
		case e.conns[ci].send(ctx, arr, firstID+uint64(i), id, tail, deadline) != nil:
			// Stopped round, connection down since, or a full write queue:
			// the worker sits the round out.
			arr.Miss(id)
		}
	}
	tail.release()
	var expiry *time.Timer
	if has {
		expiry = time.AfterFunc(time.Until(deadline), func() { e.reap(arr, firstID, active) })
	}
	results := arr.Wait()
	if expiry != nil {
		expiry.Stop()
	}
	// Stopped with calls still out: reap them here, so a stopped round
	// leaves nothing pending.
	e.reap(nil, firstID, active)
	return results
}

// reap removes the round's calls still out. With arr — the round's deadline
// has expired while it is live — it reports each of them missed.
func (e *FrameExecutor) reap(arr *cluster.Arrivals, firstID uint64, active []int) {
	for i, id := range active {
		if ci, ok := e.idx[id]; ok && e.conns[ci].reap(firstID+uint64(i)) && arr != nil {
			arr.Miss(id)
		}
	}
}
