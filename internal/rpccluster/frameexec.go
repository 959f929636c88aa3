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

// errConnFailed marks a call whose connection died before its response
// arrived — a transport failure the caller reads as an erasure.
var errConnFailed = errors.New("rpccluster: connection failed")

// WorkerError is a server-side application error relayed over the framed
// transport — the framed analogue of rpc.ServerError. The endpoint is alive
// and answered, so the executor surfaces it as Result.Err rather than
// hiding the worker behind an erasure.
type WorkerError string

// Error implements error.
func (e WorkerError) Error() string { return string(e) }

// frameConn is one persistent framed connection to a worker endpoint. Every
// in-flight call owns an entry in pending keyed by its request ID; a caller
// that gives up (timeout, cancellation) reaps its entry immediately, so the
// late response frame matches nothing on arrival and is discarded — nothing
// a slow server does can pin client memory. A severed connection fails all
// its pending calls at once and stays down until the next round that asks its
// worker starts a redial — behind the round, which goes on without the worker.
type frameConn struct {
	addr string

	mu      sync.Mutex
	conn    net.Conn // nil while the connection is down
	dialing bool     // a dial is under way, off the lock
	pending map[uint64]chan *responseFrame
	closed  bool

	// wsem (capacity 1) serialises frame writes; writes happen outside mu so a
	// reap never waits behind a large payload hitting the socket. It is a
	// channel rather than a mutex so a call queued behind a write that a
	// non-reading peer has blocked can still leave when its round is stopped.
	wsem chan struct{}
}

func newFrameConn(addr string) *frameConn {
	return &frameConn{addr: addr, pending: make(map[uint64]chan *responseFrame), wsem: make(chan struct{}, 1)}
}

// dial (re)establishes the connection if it is down. One attempt runs at a
// time, off the lock, so nothing — a reap, the next round's fan-out — ever
// waits behind a dial to a dead address.
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
	c.conn = conn
	go c.readLoop(conn)
	return nil
}

// up reports whether the connection is usable right now. It asks the kernel
// whether the peer has gone rather than waiting for the read loop to be
// scheduled and find out: a round is decided within a few arrivals, and a
// machine that died before it began must be known lost to it, not merely
// slower than the rest.
func (c *frameConn) up() bool {
	c.mu.Lock()
	conn := c.conn
	c.mu.Unlock()
	if conn == nil {
		return false
	}
	if peerClosed(conn) {
		c.fail(conn)
		return false
	}
	return true
}

// attach registers a pending call and returns the connection to write it to.
// A call whose round is already stopped is refused under the same lock reap
// takes, so once RunRound has reaped a stopped round's calls none of them can
// register afterwards.
func (c *frameConn) attach(ctx context.Context, id uint64, ch chan *responseFrame) (net.Conn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if c.closed {
		return nil, errConnClosed
	}
	if c.conn == nil {
		return nil, errConnFailed // died since the fan-out found it up
	}
	c.pending[id] = ch
	return c.conn, nil
}

// reap abandons a pending call: the entry is removed NOW, so the response —
// if it ever arrives — is discarded at the read loop instead of pinning the
// entry until the executor closes.
func (c *frameConn) reap(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// fail severs conn (if it is still the live one) and fails every call
// pending on it by closing their channels.
func (c *frameConn) fail(conn net.Conn) {
	conn.Close()
	c.mu.Lock()
	if c.conn != conn {
		c.mu.Unlock()
		return
	}
	c.conn = nil
	failed := c.pending
	c.pending = make(map[uint64]chan *responseFrame)
	c.mu.Unlock()
	for _, ch := range failed {
		close(ch)
	}
}

// readLoop delivers response frames to their pending calls until the
// connection dies or a frame is malformed.
func (c *frameConn) readLoop(conn net.Conn) {
	br := bufio.NewReaderSize(conn, 1<<16)
	for {
		resp, err := readResponse(br)
		if err != nil {
			c.fail(conn)
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[resp.ID]
		if ok {
			delete(c.pending, resp.ID)
		}
		c.mu.Unlock()
		if ok {
			ch <- resp // buffered; never blocks the loop
		}
		// A frame matching nothing answers a reaped call: discarded.
	}
}

// pendingCount reports the live pending-call entries (soak tests assert it
// returns to zero after rounds full of abandoned calls).
func (c *frameConn) pendingCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// close tears the connection down and fails anything in flight.
func (c *frameConn) close() {
	c.mu.Lock()
	c.closed = true
	conn := c.conn
	c.conn = nil
	failed := c.pending
	c.pending = make(map[uint64]chan *responseFrame)
	c.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	for _, ch := range failed {
		close(ch)
	}
}

// call issues one framed request under the effective deadline (configured
// cap ∧ context deadline) — which bounds the write as well as the wait for
// the response, so a peer that stops reading costs one deadline, not a
// goroutine — and aborts on context cancellation. Give-ups reap the pending
// entry immediately.
func (c *frameConn) call(ctx context.Context, cap time.Duration, id uint64, worker int, tail []byte) (*responseFrame, error) {
	timeout, has := effectiveTimeout(cap, ctx)
	if has && timeout <= 0 {
		// The caller's deadline had already passed before the call could go
		// out: attribute it to the context, not to a slow worker.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, context.DeadlineExceeded
	}
	var deadline time.Time // zero: only the context governs
	if has {
		deadline = time.Now().Add(timeout)
	}
	ch := make(chan *responseFrame, 1)
	conn, err := c.attach(ctx, id, ch)
	if err != nil {
		return nil, err
	}
	select {
	case c.wsem <- struct{}{}:
	case <-ctx.Done():
		c.reap(id)
		return nil, ctx.Err()
	}
	var head [requestHeadLen]byte
	requestHead(&head, id, worker, len(tail))
	bufs := net.Buffers{head[:], tail}
	// Each write sets the connection's deadline afresh (zero clears the
	// previous call's); an error here means conn is closed and the write
	// below reports it.
	_ = conn.SetWriteDeadline(deadline)
	_, werr := bufs.WriteTo(conn)
	<-c.wsem
	if werr != nil {
		c.fail(conn) // clears our pending entry with everyone else's
		return nil, werr
	}
	var expired <-chan time.Time
	if has {
		timer := time.NewTimer(time.Until(deadline))
		defer timer.Stop()
		expired = timer.C
	}
	select {
	case resp, ok := <-ch:
		if !ok {
			return nil, errConnFailed
		}
		return resp, nil
	case <-expired:
		c.reap(id)
		return nil, errCallTimeout
	case <-ctx.Done():
		c.reap(id)
		return nil, ctx.Err()
	}
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
	// Timeout is the per-call deadline cap: the effective deadline is
	// Timeout ∧ the context's deadline,
	// 0 means DefaultCallTimeout, negative leaves only the context
	// governing. A call that exceeds its deadline or fails at the transport
	// layer yields no Result (an erasure); a server-side application error
	// surfaces as Result.Err.
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
// ONCE and written to every worker.
func (e *FrameExecutor) RunRound(ctx context.Context, key string, input []field.Elem, batch, iter int, active []int) []cluster.Result {
	tail := encodeRequestTail(key, batch, iter, input)
	// The round's request IDs are firstID, firstID+1, … in active's order.
	firstID := e.nextID.Add(uint64(len(active))) - uint64(len(active)) + 1
	timeout := e.Timeout // read here: a call's goroutine may outlive the round
	arr := cluster.NewArrivals(ctx, len(active))
	for i, id := range active {
		reqID := firstID + uint64(i)
		ci, ok := e.idx[id]
		if ok && !e.conns[ci].up() {
			// Known down as the round asks: the worker is lost to this round
			// and the round is told before anyone can answer, so it knows
			// however soon it is decided. The redial runs behind it.
			arr.Miss(id)
			go e.conns[ci].dial()
			continue
		}
		arr.Go(id, func() (cluster.Result, bool) {
			res := cluster.Result{Worker: id}
			if !ok {
				res.Err = fmt.Errorf("rpccluster: no connection for worker %d", id)
				return res, true
			}
			t0 := time.Now()
			resp, err := e.conns[ci].call(ctx, timeout, reqID, id, tail)
			if err != nil {
				// Timeout, cancellation or transport failure: the endpoint is
				// gone as far as this round is concerned. Report the worker
				// missing rather than poisoning the round with an error the
				// master cannot act on.
				return res, false
			}
			res.ComputeSec = time.Since(t0).Seconds()
			res.Output = resp.Output
			if resp.Err != "" {
				res.Err = WorkerError(resp.Err)
			}
			return res, true
		})
	}
	results := arr.Wait()
	if ctx.Err() != nil && len(results) < len(active) {
		// Stopped with calls still out: reap them here rather than when each
		// call's goroutine next runs, so a stopped round leaves nothing
		// pending — not even behind a write the peer is not reading.
		for i, id := range active {
			if ci, ok := e.idx[id]; ok {
				e.conns[ci].reap(firstID + uint64(i))
			}
		}
	}
	return results
}
