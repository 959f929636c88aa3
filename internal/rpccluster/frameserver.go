package rpccluster

import (
	"bufio"
	"fmt"
	"net"
	"sync"

	"repro/internal/cluster"
	"repro/internal/field"
)

// FrameServer is one worker endpoint speaking the framed wire protocol.
// Close tears down the listener AND every established connection, so closing
// a server mid-round behaves like the machine dying — in-flight calls fail at
// the client instead of hanging.
type FrameServer struct {
	Addr     string
	listener net.Listener
	wg       sync.WaitGroup

	f       *field.Field
	workers map[int]*cluster.Worker

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// ServeFrames starts a framed worker endpoint on addr (use "127.0.0.1:0"
// to pick a free port) hosting the given workers, keyed by their IDs. One
// server can host many workers — tests and the demo binary colocate them —
// and a request naming a worker the server does not host is answered with
// an application error.
func ServeFrames(addr string, f *field.Field, workers ...*cluster.Worker) (*FrameServer, error) {
	if len(workers) == 0 {
		return nil, fmt.Errorf("rpccluster: ServeFrames needs at least one worker")
	}
	byID := make(map[int]*cluster.Worker, len(workers))
	for _, w := range workers {
		if _, dup := byID[w.ID]; dup {
			return nil, fmt.Errorf("rpccluster: duplicate worker ID %d", w.ID)
		}
		byID[w.ID] = w
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &FrameServer{
		Addr:     l.Addr().String(),
		listener: l,
		f:        f,
		workers:  byID,
		conns:    make(map[net.Conn]struct{}),
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := l.Accept()
			if err != nil {
				return // listener closed
			}
			if !s.track(conn) {
				conn.Close()
				return
			}
			go func() {
				defer s.untrack(conn)
				s.serveConn(conn)
			}()
		}
	}()
	return s, nil
}

func (s *FrameServer) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *FrameServer) untrack(conn net.Conn) {
	conn.Close()
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// Close stops accepting connections, severs all established connections
// (failing any in-flight calls), and waits for the accept loop to exit.
func (s *FrameServer) Close() error {
	err := s.listener.Close()
	s.mu.Lock()
	s.closed = true
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// serveConn reads request frames until the connection dies or a frame is
// malformed (at which point the stream cannot be re-framed and the
// connection is closed). Each request is handed to an idle handler of this
// connection, and a new handler starts only when none is idle: a slow
// request never head-of-line-blocks later requests multiplexed on the same
// connection, and a handler's stack, grown inside the kernel path by its
// first request, serves every later one. Handlers live until the connection
// closes, and serveConn returns only once they have all finished. Responses
// are serialised by a write lock.
//
// A request's input vector and its response's output vector are recycled
// by the handler and nowhere else: once the writev has put the response on
// the wire, nothing reads either of them (see cluster.Op on who owns a
// result).
func (s *FrameServer) serveConn(conn net.Conn) {
	br := bufio.NewReaderSize(conn, 1<<16)
	var wmu sync.Mutex
	var handlers sync.WaitGroup
	idle := make(chan *requestFrame) // unbuffered: a send reaches an idle handler or no one
	defer func() {
		close(idle)
		handlers.Wait()
	}()
	for {
		req, err := readRequest(br)
		if err != nil {
			return
		}
		select {
		case idle <- req:
		default:
			handlers.Add(1)
			go func() {
				defer handlers.Done()
				s.handler(conn, &wmu, req, idle)
			}()
		}
	}
}

// handler serves req, then every request handed to it on idle, until idle is
// closed. It writes each response with one writev, from a head buffer it
// keeps, and then releases the request's vectors.
func (s *FrameServer) handler(conn net.Conn, wmu *sync.Mutex, req *requestFrame, idle <-chan *requestFrame) {
	var head, elems []byte
	var parts [2][]byte
	var bufs net.Buffers
	for {
		resp := s.handle(req)
		head, elems = appendResponseParts(head[:0], resp)
		parts = [2][]byte{head, elems}
		bufs = parts[:]
		if elems == nil {
			bufs = bufs[:1]
		}
		wmu.Lock()
		_, _ = bufs.WriteTo(conn) // a write error kills the conn; the reader sees it
		wmu.Unlock()
		release(req, resp)
		var ok bool
		if req, ok = <-idle; !ok {
			return
		}
	}
}

// handle runs one worker computation. Byzantine behaviour (if the worker is
// configured with one) is applied server-side, exactly as a compromised
// machine would. The worker vouches for nothing: the master checks what
// arrives, and a receipt's output trees are built by the master from the
// outputs it consumed.
//
// An input element ≥ q is refused before Compute runs: the field kernels
// take canonical operands (the vector DotPacked reads only the low 32 bits
// of each input word), and the frame decoder does not reduce what it reads.
func (s *FrameServer) handle(req *requestFrame) *responseFrame {
	resp := &responseFrame{ID: req.ID}
	w, ok := s.workers[req.Worker]
	if !ok {
		resp.Err = fmt.Sprintf("rpccluster: server does not host worker %d", req.Worker)
		return resp
	}
	if !field.Canonical(s.f.Q(), req.Input) {
		resp.Err = fmt.Sprintf("rpccluster: worker %d: input has an element not below q = %d", req.Worker, s.f.Q())
		return resp
	}
	batch := req.Batch
	if batch < 1 {
		batch = 1
	}
	out, _, err := w.Compute(s.f, req.Key, req.Input, batch, req.Iter)
	if err != nil {
		resp.Err = err.Error()
		return resp
	}
	resp.Output = out
	return resp
}

// release recycles the vectors of one served request once its response has
// been written.
func release(req *requestFrame, resp *responseFrame) {
	field.PutVec(req.Input)
	field.PutVec(resp.Output)
}
