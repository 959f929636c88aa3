//go:build linux

package rpccluster

import (
	"net"
	"syscall"
	"unsafe"
)

// rawWriter writes a request frame to its connection's socket from the
// goroutine that asks, with one non-blocking writev: the kernel takes what
// its buffers hold and the call returns at once, so a round's fan-out never
// waits for a writer goroutine to be scheduled. The raw connection, the
// iovecs and the callback are made once, when the connection is dialled, so
// a write allocates nothing.
//
// The descriptor is borrowed through RawConn.Control, as peerProbe borrows
// it, not RawConn.Write: Control holds the descriptor open but takes neither
// the poller's write lock nor its deadline check, and neither is needed —
// wire.mu serialises every write on the connection, and an inline write
// never waits. Write would also link the poller's raw-write path into every
// binary that dials frames, ahead of the field package, and move the scalar
// kernels' 64-byte residues (DESIGN §7 "Code layout").
type rawWriter struct {
	rc  syscall.RawConn
	iov [2]syscall.Iovec
	n   int // what the last writev took
	fn  func(fd uintptr)
}

// newRawWriter returns conn's raw writer, or nil for a connection without a
// file descriptor (every frame then takes the connection's writer).
func newRawWriter(conn net.Conn) *rawWriter {
	sc, ok := conn.(syscall.Conn)
	if !ok {
		return nil
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return nil
	}
	w := &rawWriter{rc: rc}
	w.fn = func(fd uintptr) {
		for {
			n, _, errno := syscall.Syscall(syscall.SYS_WRITEV, fd, uintptr(unsafe.Pointer(&w.iov[0])), uintptr(len(w.iov)))
			if errno == syscall.EINTR {
				continue
			}
			if errno == 0 {
				w.n = int(n)
			}
			return
		}
	}
	return w
}

// writev offers head and then tail, both non-empty, to the socket and
// returns how many of their bytes the kernel took, in order: all of them, a
// prefix (its buffers are full), or none (it would block, the write failed,
// or the connection is closed — the writer, finishing the frame, meets a
// failure again and reports it). Callers hold wire.mu.
func (w *rawWriter) writev(head, tail []byte) int {
	w.iov[0].Base, w.iov[1].Base = &head[0], &tail[0]
	w.iov[0].SetLen(len(head))
	w.iov[1].SetLen(len(tail))
	w.n = 0
	// An error means the connection is closed and the callback never ran:
	// n stays 0.
	_ = w.rc.Control(w.fn)
	// The tail goes back to its pool: hold no pointer into it.
	w.iov = [2]syscall.Iovec{}
	return w.n
}
