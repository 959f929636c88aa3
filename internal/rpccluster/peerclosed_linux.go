//go:build linux

package rpccluster

import (
	"encoding/binary"
	"net"
	"sync"
	"syscall"
)

// tcpEstablished is the kernel's TCP_ESTABLISHED.
const tcpEstablished = 1

// peerProbe asks the kernel whether a connection's peer has closed or reset
// it — the connection's TCP state is no longer ESTABLISHED — which it knows
// as soon as the FIN or RST has arrived, however far behind the connection's
// read loop is. The raw connection and the closure that reads the state are
// made once, when the connection is dialled, so a probe allocates nothing.
type peerProbe struct {
	mu          sync.Mutex // one probe at a time: read writes established
	rc          syscall.RawConn
	read        func(fd uintptr)
	established bool
}

// newPeerProbe returns conn's probe, or nil for a connection without a file
// descriptor (its peer is then found out by the read loop alone).
func newPeerProbe(conn net.Conn) *peerProbe {
	sc, ok := conn.(syscall.Conn)
	if !ok {
		return nil
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return nil
	}
	p := &peerProbe{rc: rc}
	p.read = func(fd uintptr) {
		// TCP_INFO is a struct that opens with the state byte; asked for an
		// int's worth, the kernel returns that byte and its three neighbours,
		// in memory order.
		v, err := syscall.GetsockoptInt(int(fd), syscall.IPPROTO_TCP, syscall.TCP_INFO)
		var head [4]byte
		binary.NativeEndian.PutUint32(head[:], uint32(v))
		p.established = err == nil && head[0] == tcpEstablished
	}
	return p
}

// closed reports whether the peer has gone. A nil probe never knows.
func (p *peerProbe) closed() bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.established = true
	err := p.rc.Control(p.read)
	return err != nil || !p.established // err: conn is already closed on our side
}
