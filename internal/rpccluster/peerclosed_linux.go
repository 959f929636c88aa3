//go:build linux

package rpccluster

import (
	"encoding/binary"
	"net"
	"syscall"
)

// tcpEstablished is the kernel's TCP_ESTABLISHED.
const tcpEstablished = 1

// peerClosed asks the kernel whether conn's peer has closed or reset it — the
// connection's TCP state is no longer ESTABLISHED — which it knows as soon as
// the FIN or RST has arrived, however far behind conn's read loop is.
func peerClosed(conn net.Conn) bool {
	sc, ok := conn.(syscall.Conn)
	if !ok {
		return false
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return false
	}
	established := true
	err = rc.Control(func(fd uintptr) {
		// TCP_INFO is a struct that opens with the state byte; asked for an
		// int's worth, the kernel returns that byte and its three neighbours,
		// in memory order.
		v, err := syscall.GetsockoptInt(int(fd), syscall.IPPROTO_TCP, syscall.TCP_INFO)
		var head [4]byte
		binary.NativeEndian.PutUint32(head[:], uint32(v))
		established = err == nil && head[0] == tcpEstablished
	})
	return err != nil || !established // err: conn is already closed on our side
}
