//go:build !linux

package rpccluster

import "net"

// peerClosed cannot ask the kernel here: a dead peer is found out by the
// connection's read loop alone.
func peerClosed(net.Conn) bool { return false }
