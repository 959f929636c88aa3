//go:build !linux

package rpccluster

import "net"

// peerProbe cannot ask the kernel here: a dead peer is found out by the
// connection's read loop alone.
type peerProbe struct{}

func newPeerProbe(net.Conn) *peerProbe { return nil }

func (*peerProbe) closed() bool { return false }
