//go:build !linux

package rpccluster

import "net"

// rawWriter cannot write from the asking goroutine here: every frame takes
// its connection's writer.
type rawWriter struct{}

func newRawWriter(net.Conn) *rawWriter { return nil }

func (*rawWriter) writev(head, tail []byte) int { return 0 }
