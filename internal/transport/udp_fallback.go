//go:build !(linux && (amd64 || arm64))

package transport

// udp_fallback.go keeps UDPTransport portable: platforms without the
// recvmmsg/sendmmsg fast path (darwin, windows, 32-bit linux, ...) run
// the direct per-frame syscall path in udp.go. SendBatch/RecvBatch still
// exist — they degrade to per-frame loops with identical semantics, so
// callers written against the batch surface run unchanged.

import (
	"context"
	"syscall"
)

const batchSupported = false

type batchState struct{}

func reusePortControl(cfg UDPConfig) func(network, address string, c syscall.RawConn) error {
	return nil
}

func (t *UDPTransport) initBatch() error   { return nil }
func (t *UDPTransport) batchEnabled() bool { return false }
func (t *UDPTransport) closeBatch()        {}

func (t *UDPTransport) batchInfo() (enabled, gso, gro bool, readers int) {
	return false, false, false, 1
}

func (t *UDPTransport) recvBatchRings(ctx context.Context, out []Frame) (int, error) {
	panic("transport: batch rings unavailable on this platform")
}

func (t *UDPTransport) sendBatchMmsg(to Addr, frames [][]byte) (int, error) {
	panic("transport: sendmmsg unavailable on this platform")
}
