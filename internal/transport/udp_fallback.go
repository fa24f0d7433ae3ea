//go:build !(linux && (amd64 || arm64)) || ltnc_portable

package transport

// udp_fallback.go keeps UDPTransport portable: platforms without the
// recvmmsg/sendmmsg fast path (darwin, windows, 32-bit linux, ...) run
// the direct per-frame syscall path in udp.go. SendBatch/RecvBatch still
// exist — they degrade to per-frame loops with identical semantics, so
// callers written against the batch surface run unchanged. The
// ltnc_portable build tag selects it on linux/amd64 and linux/arm64 too,
// so the race detector and the tests run it on the hosts CI has.

import (
	"context"
	"syscall"
)

const batchSupported = false

type batchState struct{}

func reusePortControl(cfg UDPConfig) func(network, address string, c syscall.RawConn) error {
	return nil
}

// portableReadBuffer is the socket receive buffer the per-frame path asks
// for; the kernel caps it at its own limit (rmem_max on Linux). With no
// reader goroutines and rings in front of it, as the fast path has, frames
// wait in the kernel while the receive loop handles the one before, and
// the default 208 KiB overflows under a 16 MiB object's manifest — its 16
// frames of 32 KiB go to a fetcher once, two a push round, each ahead of
// the DATA it proves — and the DATA between them; a frame lost there
// comes again only when the fetcher's need asks for it, a round trip on
// (swarm's TestLargeManifestArrivesBeforeFirstGeneration).
const portableReadBuffer = 4 << 20

func (t *UDPTransport) initBatch() error {
	_ = t.conn.SetReadBuffer(portableReadBuffer) // best effort: refused, the default buffer stands
	return nil
}

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
