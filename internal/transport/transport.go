// Package transport abstracts the datagram channel under the LTNC
// dissemination: a Transport sends and receives framed packets to and
// from peers identified by opaque addresses. Two implementations are
// provided — Switch/ChanTransport, an in-memory network with injectable
// loss and latency for deterministic tests, and UDPTransport over a real
// net.UDPConn with a packet pool so the receive hot path does not
// allocate per datagram.
//
// The paper evaluates LTNC on simulated lossy push channels; this package
// is the boundary where the same node logic (internal/session) runs
// unchanged over goroutine channels or real sockets.
package transport

import (
	"context"
	"errors"
	"sync"
)

// Addr is an opaque peer address. For UDPTransport it is "host:port"; for
// ChanTransport it is whatever name the port was attached under.
type Addr string

// MaxFrame is the largest frame a Transport must accept: the in-memory
// switch enforces it and UDP datagrams cannot exceed it anyway.
const MaxFrame = 64 * 1024

// Errors shared by transport implementations.
var (
	ErrClosed      = errors.New("transport: closed")
	ErrUnknownPeer = errors.New("transport: unknown peer")
	ErrFrameTooBig = errors.New("transport: frame exceeds MaxFrame")
)

// framePool recycles MaxFrame-sized buffers across every transport in the
// process: UDP receive buffers, in-memory switch deliveries and outgoing
// frame assembly all draw from one pool, so the steady-state datagram path
// allocates nothing and a relay daemon's hop-to-hop forwarding reuses the
// same handful of buffers.
var framePool = sync.Pool{New: func() any {
	buf := make([]byte, MaxFrame)
	return &buf
}}

// GetBuf returns a pooled MaxFrame-capacity buffer (full length; reslice
// as needed). Return it with PutBuf when the bytes are no longer live.
func GetBuf() *[]byte { return framePool.Get().(*[]byte) }

// PutBuf returns a buffer obtained from GetBuf to the pool. Buffers that
// did not come from GetBuf must not be passed here.
func PutBuf(buf *[]byte) {
	if buf == nil || cap(*buf) < MaxFrame {
		return
	}
	*buf = (*buf)[:MaxFrame]
	framePool.Put(buf)
}

// smallFrame is the pool's second size class. A frame waiting in a
// receive queue owns its buffer for as long as it waits, and a DATA frame
// of the default geometry (1 KiB payload under a header of at most 164
// bytes) is a sixtieth of MaxFrame: with tens of frames in flight toward
// every receiver, full-size buffers would be most of a small swarm's
// resident memory.
const smallFrame = 2048

var smallPool = sync.Pool{New: func() any {
	buf := make([]byte, smallFrame)
	return &buf
}}

// copyFrame returns a frame owning a pooled copy of data, in the smallest
// size class that holds it.
func copyFrame(from Addr, data []byte) Frame {
	pool := &framePool
	if len(data) <= smallFrame {
		pool = &smallPool
	}
	bufp := pool.Get().(*[]byte)
	return Frame{From: from, Data: (*bufp)[:copy(*bufp, data)], release: func() { pool.Put(bufp) }}
}

// Frame is one received datagram. Data is valid until Release is called;
// receivers that keep bytes past Release must copy them. Release returns
// pooled buffers to their transport and is safe to call once (further
// calls are no-ops).
type Frame struct {
	From    Addr
	Data    []byte
	release func()
}

// NewFrame builds a frame with an optional release hook (for transports
// and tests).
func NewFrame(from Addr, data []byte, release func()) Frame {
	return Frame{From: from, Data: data, release: release}
}

// Release returns the frame's buffer to its owner.
func (f *Frame) Release() {
	if f.release != nil {
		f.release()
		f.release = nil
	}
	f.Data = nil
}

// Transport sends and receives framed packets. Send must be safe for
// concurrent use with Recv and with other Sends; one consumer at a time
// may call Recv.
type Transport interface {
	// LocalAddr returns the address peers use to reach this transport.
	LocalAddr() Addr
	// Send transmits one frame to the peer. Delivery is best-effort:
	// datagram semantics, no retransmission, frames may be dropped. The
	// frame buffer belongs to the caller and may be reused the moment
	// Send returns — senders serialize into pooled buffers — so an
	// implementation that queues the frame for later delivery must copy
	// it first.
	Send(to Addr, frame []byte) error
	// Recv blocks until a frame arrives, the context is cancelled, or the
	// transport is closed (ErrClosed).
	Recv(ctx context.Context) (Frame, error)
	// Close releases the transport; pending and future Recvs fail with
	// ErrClosed.
	Close() error
}

// BatchSender is optionally implemented by transports that can hand
// several frames for the same destination to the network in one
// operation — one sendmmsg (or UDP-GSO sendmsg) syscall on the Linux UDP
// fast path. The frame buffers follow the same ownership rule as Send:
// they belong to the caller the moment SendBatch returns. It returns how
// many frames were handed to the network before the first error.
type BatchSender interface {
	SendBatch(to Addr, frames [][]byte) (int, error)
}

// BatchRecver is optionally implemented by transports that can surface
// several received frames per wakeup — one recvmmsg syscall (plus GRO
// coalescing) on the Linux UDP fast path. RecvBatch blocks like Recv
// until at least one frame is available, then fills out with up to
// len(out) frames and returns the count. Each returned frame must be
// Released exactly as if it came from Recv.
type BatchRecver interface {
	RecvBatch(ctx context.Context, out []Frame) (int, error)
}

// Poller is optionally implemented by transports whose receive queue can
// be taken from without blocking. It is what lets one goroutine drive a
// session (session.Step) in virtual time: Poll returns the next queued
// frame, or false when none has arrived. Each returned frame must be
// Released exactly as if it came from Recv.
type Poller interface {
	Poll() (Frame, bool)
}

// SendBatch sends frames to one peer through t, using the transport's
// batch path when it has one and falling back to per-frame Send
// otherwise. It returns how many frames were handed to the network.
func SendBatch(t Transport, to Addr, frames [][]byte) (int, error) {
	if bs, ok := t.(BatchSender); ok {
		return bs.SendBatch(to, frames)
	}
	for i, f := range frames {
		if err := t.Send(to, f); err != nil {
			return i, err
		}
	}
	return len(frames), nil
}

// RecvBatch receives up to len(out) frames from t in one call, blocking
// until at least one is available. Transports without a batch path
// deliver exactly one frame per call, so callers can consume any
// Transport through this one loop. len(out) must be at least 1.
func RecvBatch(ctx context.Context, t Transport, out []Frame) (int, error) {
	if br, ok := t.(BatchRecver); ok {
		return br.RecvBatch(ctx, out)
	}
	f, err := t.Recv(ctx)
	if err != nil {
		return 0, err
	}
	out[0] = f
	return 1, nil
}
