// Package transport is the public datagram layer under LTNC
// dissemination: a Transport sends and receives framed packets to and
// from peers identified by opaque addresses. Two implementations ship
// with it —
//
//   - Switch / ChanTransport, an in-memory network with injectable loss,
//     latency, jitter (reordering) and bounded receive queues, fully
//     deterministic from a seed, for tests and simulations;
//   - UDPTransport over a real net.UDPConn, drawing receive buffers from
//     a process-wide pool so the steady-state datagram path does not
//     allocate.
//
// The same session code (ltnc/swarm) runs unchanged over either: swap the
// Switch for real sockets by swapping the Transport. Custom transports
// (QUIC datagrams, an overlay, a broker) plug in by implementing the
// three-method Transport interface.
//
// This package is a facade over internal/transport: the types are
// aliases, so values cross the public/internal boundary freely and
// the internal session engine interoperates with transports constructed
// here.
package transport

import (
	"context"

	"ltnc/internal/transport"
)

// Addr is an opaque peer address. For UDPTransport it is "host:port"; for
// a Switch port it is whatever name the port was attached under.
type Addr = transport.Addr

// Frame is one received datagram. Data is valid until Release is called;
// receivers that keep bytes past Release must copy them.
type Frame = transport.Frame

// Transport sends and receives framed packets. Send must be safe for
// concurrent use with Recv and with other Sends; one consumer at a time
// may call Recv. Delivery is best-effort datagram semantics: no
// retransmission, frames may be dropped, and the frame buffer passed to
// Send belongs to the caller the moment Send returns.
type Transport = transport.Transport

// MaxFrame is the largest frame a Transport must accept.
const MaxFrame = transport.MaxFrame

// Errors shared by transport implementations.
var (
	// ErrClosed is returned once the transport is closed.
	ErrClosed = transport.ErrClosed
	// ErrUnknownPeer is returned when the destination cannot be resolved.
	ErrUnknownPeer = transport.ErrUnknownPeer
	// ErrFrameTooBig is returned for frames exceeding MaxFrame.
	ErrFrameTooBig = transport.ErrFrameTooBig
)

// NewFrame builds a frame with an optional release hook, for custom
// Transport implementations and tests.
func NewFrame(from Addr, data []byte, release func()) Frame {
	return transport.NewFrame(from, data, release)
}

// GetBuf returns a MaxFrame-capacity buffer from the process-wide frame
// pool (full length; reslice as needed). Custom Transport implementations
// use it to serialize and receive without per-datagram allocation; return
// it with PutBuf when the bytes are no longer live.
func GetBuf() *[]byte { return transport.GetBuf() }

// PutBuf returns a buffer obtained from GetBuf to the pool.
func PutBuf(buf *[]byte) { transport.PutBuf(buf) }

// SwitchConfig parameterizes the in-memory network: loss rate, fixed
// latency, jitter (which reorders), per-port queue depth and the seed
// driving the loss coin.
type SwitchConfig = transport.SwitchConfig

// Switch is an in-memory datagram network: a set of named ports with
// configurable loss, latency, jitter and queue depth. It is the
// deterministic test double for real sockets — the same session code runs
// over a Switch port or a UDPTransport.
type Switch = transport.Switch

// ChanTransport is one port of a Switch.
type ChanTransport = transport.ChanTransport

// NewSwitch builds an in-memory network.
func NewSwitch(cfg SwitchConfig) (*Switch, error) { return transport.NewSwitch(cfg) }

// UDPTransport implements Transport over one UDP socket with pooled
// receive buffers. One reader goroutine reads the socket into a
// lock-free ring that Recv and RecvBatch drain. On Linux amd64/arm64 it
// reads and sends in batches — recvmmsg/sendmmsg with UDP GSO/GRO
// segmentation offload where the kernel accepts it, probed at socket
// setup with silent fallback — and elsewhere frame by frame.
type UDPTransport = transport.UDPTransport

// UDPStats is a snapshot of a UDPTransport's self-maintained syscall
// and frame counters plus the capabilities socket setup probing found.
type UDPStats = transport.UDPStats

// ListenUDP opens a UDP transport bound to addr ("127.0.0.1:0" picks a
// free port; query LocalAddr for the result).
func ListenUDP(addr string) (*UDPTransport, error) { return transport.ListenUDP(addr) }

// BatchSender is optionally implemented by transports that can hand a
// whole per-peer batch to the kernel in fewer syscalls than per-frame
// Send calls.
type BatchSender = transport.BatchSender

// BatchRecver is optionally implemented by transports that can surface
// every already-queued frame in one call.
type BatchRecver = transport.BatchRecver

// SendBatch sends frames to one peer through t's BatchSender fast path
// when it has one, else by per-frame Send calls. It returns how many
// frames were handed to the network before the first error.
func SendBatch(t Transport, to Addr, frames [][]byte) (int, error) {
	return transport.SendBatch(t, to, frames)
}

// RecvBatch fills out with received frames — whole batches per call on
// transports implementing BatchRecver, one frame per call elsewhere —
// blocking only for the first frame.
func RecvBatch(ctx context.Context, t Transport, out []Frame) (int, error) {
	return transport.RecvBatch(ctx, t, out)
}

// Coalescer gathers outgoing frames per destination inside one flush
// window and hands each peer's gathering to SendBatch in bounded
// bursts; frames serialize into pooled slabs via Stage/Commit, so
// batching adds no copy to the send path. Not safe for concurrent use.
type Coalescer = transport.Coalescer

// NewCoalescer builds a coalescer over t. flushFrames bounds how many
// frames may pend for one peer before an early flush (0 means
// DefaultFlushFrames).
func NewCoalescer(t Transport, flushFrames int) *Coalescer {
	return transport.NewCoalescer(t, flushFrames)
}

// DefaultFlushFrames is the Coalescer's default per-peer flush window.
const DefaultFlushFrames = transport.DefaultFlushFrames
