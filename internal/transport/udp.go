package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// UDPConfig tunes the UDP transport. The zero value is the default used
// by ListenUDP: batched I/O where the platform supports it (Linux
// amd64/arm64: recvmmsg/sendmmsg with UDP GSO/GRO when the kernel
// accepts them), a single receive shard, 32-frame batches.
type UDPConfig struct {
	// Readers is the number of receive shards. With Readers > 1 on the
	// Linux fast path the transport binds that many SO_REUSEPORT sockets
	// to the same port, each drained by its own goroutine into a
	// lock-free SPSC ring — the kernel hashes peers across the sockets,
	// so independent flows land on independent cores. Clamped to 1 on
	// platforms without the fast path. Default 1.
	Readers int
	// Batch is the frame count per recvmmsg/sendmmsg syscall (and the
	// segment count cap for a GSO super-send). Default 32, max 64 (the
	// kernel's UDP_MAX_SEGMENTS). A receive shard whose socket took
	// UDP_GRO arms min(Batch, 8) recvmmsg slots instead: each slot holds
	// a MaxFrame buffer, and there each message may be a super-datagram
	// of up to 64 frames.
	Batch int
	// RingSize is the per-reader ring capacity in frames; when a ring is
	// full the reader parks and lets the kernel socket buffer absorb the
	// burst, so nothing is dropped in user space. Default 1024.
	RingSize int
	// DisableBatch forces the portable per-frame syscall path even where
	// the fast path is available — the escape hatch, and the baseline
	// leg of the transport benchmark.
	DisableBatch bool
	// DisableGSO / DisableGRO turn off segmentation-offload probing
	// individually while keeping sendmmsg/recvmmsg batching.
	DisableGSO bool
	DisableGRO bool
}

func (c *UDPConfig) setDefaults() {
	if c.Readers <= 0 || c.DisableBatch || !batchSupported {
		c.Readers = 1
	}
	if c.Batch <= 0 {
		c.Batch = 32
	}
	if c.Batch > 64 {
		c.Batch = 64
	}
	if c.RingSize < c.Batch {
		c.RingSize = 1024
	}
}

// UDPStats is a snapshot of the transport's syscall and frame counters,
// the raw material for the syscalls/packet numbers in BENCH_decode.json.
// Syscall counts are maintained by the transport itself (one increment
// per read/write operation handed to the kernel), so no strace is needed
// to measure the batching win.
type UDPStats struct {
	// SendSyscalls counts write-side syscalls (WriteToUDP, sendmmsg and
	// GSO sendmsg each count once); SentFrames the frames they carried.
	SendSyscalls int64
	SentFrames   int64
	// RecvSyscalls counts read-side syscalls; RecvMessages the datagrams
	// they filled, a GRO super-datagram once; RecvFrames the frames those
	// produced (after GRO splitting).
	RecvSyscalls int64
	RecvMessages int64
	RecvFrames   int64
	// GSOBatches counts sends that rode a GSO super-payload; GROFrames
	// counts frames recovered by splitting GRO super-datagrams.
	GSOBatches int64
	GROFrames  int64
	// BatchEnabled/GSO/GRO report what socket setup probing found;
	// Readers is the active receive shard count.
	BatchEnabled bool
	GSO          bool
	GRO          bool
	Readers      int
}

type udpCounters struct {
	sendSyscalls atomic.Int64
	sentFrames   atomic.Int64
	recvSyscalls atomic.Int64
	recvMessages atomic.Int64
	recvFrames   atomic.Int64
	gsoBatches   atomic.Int64
	groFrames    atomic.Int64
}

// UDPTransport implements Transport over UDP sockets. On Linux
// amd64/arm64 it runs a batched fast path — recvmmsg readers feeding
// lock-free rings, sendmmsg/GSO on the way out — and everywhere else a
// portable per-frame path with identical semantics (see udp_linux.go /
// udp_fallback.go). Receive buffers come from the process-wide frame
// pool (GetBuf/PutBuf), so the steady-state receive path performs no
// per-datagram allocation; callers return buffers with Frame.Release.
// Destination addresses are resolved once and cached.
type UDPTransport struct {
	cfg    UDPConfig
	conn   *net.UDPConn
	peers  sync.Map // Addr -> *net.UDPAddr
	closed atomic.Bool
	done   chan struct{}

	// Context-cancellation watcher for the portable blocking read path:
	// one goroutine per distinct context, armed on first use, that calls
	// SetReadDeadline(past) exactly once on cancellation. The steady
	// state receive path performs no deadline syscalls at all (the old
	// implementation paid one SetReadDeadline per datagram to poll a
	// 250ms rolling deadline).
	watchMu   sync.Mutex
	watchCtx  context.Context
	watchStop chan struct{}

	// rbuf is the portable path's read buffer, touched only by the one
	// consumer that calls Recv; nil once a large frame has taken it.
	rbuf *[]byte

	stats udpCounters
	batch batchState
}

var _ Transport = (*UDPTransport)(nil)
var _ BatchSender = (*UDPTransport)(nil)
var _ BatchRecver = (*UDPTransport)(nil)

// ListenUDP opens a UDP transport bound to addr ("127.0.0.1:0" picks a
// free port; query LocalAddr for the result) with the default UDPConfig.
func ListenUDP(addr string) (*UDPTransport, error) {
	return ListenUDPConfig(addr, UDPConfig{})
}

// ListenUDPConfig opens a UDP transport with explicit batching, shard
// and offload settings.
func ListenUDPConfig(addr string, cfg UDPConfig) (*UDPTransport, error) {
	cfg.setDefaults()
	lc := net.ListenConfig{Control: reusePortControl(cfg)}
	pc, err := lc.ListenPacket(context.Background(), "udp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %q: %w", addr, err)
	}
	t := &UDPTransport{
		cfg:  cfg,
		conn: pc.(*net.UDPConn),
		done: make(chan struct{}),
	}
	if err := t.initBatch(); err != nil {
		pc.Close()
		return nil, fmt.Errorf("transport: batch setup: %w", err)
	}
	return t, nil
}

// LocalAddr returns the bound "host:port".
func (t *UDPTransport) LocalAddr() Addr { return Addr(t.conn.LocalAddr().String()) }

// Stats snapshots the syscall/frame counters and the probed capabilities.
func (t *UDPTransport) Stats() UDPStats {
	s := UDPStats{
		SendSyscalls: t.stats.sendSyscalls.Load(),
		SentFrames:   t.stats.sentFrames.Load(),
		RecvSyscalls: t.stats.recvSyscalls.Load(),
		RecvMessages: t.stats.recvMessages.Load(),
		RecvFrames:   t.stats.recvFrames.Load(),
		GSOBatches:   t.stats.gsoBatches.Load(),
		GROFrames:    t.stats.groFrames.Load(),
		Readers:      1,
	}
	s.BatchEnabled, s.GSO, s.GRO, s.Readers = t.batchInfo()
	return s
}

// Send transmits one datagram to the peer at "host:port".
func (t *UDPTransport) Send(to Addr, frame []byte) error {
	if t.closed.Load() {
		return ErrClosed
	}
	if len(frame) > MaxFrame {
		return ErrFrameTooBig
	}
	dst, err := t.resolve(to)
	if err != nil {
		return err
	}
	t.stats.sendSyscalls.Add(1)
	if _, err := t.conn.WriteToUDP(frame, dst); err != nil {
		// Mirror Recv: a send into a socket closed under us is the
		// transport's own lifecycle, not an opaque network error.
		if t.closed.Load() || errors.Is(err, net.ErrClosed) {
			return ErrClosed
		}
		return fmt.Errorf("transport: send to %s: %w", to, err)
	}
	t.stats.sentFrames.Add(1)
	return nil
}

// SendBatch transmits frames to one peer, batching them through
// sendmmsg/GSO on the fast path (a fraction of a syscall per frame) and
// degrading to per-frame sends elsewhere. It returns how many frames
// were handed to the kernel before the first error.
func (t *UDPTransport) SendBatch(to Addr, frames [][]byte) (int, error) {
	if t.closed.Load() {
		return 0, ErrClosed
	}
	for _, f := range frames {
		if len(f) > MaxFrame {
			return 0, ErrFrameTooBig
		}
	}
	if t.batchEnabled() {
		return t.sendBatchMmsg(to, frames)
	}
	for i, f := range frames {
		if err := t.Send(to, f); err != nil {
			return i, err
		}
	}
	return len(frames), nil
}

func (t *UDPTransport) resolve(to Addr) (*net.UDPAddr, error) {
	if cached, ok := t.peers.Load(to); ok {
		return cached.(*net.UDPAddr), nil
	}
	ua, err := net.ResolveUDPAddr("udp", string(to))
	if err != nil {
		return nil, fmt.Errorf("%w: %q: %v", ErrUnknownPeer, to, err)
	}
	t.peers.Store(to, ua)
	return ua, nil
}

// Recv blocks for the next datagram. The returned frame's buffer belongs
// to the transport's pool: call Release when done with Data.
func (t *UDPTransport) Recv(ctx context.Context) (Frame, error) {
	if t.batchEnabled() {
		var one [1]Frame
		if _, err := t.recvBatchRings(ctx, one[:]); err != nil {
			return Frame{}, err
		}
		return one[0], nil
	}
	return t.recvDirect(ctx)
}

// RecvBatch fills out with every frame already queued (blocking for the
// first), up to len(out). On the fast path whole recvmmsg batches and
// GRO splits surface in one call; the portable path yields one frame per
// call.
func (t *UDPTransport) RecvBatch(ctx context.Context, out []Frame) (int, error) {
	if len(out) == 0 {
		return 0, nil
	}
	if t.batchEnabled() {
		return t.recvBatchRings(ctx, out)
	}
	f, err := t.recvDirect(ctx)
	if err != nil {
		return 0, err
	}
	out[0] = f
	return 1, nil
}

// recvDirect is the portable blocking receive: one ReadFromUDP syscall
// per datagram, zero deadline syscalls in the steady state (context
// cancellation is delegated to the armed watcher). It reads into the
// transport's MaxFrame buffer and keeps the fast path's lone-datagram
// rule: a datagram of at most smallFrame bytes is copied out to a buffer
// of its own size class, since it may wait in an ingest queue, and a
// larger one takes the buffer with it.
func (t *UDPTransport) recvDirect(ctx context.Context) (Frame, error) {
	if t.closed.Load() {
		return Frame{}, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return Frame{}, err
	}
	t.watch(ctx)
	if t.rbuf == nil {
		t.rbuf = GetBuf()
	}
	for {
		t.stats.recvSyscalls.Add(1)
		n, from, err := t.conn.ReadFromUDP(*t.rbuf)
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				if cerr := ctx.Err(); cerr != nil {
					return Frame{}, cerr
				}
				if t.closed.Load() {
					return Frame{}, ErrClosed
				}
				// A stale wake-deadline left by a previous context's
				// watcher that lost the re-arm race: clear it and retry.
				t.conn.SetReadDeadline(time.Time{})
				continue
			}
			if t.closed.Load() || errors.Is(err, net.ErrClosed) {
				return Frame{}, ErrClosed
			}
			return Frame{}, fmt.Errorf("transport: recv: %w", err)
		}
		t.stats.recvMessages.Add(1)
		t.stats.recvFrames.Add(1)
		addr, data := Addr(from.String()), (*t.rbuf)[:n]
		if n <= smallFrame {
			return copyFrame(addr, data), nil
		}
		bufp := t.rbuf
		t.rbuf = nil
		return Frame{From: addr, Data: data, release: func() { PutBuf(bufp) }}, nil
	}
}

// watch arms the cancellation watcher for ctx; consecutive receives
// under the same context reuse the armed watcher, so the hot path does
// no work beyond one mutex handoff. On cancellation the watcher performs
// a single SetReadDeadline(past) to wake the blocked reader.
func (t *UDPTransport) watch(ctx context.Context) {
	if ctx.Done() == nil {
		return
	}
	t.watchMu.Lock()
	defer t.watchMu.Unlock()
	if t.watchCtx == ctx {
		return
	}
	if t.watchStop != nil {
		close(t.watchStop)
	}
	// A previous watcher may have left its wake-deadline on the socket.
	t.conn.SetReadDeadline(time.Time{})
	stop := make(chan struct{})
	t.watchCtx, t.watchStop = ctx, stop
	go func() {
		select {
		case <-ctx.Done():
			t.conn.SetReadDeadline(time.Unix(1, 0))
		case <-stop:
		case <-t.done:
		}
	}()
}

// Close shuts the socket down; a blocked Recv returns ErrClosed.
func (t *UDPTransport) Close() error {
	if t.closed.Swap(true) {
		return nil
	}
	close(t.done)
	err := t.conn.Close()
	t.closeBatch()
	return err
}
