package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
)

// udpConfig tunes the UDP transport; the zero value is what ListenUDP
// uses. Its fields exist so tests can reach paths the kernel otherwise
// chooses.
type udpConfig struct {
	// Batch is the frame count per recvmmsg/sendmmsg syscall (and the
	// segment count cap for a GSO super-send). Default 32, max 64 (the
	// kernel's UDP_MAX_SEGMENTS). A socket that took UDP_GRO arms
	// min(Batch, 8) recvmmsg slots instead: each slot holds a MaxFrame
	// buffer, and there each message may be a super-datagram of up to 64
	// frames.
	Batch int
	// RingSize is the reader's ring capacity in frames; when the ring is
	// full the reader parks and lets the kernel socket buffer absorb the
	// burst, so nothing is dropped in user space. Default 1024.
	RingSize int
	// DisableGSO / DisableGRO turn off segmentation-offload probing
	// individually while keeping sendmmsg/recvmmsg batching.
	DisableGSO bool
	DisableGRO bool
}

func (c *udpConfig) setDefaults() {
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
// the raw material for bench/'s transport.syscalls_per_frame.
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
	// BatchEnabled/GSO/GRO report what socket setup probing found.
	BatchEnabled bool
	GSO          bool
	GRO          bool
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

// UDPTransport implements Transport over one UDP socket. One reader
// goroutine reads the socket a batch at a time into a lock-free ring,
// and Recv and RecvBatch take frames off the ring. On Linux amd64/arm64
// a batch is one recvmmsg (with GRO where the kernel accepts it) and
// SendBatch rides sendmmsg/GSO; everywhere else a batch is one
// ReadFromUDP and SendBatch sends frame by frame (see udp_linux.go /
// udp_fallback.go). Receive buffers come from the process-wide frame
// pool (GetBuf/PutBuf), so the steady-state receive path performs no
// per-datagram allocation; callers return buffers with Frame.Release.
// Destination addresses are resolved once and cached.
type UDPTransport struct {
	cfg    udpConfig
	conn   *net.UDPConn
	peers  sync.Map // Addr -> *net.UDPAddr
	closed atomic.Bool
	done   chan struct{}

	ring     *spscRing
	space    chan struct{} // reader wakeup when the consumer frees room (cap 1)
	notify   chan struct{} // consumer wakeup when the reader pushes (cap 1)
	readDone chan struct{} // closed when the reader exits
	readErr  error         // why the reader exited; read after readDone

	stats udpCounters
	batch batchState
}

var _ Transport = (*UDPTransport)(nil)
var _ BatchSender = (*UDPTransport)(nil)
var _ BatchRecver = (*UDPTransport)(nil)

// ListenUDP opens a UDP transport bound to addr ("127.0.0.1:0" picks a
// free port; query LocalAddr for the result).
func ListenUDP(addr string) (*UDPTransport, error) {
	return listenUDP(addr, udpConfig{})
}

func listenUDP(addr string, cfg udpConfig) (*UDPTransport, error) {
	cfg.setDefaults()
	pc, err := net.ListenPacket("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %q: %w", addr, err)
	}
	t := &UDPTransport{
		cfg:      cfg,
		conn:     pc.(*net.UDPConn),
		done:     make(chan struct{}),
		ring:     newSPSCRing(cfg.RingSize),
		space:    make(chan struct{}, 1),
		notify:   make(chan struct{}, 1),
		readDone: make(chan struct{}),
	}
	read, err := t.initSocket()
	if err != nil {
		pc.Close()
		return nil, fmt.Errorf("transport: socket setup: %w", err)
	}
	go t.readLoop(read)
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
		BatchEnabled: batchSupported,
	}
	s.GSO, s.GRO = t.offloads()
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
	return t.sendBatch(to, frames)
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
	var one [1]Frame
	if _, err := t.recv(ctx, one[:]); err != nil {
		return Frame{}, err
	}
	return one[0], nil
}

// RecvBatch fills out with every frame already queued (blocking for the
// first), up to len(out): whole socket reads, GRO splits included,
// surface in one call.
func (t *UDPTransport) RecvBatch(ctx context.Context, out []Frame) (int, error) {
	if len(out) == 0 {
		return 0, nil
	}
	return t.recv(ctx, out)
}

// readLoop is the socket's one reader: it reads a batch with read and
// pushes the frames into the ring. A full ring parks the reader (after
// waking the consumer) so back-pressure lands in the kernel socket
// buffer instead of dropping in user space. It exits when read fails,
// which Close makes happen, or when Close finds it parked.
func (t *UDPTransport) readLoop(read func([]Frame) ([]Frame, error)) {
	defer close(t.readDone)
	batch := make([]Frame, 0, 2*t.cfg.Batch)
	for {
		var err error
		if batch, err = read(batch[:0]); err != nil {
			t.readErr = err
			return
		}
		for k, f := range batch {
			batch[k] = Frame{}
			for !t.ring.push(f) {
				wake(t.notify)
				select {
				case <-t.space:
				case <-t.done:
					f.Release()
					for _, rest := range batch[k+1:] {
						rest.Release()
					}
					return
				}
			}
		}
		wake(t.notify)
	}
}

// recv is the consumer that Recv and RecvBatch share: it pops what the
// ring holds into out, parking on notify while it is empty. Once the
// transport is closed every pending or later call fails with ErrClosed,
// and frames still in the ring go back to the pool. A reader that failed
// for any other reason leaves its error to every call after the ring
// runs dry.
func (t *UDPTransport) recv(ctx context.Context, out []Frame) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	readerGone := false
	for {
		if t.closed.Load() {
			t.ring.drain()
			return 0, ErrClosed
		}
		n := 0
		for n < len(out) {
			f, ok := t.ring.pop()
			if !ok {
				break
			}
			out[n] = f
			n++
		}
		if n > 0 {
			wake(t.space)
			return n, nil
		}
		if readerGone {
			return 0, fmt.Errorf("transport: recv: %w", t.readErr)
		}
		select {
		case <-t.notify:
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-t.readDone:
			// Sweep once more: the reader's last pushes are visible now.
			readerGone = true
		}
	}
}

// wake signals a cap-1 wakeup channel without blocking; a signal already
// pending covers this one.
func wake(c chan struct{}) {
	select {
	case c <- struct{}{}:
	default:
	}
}

// Close shuts the socket down; a blocked Recv returns ErrClosed.
func (t *UDPTransport) Close() error {
	if t.closed.Swap(true) {
		return nil
	}
	close(t.done)
	err := t.conn.Close()
	<-t.readDone
	return err
}
