package transport

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultQueueDepth is the default depth, in frames, of a Switch port's
// inbound queue and of a simnet port's: twice the largest window a sender
// may have in flight toward one receiver (adapt.MaxBurst), so a full window
// fills at most half a port.
const DefaultQueueDepth = 128

// SwitchConfig parameterizes the in-memory network.
type SwitchConfig struct {
	// LossRate drops each frame independently with this probability
	// (default 0: lossless).
	LossRate float64
	// Latency delays every delivery by a fixed duration (default 0:
	// synchronous handoff, fully deterministic).
	Latency time.Duration
	// Jitter adds a uniformly random extra delay in [0, Jitter) to each
	// delivery, drawn from the seeded rng. With Jitter > 0 frames overtake
	// each other, so tests can inject deterministic reordering on top of
	// loss and queue overflow. Requires Latency or Jitter-only operation;
	// default 0 (no reordering).
	Jitter time.Duration
	// QueueDepth bounds each port's inbound queue; frames arriving at a
	// full queue are dropped, modelling an overloaded receiver. Default
	// DefaultQueueDepth, 128.
	QueueDepth int
	// Seed drives the loss coin (default 1, deterministic).
	Seed int64
}

func (c *SwitchConfig) setDefaults() error {
	if c.LossRate < 0 || c.LossRate >= 1 {
		return fmt.Errorf("transport: loss rate %v outside [0,1)", c.LossRate)
	}
	if c.Latency < 0 {
		return fmt.Errorf("transport: latency %v < 0", c.Latency)
	}
	if c.Jitter < 0 {
		return fmt.Errorf("transport: jitter %v < 0", c.Jitter)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.QueueDepth < 1 {
		return fmt.Errorf("transport: queue depth %d < 1", c.QueueDepth)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return nil
}

// Switch is an in-memory datagram network: a set of named ports with
// configurable loss, latency and queue depth. It is the deterministic
// test double for real sockets — the same node code runs over a Switch
// port or a UDPTransport.
type Switch struct {
	cfg SwitchConfig

	mu    sync.Mutex
	ports map[Addr]*ChanTransport
	rng   *rand.Rand

	lost    atomic.Int64 // frames dropped by the loss coin
	dropped atomic.Int64 // frames dropped at full queues
	timers  sync.WaitGroup
}

// NewSwitch builds an in-memory network.
func NewSwitch(cfg SwitchConfig) (*Switch, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	return &Switch{
		cfg:   cfg,
		ports: make(map[Addr]*ChanTransport),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}, nil
}

// Lost returns the number of frames dropped by loss injection.
func (s *Switch) Lost() int64 { return s.lost.Load() }

// Dropped returns the number of frames dropped at full receive queues.
func (s *Switch) Dropped() int64 { return s.dropped.Load() }

// Attach creates a port with the given address and returns its transport.
func (s *Switch) Attach(addr Addr) (*ChanTransport, error) {
	if addr == "" {
		return nil, fmt.Errorf("transport: empty address")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.ports[addr]; ok {
		return nil, fmt.Errorf("transport: address %q already attached", addr)
	}
	t := &ChanTransport{
		sw:     s,
		addr:   addr,
		queue:  make(chan Frame, s.cfg.QueueDepth),
		closed: make(chan struct{}),
	}
	s.ports[addr] = t
	return t, nil
}

// Wait blocks until all in-flight latency timers have fired; tests call it
// before asserting on delivery counts.
func (s *Switch) Wait() { s.timers.Wait() }

func (s *Switch) deliver(from, to Addr, frame []byte) error {
	if len(frame) > MaxFrame {
		return ErrFrameTooBig
	}
	s.mu.Lock()
	dst, ok := s.ports[to]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownPeer, to)
	}
	drop := s.cfg.LossRate > 0 && s.rng.Float64() < s.cfg.LossRate
	delay := s.cfg.Latency
	if s.cfg.Jitter > 0 {
		delay += time.Duration(s.rng.Int63n(int64(s.cfg.Jitter)))
	}
	s.mu.Unlock()
	if drop {
		s.lost.Add(1)
		return nil
	}
	// The receiver owns the frame; copy into a pooled buffer so senders may
	// reuse theirs. Release (or a drop on the way in) returns the buffer.
	f := copyFrame(from, frame)
	if delay == 0 {
		s.push(dst, f)
		return nil
	}
	s.timers.Add(1)
	time.AfterFunc(delay, func() {
		defer s.timers.Done()
		s.push(dst, f)
	})
	return nil
}

func (s *Switch) push(dst *ChanTransport, f Frame) {
	select {
	case <-dst.closed:
		f.Release()
	case dst.queue <- f:
	default:
		s.dropped.Add(1)
		dst.dropped.Add(1)
		f.Release()
	}
}

// ChanTransport is one port of a Switch.
type ChanTransport struct {
	sw        *Switch
	addr      Addr
	queue     chan Frame
	closed    chan struct{}
	closeOnce sync.Once
	dropped   atomic.Int64
}

var _ Transport = (*ChanTransport)(nil)
var _ BatchRecver = (*ChanTransport)(nil)

// LocalAddr returns the port's address on the switch.
func (t *ChanTransport) LocalAddr() Addr { return t.addr }

// Dropped returns the number of frames dropped at this port's full queue
// (the receiver was overloaded).
func (t *ChanTransport) Dropped() int64 { return t.dropped.Load() }

// Send delivers one frame to the named peer through the switch, subject
// to the switch's loss, latency and queue bounds.
func (t *ChanTransport) Send(to Addr, frame []byte) error {
	select {
	case <-t.closed:
		return ErrClosed
	default:
	}
	return t.sw.deliver(t.addr, to, frame)
}

// RecvBatch blocks for the first frame like Recv, then drains whatever
// else is already queued, up to len(out) — one wakeup per queued burst,
// mirroring the UDP fast path so session code consumes both through the
// same batch loop.
func (t *ChanTransport) RecvBatch(ctx context.Context, out []Frame) (int, error) {
	if len(out) == 0 {
		return 0, nil
	}
	f, err := t.Recv(ctx)
	if err != nil {
		return 0, err
	}
	out[0] = f
	n := 1
	for n < len(out) {
		select {
		case f := <-t.queue:
			out[n] = f
			n++
		default:
			return n, nil
		}
	}
	return n, nil
}

// Recv returns the next queued frame.
func (t *ChanTransport) Recv(ctx context.Context) (Frame, error) {
	select {
	case f := <-t.queue:
		return f, nil
	default:
	}
	select {
	case f := <-t.queue:
		return f, nil
	case <-ctx.Done():
		return Frame{}, ctx.Err()
	case <-t.closed:
		return Frame{}, ErrClosed
	}
}

// Close detaches the port from the switch.
func (t *ChanTransport) Close() error {
	t.closeOnce.Do(func() {
		close(t.closed)
		t.sw.mu.Lock()
		delete(t.sw.ports, t.addr)
		t.sw.mu.Unlock()
		// Return queued-but-undelivered frames to the pool.
		for {
			select {
			case f := <-t.queue:
				f.Release()
			default:
				return
			}
		}
	})
	return nil
}
