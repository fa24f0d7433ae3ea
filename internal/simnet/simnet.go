// Package simnet is a deterministic discrete-event network fabric for
// exercising the real dissemination stack (internal/session) at swarm
// scale in virtual time. A Net is a set of ports implementing
// transport.Transport, joined by directed links with configurable loss,
// latency, jitter, bandwidth and MTU; partitions split the fabric and
// heal, ports crash and join. Every random decision — loss coins, jitter
// draws — comes from per-link RNG streams derived from one seed, one for
// DATA frames and one for the rest, so control frames move no DATA verdict.
//
// Time is virtual and the whole fabric runs on one goroutine: the Net owns
// a transport.VClock that every session on it shares, and Run is a stepper
// over one event heap. Per instant, the deliveries and callbacks that are
// due run in (time, registration) order; every driven port with work — a
// queued frame, or its own deadline come — is stepped in address order
// (Port.Drive: a session's Step, or an actor's), again and again until
// nothing due is left; then the clock moves to the earliest of the heap
// and the steppers' deadlines. Nothing waits for anything, so a run is a
// pure function of its seed: two runs produce byte-identical per-frame
// traces (TraceHash), and a sixty-second churn scenario takes a fraction
// of a wall second.
//
// The scenario engine on top (scenario.go) turns a declarative Scenario —
// node counts, wiring, link shapes, a timeline of churn/partition events —
// into a swarm of real sessions and checks the global invariants the
// dissemination protocol promises: byte-identical fetch completion,
// monotone Watch progress, bounded per-packet headers, bounded
// redundancy overhead, no deadlock.
package simnet

import (
	"cmp"
	"container/heap"
	"context"
	"crypto/sha256"
	"fmt"
	"hash"
	"hash/fnv"
	"slices"
	"time"

	"ltnc/internal/packet"
	"ltnc/internal/transport"
	"ltnc/internal/xrand"
)

// LinkConfig shapes one directed link of the fabric.
type LinkConfig struct {
	// Loss drops each frame independently with this probability in [0,1).
	Loss float64
	// Latency is the fixed propagation delay; Jitter adds a uniform draw
	// in [0, Jitter) on top, so frames can overtake each other.
	Latency time.Duration
	Jitter  time.Duration
	// BandwidthBPS serializes frames at this many bytes per virtual
	// second (0 = infinite): a frame's delivery waits for the link to
	// drain everything sent before it.
	BandwidthBPS int64
	// MTU drops frames larger than this many bytes (0 = transport.MaxFrame).
	MTU int
}

// Config parameterizes a Net.
type Config struct {
	// Seed drives every random decision in the fabric (default 1).
	Seed int64
	// DefaultLink shapes links with no SetLink override.
	DefaultLink LinkConfig
	// QueueDepth bounds each port's inbound queue (default
	// transport.DefaultQueueDepth, as a Switch port's); frames arriving at
	// a full queue are dropped, as at an overloaded receiver.
	QueueDepth int
	// Grid quantizes delivery times up to its multiples (default 1ms).
	// Coarser grids batch deliveries into fewer instants to settle —
	// virtual time resolution traded for wall-time speed.
	Grid time.Duration
	// Trace digests every frame verdict into TraceHash (default off).
	Trace bool
	// Inspect, when set, sees every frame offered to the fabric before
	// any verdict. The bytes are only valid during the call. Scenario
	// invariant checks (header bounds) hook in here.
	Inspect func(from, to transport.Addr, frame []byte)
}

func (c *Config) setDefaults() error {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = transport.DefaultQueueDepth
	}
	if c.QueueDepth < 1 {
		return fmt.Errorf("simnet: queue depth %d < 1", c.QueueDepth)
	}
	if c.Grid == 0 {
		c.Grid = time.Millisecond
	}
	if c.Grid < 0 {
		return fmt.Errorf("simnet: grid %v < 0", c.Grid)
	}
	return checkLink(c.DefaultLink)
}

func checkLink(lc LinkConfig) error {
	if lc.Loss < 0 || lc.Loss >= 1 {
		return fmt.Errorf("simnet: loss %v outside [0,1)", lc.Loss)
	}
	if lc.Latency < 0 || lc.Jitter < 0 {
		return fmt.Errorf("simnet: negative latency or jitter")
	}
	if lc.BandwidthBPS < 0 {
		return fmt.Errorf("simnet: bandwidth %d < 0", lc.BandwidthBPS)
	}
	if lc.MTU < 0 {
		return fmt.Errorf("simnet: MTU %d < 0", lc.MTU)
	}
	return nil
}

// Verdict classifies the fate of one frame offered to the fabric.
type Verdict uint8

// The possible frame fates.
const (
	Delivered     Verdict = iota // queued at the destination port
	DropLoss                     // lost to the link's loss coin
	DropMTU                      // exceeded the link MTU
	DropQueue                    // destination queue full
	DropDown                     // destination not attached (down or never existed)
	DropPartition                // sender and destination in different partition groups
)

// String names the verdict as used in traces and reports.
func (v Verdict) String() string {
	switch v {
	case Delivered:
		return "delivered"
	case DropLoss:
		return "loss"
	case DropMTU:
		return "mtu"
	case DropQueue:
		return "queue"
	case DropDown:
		return "down"
	case DropPartition:
		return "partition"
	default:
		return fmt.Sprintf("verdict(%d)", uint8(v))
	}
}

// Stats aggregates the fabric's frame accounting.
type Stats struct {
	Sent          int64 // frames offered (excluding oversize errors)
	Delivered     int64
	DropLoss      int64
	DropMTU       int64
	DropQueue     int64
	DropDown      int64
	DropPartition int64
}

type linkKey struct{ from, to transport.Addr }

type link struct {
	cfg       LinkConfig
	data, ctl uint64    // draw streams (xrand.SplitMix64 state): DATA frames', the rest's
	seq       uint64    // per-link frame counter (send order)
	nextFree  time.Time // bandwidth serialization horizon
}

// event is one scheduled occurrence: a callback, or with fn nil the
// delivery of a frame.
type event struct {
	at  time.Time
	seq uint64
	fn  func()
	del delivery
}

type delivery struct {
	from, to transport.Addr
	data     []byte // the fabric's own copy of the frame
	linkSeq  uint64
	sentAt   time.Time
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Net is the deterministic virtual-time network fabric. Create with New,
// attach ports, Drive the ones something steps, Run, and Close when done.
// One goroutine owns a Net and everything on it.
type Net struct {
	cfg Config
	clk *transport.VClock

	ports     map[transport.Addr]*Port
	driven    []*Port // the ports with a stepper, in address order
	links     map[linkKey]*link
	overrides map[linkKey]LinkConfig
	groups    map[transport.Addr]int // partition membership; nil = healed
	events    eventHeap
	eseq      uint64
	traceSum  hash.Hash // the running trace digest; nil unless Config.Trace
	verdicts  [6]int64
	sent      int64
}

// New builds a fabric at virtual time zero (transport.VClockBase).
func New(cfg Config) (*Net, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	n := &Net{
		cfg:       cfg,
		clk:       transport.NewVClock(),
		ports:     make(map[transport.Addr]*Port),
		links:     make(map[linkKey]*link),
		overrides: make(map[linkKey]LinkConfig),
	}
	if cfg.Trace {
		n.traceSum = sha256.New()
	}
	return n, nil
}

// Clock returns the fabric's virtual clock; every session on the fabric
// must run on it (session.Config.Clock).
func (n *Net) Clock() *transport.VClock { return n.clk }

// Now returns the current virtual time; Elapsed the virtual time since
// the fabric's base instant.
func (n *Net) Now() time.Time         { return n.clk.Now() }
func (n *Net) Elapsed() time.Duration { return n.clk.Since(transport.VClockBase) }

// Close detaches every port and drops the frames still in flight.
func (n *Net) Close() error {
	for _, p := range n.ports {
		p.Close()
	}
	n.events = nil
	return nil
}

// Stats returns the frame accounting so far.
func (n *Net) Stats() Stats {
	return Stats{
		Sent:          n.sent,
		Delivered:     n.verdicts[Delivered],
		DropLoss:      n.verdicts[DropLoss],
		DropMTU:       n.verdicts[DropMTU],
		DropQueue:     n.verdicts[DropQueue],
		DropDown:      n.verdicts[DropDown],
		DropPartition: n.verdicts[DropPartition],
	}
}

// After schedules fn to run once d of virtual time has passed — the hook
// timeline events (churn, partitions) hang off. Callbacks at equal
// deadlines run in registration order, ahead of the steppers of their
// instant.
func (n *Net) After(d time.Duration, fn func()) {
	n.pushEvent(&event{at: n.clk.Now().Add(d), fn: fn})
}

func (n *Net) pushEvent(ev *event) {
	ev.seq = n.eseq
	n.eseq++
	heap.Push(&n.events, ev)
}

// maxRounds bounds the passes one instant may take to settle. Zero-delay
// links let frames cross, and be answered, within an instant; an exchange
// that never ends is a bug in whoever is exchanging, and Run reports it.
const maxRounds = 1 << 16

// Run steps the fabric, instant by instant, until done reports true, ctx
// is cancelled (both checked once each instant has settled) or something
// is wrong: an instant that does not settle within maxRounds passes, or
// nothing left to happen — no event pending and no stepper with a
// deadline — with done still false.
func (n *Net) Run(ctx context.Context, done func() bool) error {
	for {
		if err := n.settle(); err != nil {
			return err
		}
		if done() || ctx.Err() != nil {
			return nil
		}
		t, ok := n.nextTime()
		if !ok {
			return fmt.Errorf("simnet: nothing left to happen at %v", n.Elapsed())
		}
		n.clk.AdvanceTo(t)
	}
}

// settle runs the current instant to its fixed point: due events, then
// every stepper with work in address order, until a pass finds nothing.
// Steppers may send, poll and reshape links; attaching and closing ports
// is for callbacks.
func (n *Net) settle() error {
	now := n.clk.Now()
	for round := 0; round < maxRounds; round++ {
		worked := n.runDue(now)
		for _, p := range n.driven {
			if p.queued() > 0 || !p.next.After(now) {
				p.next = p.step()
				worked = true
			}
		}
		if !worked {
			return nil
		}
	}
	return fmt.Errorf("simnet: the instant at %v did not settle in %d passes", n.Elapsed(), maxRounds)
}

// nextTime is the earliest instant anything is due: the event heap's head
// or a stepper's deadline.
func (n *Net) nextTime() (t time.Time, ok bool) {
	if len(n.events) > 0 {
		t, ok = n.events[0].at, true
	}
	for _, p := range n.driven {
		if !ok || p.next.Before(t) {
			t, ok = p.next, true
		}
	}
	return t, ok
}

// runDue executes every event due at or before t, including events
// scheduled at t by the events themselves (zero-delay chains), and
// reports whether there was any.
func (n *Net) runDue(t time.Time) (ran bool) {
	for len(n.events) > 0 && !n.events[0].at.After(t) {
		ev := heap.Pop(&n.events).(*event)
		if ev.fn != nil {
			ev.fn()
		} else {
			n.deliver(&ev.del)
		}
		ran = true
	}
	return ran
}

// SetLink overrides the directed link from → to (both directions must be
// set separately — that is what makes asymmetric links expressible). It
// applies to frames sent after the call; the link's RNG stream and frame
// counter are preserved across reconfiguration.
func (n *Net) SetLink(from, to transport.Addr, lc LinkConfig) error {
	if err := checkLink(lc); err != nil {
		return err
	}
	key := linkKey{from, to}
	n.overrides[key] = lc
	if l, ok := n.links[key]; ok {
		l.cfg = lc
	}
	return nil
}

// Partition splits the fabric: frames between addresses in different
// groups are dropped at delivery time (in-flight frames included).
// Addresses in no group keep full connectivity. A new Partition replaces
// the previous one; Heal removes it.
func (n *Net) Partition(groups ...[]transport.Addr) {
	n.groups = make(map[transport.Addr]int)
	for gi, g := range groups {
		for _, a := range g {
			n.groups[a] = gi
		}
	}
}

// Heal removes the current partition.
func (n *Net) Heal() { n.groups = nil }

func (n *Net) partitioned(from, to transport.Addr) bool {
	gf, okf := n.groups[from]
	gt, okt := n.groups[to]
	return okf && okt && gf != gt
}

// link returns (creating on first use) the state of the directed link
// from → to. The link's draw streams are seeded from the fabric seed and
// the endpoint names only, so one link's draw sequence is independent of
// traffic on every other link, and the control stream's from the DATA
// stream's seed. (A stream is eight bytes of SplitMix64 state: a
// thousand-node gossip swarm has a hundred thousand links.)
func (n *Net) link(from, to transport.Addr) *link {
	key := linkKey{from, to}
	if l, ok := n.links[key]; ok {
		return l
	}
	cfg, ok := n.overrides[key]
	if !ok {
		cfg = n.cfg.DefaultLink
	}
	h := fnv.New64a()
	h.Write([]byte(from))
	h.Write([]byte{0})
	h.Write([]byte(to))
	seed := uint64(n.cfg.Seed) ^ h.Sum64()
	ctl := seed
	l := &link{cfg: cfg, data: seed, ctl: xrand.SplitMix64(&ctl)}
	n.links[key] = l
	return l
}

// Attach creates a port with the given address. Attaching an address that
// is currently attached fails; a crashed (closed) address may be reused.
func (n *Net) Attach(addr transport.Addr) (*Port, error) {
	if addr == "" {
		return nil, fmt.Errorf("simnet: empty address")
	}
	if _, ok := n.ports[addr]; ok {
		return nil, fmt.Errorf("simnet: address %q already attached", addr)
	}
	p := &Port{net: n, addr: addr}
	n.ports[addr] = p
	return p, nil
}

// send is the fabric entry point for one frame: the verdict that can be
// decided at send time (MTU, loss) is taken here with the per-link RNG,
// and surviving frames are scheduled for delivery after the link's
// serialization, latency and jitter delays.
func (n *Net) send(from, to transport.Addr, frame []byte) error {
	if len(frame) > transport.MaxFrame {
		return transport.ErrFrameTooBig
	}
	if n.cfg.Inspect != nil {
		n.cfg.Inspect(from, to, frame)
	}
	n.sent++
	l := n.link(from, to)
	now := n.clk.Now()
	rec := TraceRec{From: from, To: to, Seq: l.seq, Size: len(frame), SentAt: now, At: now}
	l.seq++
	// Fixed draw order per link and frame class regardless of the frame's
	// fate: no verdict shifts the stream for the frames after it.
	rng := &l.ctl
	if len(frame) > 0 && frame[0] == packet.FrameData {
		rng = &l.data
	}
	lossDraw := float64(xrand.SplitMix64(rng)>>11) / (1 << 53)
	var jit time.Duration
	if l.cfg.Jitter > 0 {
		jit = time.Duration(xrand.SplitMix64(rng) % uint64(l.cfg.Jitter))
	}
	mtu := l.cfg.MTU
	if mtu == 0 {
		mtu = transport.MaxFrame
	}
	if rec.Verdict = DropMTU; len(frame) > mtu {
		n.finish(rec)
		return nil
	}
	if rec.Verdict = DropLoss; l.cfg.Loss > 0 && lossDraw < l.cfg.Loss {
		n.finish(rec)
		return nil
	}
	at := now.Add(l.cfg.Latency + jit)
	if l.cfg.BandwidthBPS > 0 {
		start := now
		if l.nextFree.After(start) {
			start = l.nextFree
		}
		ser := time.Duration(float64(len(frame)) / float64(l.cfg.BandwidthBPS) * float64(time.Second))
		l.nextFree = start.Add(ser)
		at = l.nextFree.Add(l.cfg.Latency + jit)
	}
	if g := n.cfg.Grid; g > 0 {
		// Quantize up to the grid so deliveries batch into few instants.
		off := at.Sub(transport.VClockBase)
		at = transport.VClockBase.Add((off + g - 1) / g * g)
	}
	n.pushEvent(&event{at: at, del: delivery{
		from: from, to: to, data: slices.Clone(frame), linkSeq: rec.Seq, sentAt: now,
	}})
	return nil
}

// finish records one decided frame fate.
func (n *Net) finish(rec TraceRec) {
	n.verdicts[rec.Verdict]++
	if n.traceSum != nil {
		n.record(rec)
	}
}

// deliver executes one due delivery event: the destination must still be
// attached and reachable across any partition, and have queue room.
func (n *Net) deliver(d *delivery) {
	rec := TraceRec{From: d.from, To: d.to, Seq: d.linkSeq, Size: len(d.data), SentAt: d.sentAt, At: n.clk.Now()}
	dst, up := n.ports[d.to]
	switch {
	case !up:
		rec.Verdict = DropDown
	case n.partitioned(d.from, d.to):
		rec.Verdict = DropPartition
	case dst.queued() >= n.cfg.QueueDepth:
		rec.Verdict = DropQueue
	default:
		rec.Verdict = Delivered
		dst.queue = append(dst.queue, transport.NewFrame(d.from, d.data, nil))
	}
	n.finish(rec)
}

// Port is one attachment point of the fabric; it implements
// transport.Transport and transport.Poller, so a real session steps on
// it unchanged.
type Port struct {
	net    *Net
	addr   transport.Addr
	queue  []transport.Frame // queue[head:] is delivered, not yet polled; at most Config.QueueDepth
	head   int
	closed bool
	step   func() time.Time // nil: nobody drives the port, its holder polls it
	next   time.Time        // the deadline step last returned
}

var (
	_ transport.Transport = (*Port)(nil)
	_ transport.Poller    = (*Port)(nil)
)

// Drive hands the port's side of the fabric to step: Run calls it at the
// first instant it can, then whenever a frame is queued at the port or
// the deadline the last call returned has come — which must lie after the
// instant it was called in. A session's Step is one; the scenario actors
// are others.
func (p *Port) Drive(step func() (next time.Time)) {
	p.step = step
	i, _ := slices.BinarySearchFunc(p.net.driven, p.addr, func(q *Port, a transport.Addr) int {
		return cmp.Compare(q.addr, a)
	})
	p.net.driven = slices.Insert(p.net.driven, i, p)
}

// LocalAddr returns the port's address on the fabric.
func (p *Port) LocalAddr() transport.Addr { return p.addr }

// Send offers one frame to the fabric. Sending to an address that is not
// attached is not an error — the frame vanishes, as a datagram to a dead
// host would (the DropDown counter records it).
func (p *Port) Send(to transport.Addr, frame []byte) error {
	if p.closed {
		return transport.ErrClosed
	}
	return p.net.send(p.addr, to, frame)
}

func (p *Port) queued() int { return len(p.queue) - p.head }

// Poll returns the next delivered frame, if one is queued.
func (p *Port) Poll() (transport.Frame, bool) {
	if p.queued() == 0 {
		return transport.Frame{}, false
	}
	f := p.queue[p.head]
	p.queue[p.head] = transport.Frame{}
	if p.head++; p.head == len(p.queue) {
		p.queue, p.head = p.queue[:0], 0
	}
	return f, true
}

// Recv is Poll behind the transport.Transport signature. The fabric has
// one goroutine, so a frame that is not queued cannot arrive while Recv
// waits: with none it fails on a closed port and otherwise sits out ctx.
func (p *Port) Recv(ctx context.Context) (transport.Frame, error) {
	if f, ok := p.Poll(); ok {
		return f, nil
	}
	if p.closed {
		return transport.Frame{}, transport.ErrClosed
	}
	<-ctx.Done()
	return transport.Frame{}, ctx.Err()
}

// Close detaches the port: its stepper is not called again, in-flight
// frames toward it are dropped as DropDown, queued frames are released.
func (p *Port) Close() error {
	if p.closed {
		return nil
	}
	p.closed = true
	delete(p.net.ports, p.addr)
	p.net.driven = slices.DeleteFunc(p.net.driven, func(q *Port) bool { return q == p })
	for f, ok := p.Poll(); ok; f, ok = p.Poll() {
		f.Release()
	}
	return nil
}
