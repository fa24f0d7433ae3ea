package session

import (
	"maps"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"time"

	"ltnc/internal/adapt"
	"ltnc/internal/packet"
	"ltnc/internal/transport"
)

// The receipt-clocked push on a stepNet: a few sessions on recording
// transports and one virtual clock, driven the way internal/simnet drives a
// swarm — Step for every node with work, what each recorded carried to the
// next, the clock moved to the earliest deadline — and small enough to
// read a pacer's every round off it. (The tests that plant frames and count
// what one push round emits still call push() themselves, push_test.go's
// shape.)

type stepNet struct {
	t     *testing.T
	clk   *transport.VClock
	names []transport.Addr // stepping order
	nodes map[transport.Addr]*Session
	recs  map[transport.Addr]*recTransport
	next  map[transport.Addr]time.Time // each node's Step deadline
	id    packet.ObjectID              // the object served at names[0]
	// delay is what a hop costs: zero and a frame is answered within the
	// instant it was sent in (the event clock), half a Tick and a round
	// trip is a tick, a Tick and a frame crosses one hop per tick with the
	// timer round the only one that sees it.
	delay time.Duration
	// lose sees every frame sent, to a node or not, and decides what the
	// network drops.
	lose   func(from, to transport.Addr, frame []byte) bool
	flight []carried // in send order, which at a constant delay is arrival order
	// stepped, if set, is called after every Step, what it sent in flight.
	stepped func(name transport.Addr)
	// data counts the DATA frames each node has emitted, receipts the
	// receipt reports delivered.
	data     map[transport.Addr]int
	receipts int
}

type carried struct {
	at       time.Time
	from, to transport.Addr
	frame    []byte
}

// newStepNet builds one session per name on one clock: the
// first serves a k·m-byte object and pushes it down the line, the one
// named "relay" relays; mut adjusts every node's config.
func newStepNet(t *testing.T, k, m int, seed int64, mut func(*Config), names ...transport.Addr) *stepNet {
	t.Helper()
	return newStepNetG(t, k, 1, m, seed, mut, names...)
}

// newStepNetG is newStepNet with the object served in gens generations.
func newStepNetG(t *testing.T, k, gens, m int, seed int64, mut func(*Config), names ...transport.Addr) *stepNet {
	t.Helper()
	n := &stepNet{
		t: t, clk: transport.NewVClock(), names: names,
		nodes: make(map[transport.Addr]*Session), recs: make(map[transport.Addr]*recTransport),
		next: make(map[transport.Addr]time.Time), data: make(map[transport.Addr]int),
	}
	for _, name := range names {
		n.nodes[name], n.recs[name], _ = pushSession(t, name, func(c *Config) {
			c.Clock, c.Relay = n.clk, name == "relay"
			if mut != nil {
				mut(c)
			}
		})
	}
	id, err := n.nodes[names[0]].Serve(testContent(k*m, seed), k, gens)
	if err != nil {
		t.Fatal(err)
	}
	n.id = id
	for i := 1; i < len(names)-1; i++ {
		n.nodes[names[i-1]].AddPeer(names[i])
	}
	return n
}

// subscribe has the last node want the object — it only watches: a
// fetch-only session decodes what it asked for — and its subscription
// reach its predecessor.
func (n *stepNet) subscribe() *stepNet {
	last := len(n.names) - 1
	n.nodes[n.names[last]].Watch(n.id, func(ObjectStats) {})
	injectFrame(n.nodes[n.names[last-1]], n.names[last], subReport(n.id))
	return n
}

// subscribes reports whether frame, on its way from → to, is a report
// that subscribes from at to: not flagged complete, from a peer to holds
// no entry for or one that said complete.
func (n *stepNet) subscribes(from, to transport.Addr, f []byte) bool {
	if r, ok := parseReport(f); !ok || r.Flags&packet.ReportComplete != 0 {
		return false
	}
	st := n.nodes[to].objects[n.id]
	if st == nil {
		return true
	}
	ps := st.peers[from]
	return ps == nil || ps.done
}

// settle runs the current instant to its fixed point: what is due is
// delivered, every node with a frame queued or its deadline come is
// stepped, and what they sent is put in flight, until a pass moves nothing.
func (n *stepNet) settle() {
	now := n.clk.Now()
	for pass := 0; ; pass++ {
		if pass == 1<<16 {
			n.t.Fatalf("the instant at %v does not settle", now.Sub(transport.VClockBase))
		}
		for len(n.flight) > 0 && !n.flight[0].at.After(now) {
			c := n.flight[0]
			n.flight = n.flight[1:]
			if rec := n.recs[c.to]; rec != nil {
				rec.deliver(c.from, c.frame)
				n.receipts += btoi(isReport(c.frame))
			}
		}
		moved := false
		for _, name := range n.names {
			if len(n.recs[name].inbox) == 0 && n.next[name].After(now) {
				continue
			}
			moved = true
			n.next[name] = n.nodes[name].Step()
			sent := n.recs[name].take()
			for _, to := range slices.Sorted(maps.Keys(sent)) {
				for _, f := range sent[to] {
					n.data[name] += btoi(f[0] == packet.FrameData)
					if n.lose == nil || !n.lose(name, to, f) {
						n.flight = append(n.flight, carried{now.Add(n.delay), name, to, f})
					}
				}
			}
			if n.stepped != nil {
				n.stepped(name)
			}
		}
		if !moved {
			return
		}
	}
}

// run settles every instant of the next d of virtual time — the one the
// clock stands at included, the one it ends at left for the next run — and
// returns the DATA frames each node emitted meanwhile.
func (n *stepNet) run(d time.Duration) map[transport.Addr]int {
	before := maps.Clone(n.data)
	for end := n.clk.Now().Add(d); ; {
		n.settle()
		at := end
		if len(n.flight) > 0 && n.flight[0].at.Before(at) {
			at = n.flight[0].at
		}
		for _, t := range n.next {
			if t.Before(at) {
				at = t
			}
		}
		n.clk.AdvanceTo(at)
		if at == end {
			break
		}
	}
	out := make(map[transport.Addr]int)
	for name, c := range n.data {
		out[name] = c - before[name]
	}
	return out
}

// tick is one Tick of run.
func (n *stepNet) tick() map[transport.Addr]int { return n.run(n.nodes[n.names[0]].cfg.Tick) }

func (n *stepNet) fetched() ObjectStats {
	st, _ := n.nodes[n.names[len(n.names)-1]].Object(n.id)
	return st
}

// newPacedLink is a source pushing one object at a fetcher over a link
// whose round trip is one tick: each tick is one source timer round, the
// DATA it emitted carried across, and the fetcher's replies carried back
// in time for the next.
func newPacedLink(t *testing.T, k, m int, seed int64) *stepNet {
	n := newStepNet(t, k, m, seed, nil, "src", "dst").subscribe()
	n.delay = n.nodes["src"].cfg.Tick / 2
	return n
}

// TestQueuesHoldTwoWindows pins the sizes the pacer's queue argument rests
// on (DESIGN.md §16): the window cap spans two receiver batches, so a
// sender refills one while its receiver decodes the other; every default
// queue a window can fill — the ingest shard queue, and the Switch and
// simnet ports, which both take transport.DefaultQueueDepth — holds two
// full windows; and a full window with the probe's two rows past it stays
// under the 128 send sequences a stamp tells apart.
func TestQueuesHoldTwoWindows(t *testing.T) {
	if adapt.MaxBurst < 2*ingestBatchMax {
		t.Errorf("window cap %d is under two receiver batches of %d", adapt.MaxBurst, ingestBatchMax)
	}
	for name, depth := range map[string]int{
		"ingest shard queue": ingestQueueLen,
		"default port queue": transport.DefaultQueueDepth,
	} {
		if depth < 2*adapt.MaxBurst {
			t.Errorf("%s holds %d frames, under two full windows of %d", name, depth, adapt.MaxBurst)
		}
	}
	if adapt.MaxBurst+2 >= packet.StampFlag {
		t.Errorf("%d rows in flight past the stamp's %d send sequences", adapt.MaxBurst+2, packet.StampFlag)
	}
}

// TestPacedRampReachesCap: on a clean link the burst climbs from its
// start to adapt.MaxBurst within two receipts a doubling — the first
// fold's, then log₂(MaxBurst/start) more — never exceeds it, tapers as the
// fetcher's innovative count closes in on k, and stops when the completion
// feedback lands.
func TestPacedRampReachesCap(t *testing.T) {
	l := newPacedLink(t, 2048, 16, 31)
	atCap, peak, sent := -1, 0, 0
	var bursts []int
	for tick := 0; tick < 400 && !l.fetched().Complete; tick++ {
		n := l.tick()["src"]
		bursts = append(bursts, n)
		sent += n
		peak = max(peak, n)
		if n == adapt.MaxBurst && atCap < 0 {
			atCap = l.receipts
		}
	}
	if !l.fetched().Complete {
		t.Fatalf("fetch incomplete after %d ticks (bursts %v)", len(bursts), bursts)
	}
	// The first tick carries the start window; log₂(MaxBurst/start)
	// doublings lead from there to the cap, and the first fold's one more.
	doublings := bits.Len(uint(adapt.MaxBurst/bursts[0])) - 1
	ramp := 2 * (doublings + 1)
	if atCap < 0 || atCap > ramp {
		t.Errorf("burst reached the cap after %d receipts, want ≤ %d (bursts %v)", atCap, ramp, bursts[:min(len(bursts), 40)])
	}
	if peak > adapt.MaxBurst {
		t.Errorf("a tick carried %d frames, the cap is %d", peak, adapt.MaxBurst)
	}
	if last := bursts[len(bursts)-1]; last > adapt.MaxBurst/2 {
		t.Errorf("the burst did not taper toward completion: last tick carried %d frames", last)
	}
	if ticks := len(bursts); ticks > sent/adapt.MaxBurst+60 {
		t.Errorf("%d rows took %d ticks: the burst did not stay near the cap", sent, ticks)
	}
	if n := l.tick()["src"] + l.tick()["src"]; n != 0 {
		t.Errorf("%d frames pushed after the completion feedback", n)
	}
	t.Logf("cap after %d receipts; %d rows in %d ticks; first ticks %v, last %v",
		atCap, sent, len(bursts), bursts[:16], bursts[len(bursts)-8:])
}

// TestPacedLegacyFloor: a peer that never sends a receipt — any version
// before this one — sees the burst decay to one frame a tick, the pace it
// always had, and its fetch still completes.
func TestPacedLegacyFloor(t *testing.T) {
	l := newPacedLink(t, 256, 16, 32)
	l.lose = func(_, _ transport.Addr, f []byte) bool { return isReport(f) }
	var bursts []int
	for tick := 0; tick < 2000 && !l.fetched().Complete; tick++ {
		bursts = append(bursts, l.tick()["src"])
	}
	if !l.fetched().Complete {
		t.Fatalf("receipt-less fetch incomplete after %d ticks", len(bursts))
	}
	for i, n := range bursts {
		if n < 1 {
			t.Fatalf("tick %d pushed nothing: the floor is one frame a tick (bursts %v)", i, bursts)
		}
	}
	if len(bursts) < 60 {
		t.Fatalf("fetch done in %d ticks: too short to see the decay", len(bursts))
	}
	for i, n := range bursts[50:] {
		if n != 1 {
			t.Fatalf("tick %d pushed %d frames with no receipt ever seen, want the floor of 1 (bursts %v)", 50+i, n, bursts)
		}
	}
}

// TestPacedLossLevelVersusStep: steady 20 % loss in both directions is a
// level — the burst keeps near the cap through it — while the same link
// suddenly dropping most of what it carries is a step, and halves it.
func TestPacedLossLevelVersusStep(t *testing.T) {
	l := newPacedLink(t, 16384, 16, 33)
	rng := rand.New(rand.NewSource(34))
	loss := 0.20
	l.lose = func(_, _ transport.Addr, _ []byte) bool { return rng.Float64() < loss }
	sum, n := 0, 0
	for tick := 0; tick < 200; tick++ {
		b := l.tick()["src"]
		if tick >= 40 { // past the ramp
			sum += b
			n++
		}
	}
	if l.fetched().Complete {
		t.Fatal("object too small: the fetch finished inside the steady phase")
	}
	mean := float64(sum) / float64(n)
	if mean < 0.6*adapt.MaxBurst {
		t.Errorf("mean burst %.1f under steady 20%% loss: the level collapsed the pace (cap %d)", mean, adapt.MaxBurst)
	}
	lossEst := l.nodes["src"].objects[l.id].peers["dst"].link.Loss()
	if lossEst < 0.1 || lossEst > 0.35 {
		t.Errorf("loss estimate %.2f on a 20%% link", lossEst)
	}
	// The step: only DATA drops (a queue overflowing under the burst), so
	// receipts keep arriving and each one carries the bad news.
	l.lose = func(_, _ transport.Addr, f []byte) bool { return f[0] == packet.FrameData && rng.Float64() < 0.8 }
	low := adapt.MaxBurst
	for tick := 0; tick < 30; tick++ {
		low = min(low, l.tick()["src"])
	}
	if low > adapt.MaxBurst/4 {
		t.Errorf("burst never fell below %d through an 80%% drop step", low)
	}
	t.Logf("steady 20%% loss: mean burst %.1f, loss estimate %.2f; lowest burst through the step %d", mean, lossEst, low)
}

// TestPacedForgedReceiptsStayOnTheirLink: a subscriber flooding forged
// receipts — over-claims, under-claims, counters running backwards and
// wrapping uint32, and behind each a forged departure count (everything
// sent, past what was sent, backwards, wrapping), one before every push
// round, several rounds a tick as its wake-ups would have it — never has
// more than adapt.MaxBurst rows in flight on its link (two more for the
// probe) nor gets more than adapt.TickCeiling in a tick, and the honest
// peer next to it gets, tick for tick, the rows it would have got alone —
// which, its window turned over by receipts, stay under the ceiling.
func TestPacedForgedReceiptsStayOnTheirLink(t *testing.T) {
	const roundsPerTick = 6
	run := func(withLiar bool) (honest []int, liarPeak, flightPeak int) {
		s, rec, clk := pushSession(t, "src", nil)
		id, err := s.Serve(testContent(512*16, 35), 512, 1)
		if err != nil {
			t.Fatal(err)
		}
		injectFrame(s, "honest", subReport(id))
		if withLiar {
			injectFrame(s, "z-liar", subReport(id))
		}
		// Mostly an over-claim growing faster than any sender could push —
		// what keeps a window wide open — and every eighth receipt one of
		// the contradictions.
		contradictions := [][2]uint32{
			{0, 0},                 // under-claim, and backwards
			{1<<32 - 8, 1<<32 - 8}, // about to wrap
			{7, 7},                 // wrapped
			{1 << 30, 1 << 31},     // innovative > received
			{1<<32 - 1, 1<<32 - 1}, // the ceiling
		}
		forged := func(i int) (recv, inno uint32) {
			if i%8 == 7 {
				c := contradictions[i/8%len(contradictions)]
				return c[0], c[1]
			}
			return uint32(i%8+1) << 20, uint32(i%8+1) << 20
		}
		departed := func(i int, sent uint32) uint32 {
			return [...]uint32{sent, sent + 1<<20, sent / 2, 1<<32 - 8 + uint32(i)}[i%4]
		}
		got := uint32(0)
		for tick := 0; tick < 120; tick++ {
			mine, liars := 0, 0
			for round := 0; round < roundsPerTick; round++ {
				s.push()
				frames := rec.take()
				_, n := frameCounts(frames["honest"])
				mine += n
				if got += uint32(n); n > 0 { // the honest queue ran dry behind them
					injectFrame(s, "honest", receiptFrame(id, 0, got, got))
				}
				_, n = frameCounts(frames["z-liar"])
				liars += n
				if withLiar {
					link := &s.objects[id].peers["z-liar"].link
					flightPeak = max(flightPeak, link.InFlight())
					i := tick*roundsPerTick + round
					recv, inno := forged(i)
					injectFrame(s, "z-liar", reportFrame(packet.Report{Object: id, Received: recv, Innovative: inno, Departed: departed(i, uint32(link.Sent()))}))
				}
			}
			honest = append(honest, mine)
			liarPeak = max(liarPeak, liars)
			clk.Advance(s.cfg.Tick)
		}
		return honest, liarPeak, flightPeak
	}
	alone, _, _ := run(false)
	beside, liarPeak, flightPeak := run(true)
	if liarPeak > adapt.TickCeiling {
		t.Errorf("forged receipts bought %d frames in one tick, the ceiling is %d", liarPeak, adapt.TickCeiling)
	}
	if flightPeak > adapt.MaxBurst+2 {
		t.Errorf("forged receipts put %d rows in flight, the cap is %d and the probe's two", flightPeak, adapt.MaxBurst)
	}
	t.Logf("liar peak %d rows a tick, %d in flight; honest peak %d", liarPeak, flightPeak, slices.Max(alone))
	if liarPeak <= adapt.MaxBurst {
		t.Errorf("the liar peaked at %d frames a tick: its flood never turned a window over, the test exercised nothing", liarPeak)
	}
	if !slices.Equal(alone, beside) {
		t.Errorf("honest peer's rows moved beside a liar:\n alone  %v\n beside %v", alone, beside)
	}
	// The window paces an honest link, its receipts turning it over once a
	// round; the ceiling is there for liars and never binds it.
	if peak := slices.Max(alone); peak >= adapt.TickCeiling || peak <= adapt.MaxBurst {
		t.Errorf("honest peer peaked at %d frames a tick, want more than a window (%d) and under the ceiling %d", peak, adapt.MaxBurst, adapt.TickCeiling)
	}
}

// TestRelayRemembersEarlyREQ: a subscription that reaches a relay a tick before
// the object's first DATA frame does registers the subscriber instead of
// being dropped — the requester's next report is 250 ms off, longer than a
// paced transfer — within the relay's object bound; a fetch-only session
// still ignores subscriptions for objects it does not hold.
func TestRelayRemembersEarlyREQ(t *testing.T) {
	src, srcRec, srcClk := pushSession(t, "src", nil)
	src.AddPeer("relay")
	id, err := src.Serve(testContent(64*16, 36), 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	relay, relayRec, relayClk := pushSession(t, "relay", func(c *Config) { c.Relay = true; c.MaxObjects = 2 })
	injectFrame(relay, "sub", subReport(id))
	if st, ok := relay.Object(id); !ok || st.Subscribers != 1 {
		t.Fatalf("relay dropped the early subscription: held %v, %+v", ok, st)
	}
	for i := 0; i < 40; i++ {
		pushTicks(src, srcClk, 1)
		feed(relay, srcRec)
		pushTicks(relay, relayClk, 1)
	}
	if _, data := frameCounts(relayRec.take()["sub"]); data == 0 {
		t.Error("the early subscriber was never pushed to once the relay held the object")
	}

	other := packet.NewObjectID([]byte("another early one"))
	injectFrame(relay, "sub", subReport(other))
	injectFrame(relay, "sub", subReport(packet.NewObjectID([]byte("one too many"))))
	if n := len(relay.Objects()); n != 2 {
		t.Errorf("relay holds %d objects after subscriptions for unknown ids, want its MaxObjects bound of 2", n)
	}

	plain, _, _ := pushSession(t, "plain", nil)
	injectFrame(plain, "sub", subReport(id))
	if n := len(plain.Objects()); n != 0 {
		t.Errorf("a fetch-only session registered %d objects from a stranger's subscription", n)
	}
}

// TestRelayCutThrough: source → relay → fetcher, receipt-clocked,
// lossless. The relay forwards what it decodes in the wake-up that decoded
// it — it does not wait for the generation, for a tick, or for anything
// but the aggressiveness gate's first k/100 rows, which the source's
// opening windows deliver inside the first instant — so a second hop adds
// no tick at all, and the fetcher needs nothing beyond the k plain rows.
// With the tick as the only clock (a hop a tick) every hop still costs
// ticks; the event clock is what removed them.
func TestRelayCutThrough(t *testing.T) {
	const k, m, seed = 1024, 16, 38
	run := func(relayed, immediate bool) (ticks, firstIn, firstOut int, stats ObjectStats) {
		names := []transport.Addr{"src", "dst"}
		if relayed {
			names = []transport.Addr{"src", "relay", "dst"}
		}
		c := newStepNet(t, k, m, seed, nil, names...).subscribe()
		if !immediate {
			c.delay = c.nodes["src"].cfg.Tick
		}
		firstIn, firstOut = -1, -1
		for ; ticks < 1000 && !c.fetched().Complete; ticks++ {
			data := c.tick()
			if firstIn < 0 && relayed && data["src"] > 0 {
				firstIn = ticks
			}
			if firstOut < 0 && data["relay"] > 0 {
				firstOut = ticks
			}
		}
		return ticks, firstIn, firstOut, c.fetched()
	}
	direct, _, _, _ := run(false, true)
	relayed, in, out, stats := run(true, true)
	ticked, tin, tout, _ := run(true, false)
	t.Logf("direct fetch %d ticks; through the relay %d ticks, first DATA in at tick %d, out at tick %d, overhead %.3f; a hop a tick %d ticks, in %d, out %d",
		direct, relayed, in, out, stats.Overhead(), ticked, tin, tout)
	if !stats.Complete {
		t.Fatalf("fetch through the relay incomplete after %d ticks", relayed)
	}
	if in != 0 || out != in {
		t.Errorf("relay's first DATA out at tick %d, first DATA in at tick %d: want both in the first instant", out, in)
	}
	if relayed > direct+1 {
		t.Errorf("fetch through the relay took %d ticks, direct %d: the second hop should add none", relayed, direct)
	}
	if stats.Overhead() != 1 {
		t.Errorf("fetcher overhead %.3f on a lossless fabric, want exactly 1", stats.Overhead())
	}
	if tout-tin < 1 || ticked <= relayed {
		t.Errorf("a hop a tick: out %d, in %d, %d ticks against %d: the comparison exercised nothing", tout, tin, ticked, relayed)
	}
}

// TestReceiptClockedFetch: with receipts as the clock a lossless direct
// fetch of 1,024 natives takes fewer timer ticks than the k/MaxBurst a
// window a tick would need — the window turns over as often as the
// receiver answers — while no tick carries more than adapt.TickCeiling
// rows, and nothing but the k plain rows is needed.
func TestReceiptClockedFetch(t *testing.T) {
	const k = 1024
	c := newStepNet(t, k, 16, 39, nil, "src", "dst").subscribe()
	ticks, peak := 0, 0
	for ; ticks < 1000 && !c.fetched().Complete; ticks++ {
		peak = max(peak, c.tick()["src"])
	}
	stats := c.fetched()
	t.Logf("%d natives in %d ticks, %d receipts, peak %d rows a tick", k, ticks, c.receipts, peak)
	if !stats.Complete || stats.Overhead() != 1 {
		t.Fatalf("complete %v, overhead %.3f after %d ticks", stats.Complete, stats.Overhead(), ticks)
	}
	if ticks >= k/adapt.MaxBurst {
		t.Errorf("fetch took %d ticks: a window a tick needs %d, receipts should beat it", ticks, k/adapt.MaxBurst)
	}
	if peak > adapt.TickCeiling {
		t.Errorf("a tick carried %d rows, the ceiling is %d", peak, adapt.TickCeiling)
	}
}

// TestReceiptFlushedOnDrain: a sender at its start window has fewer rows
// in flight than the receiptEvery a receipt used to wait for, and still
// gets one: the receiver reports what it holds when its queue runs dry,
// and the report — not the next tick — is what releases the next window.
func TestReceiptFlushedOnDrain(t *testing.T) {
	c := newStepNet(t, 256, 16, 40, nil, "src", "dst").subscribe()
	first := c.nodes["src"].objects[c.id].peers["dst"].link.Window()
	if first >= receiptEvery {
		t.Fatalf("start window %d is not smaller than receiptEvery %d: the test exercises nothing", first, receiptEvery)
	}
	c.settle()
	if c.receipts == 0 {
		t.Fatalf("no receipt for the %d rows of the first instant", c.data["src"])
	}
	if c.data["src"] <= first {
		t.Errorf("%d rows in the first instant, the start window is %d: the flushed receipt did not clock a second window", c.data["src"], first)
	}
	// Without the drain nothing is owed until receiptEvery rows: a batch
	// with more behind it carries no receipt, the one the queue runs dry
	// behind reports for both.
	dst, rec, _ := pushSession(t, "dst", nil)
	content := testContent(256*16, 40)
	dst.Watch(c.id, func(ObjectStats) {})
	var scratch ingestScratch
	for i, last := range []bool{false, true} { // two batches of one row, the queue dry behind the second
		in, _ := dst.parseFrame(transport.NewFrame("src", handRow(t, c.id, content, 1, 256, 0, false, 254+i), nil))
		dst.ingestBatch([]inFrame{in}, &scratch, last)
	}
	answers := rec.take()["src"]
	// Hand-built rows carry no stamp: the receipt's departure count is 0.
	// No run came, so the receipt says it needs run 0.
	if len(answers) != 1 || !isNeed(answers[0]) {
		t.Fatalf("two rows in two batches answered by %d frames %x, want one receipt needing run 0", len(answers), answers)
	}
	if _, recv, _, dep := reportCounters(answers[0]); recv != 2 || dep != 0 {
		t.Errorf("the receipt reports %d rows, departed %d; want both rows, departed 0", recv, dep)
	}
}

// TestIdleSessionParksTimer: a session with nobody to push to asks to be
// stepped at the housekeeping cadence, not every Tick — and the subscription
// that gives it a target un-parks it in that very Step.
func TestIdleSessionParksTimer(t *testing.T) {
	src, rec, clk := pushSession(t, "source", nil)
	id, err := src.Serve(testContent(64*16, 41), 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	evictEvery := time.Second // min(1 s, IdleTimeout/4)
	for steps := 0; clk.Since(transport.VClockBase) < 3*time.Second; steps++ {
		next := src.Step()
		if idle := next.Sub(clk.Now()); idle < evictEvery {
			t.Fatalf("step %d of an idle session asks for the next in %v, want the eviction period %v", steps, idle, evictEvery)
		}
		clk.AdvanceTo(next)
	}
	rec.deliver("sub", subReport(id))
	if next := src.Step(); next.Sub(clk.Now()) != src.cfg.Tick {
		t.Errorf("with a subscriber the next step is due in %v, want a Tick (%v)", next.Sub(clk.Now()), src.cfg.Tick)
	}
	// The manifest and DATA have left with the clock standing still.
	if man, data := frameCounts(rec.take()["sub"]); man != 1 || data == 0 {
		t.Errorf("a parked source answered a subscription with %d MANIFEST and %d DATA frames in the Step that took it", man, data)
	}
}

// TestFetchRetriesLostREQ: a fetch whose first subscription (the report
// that took the retired REQ's place) the network dropped asks again within
// ten ticks — not a quarter of a second later, longer than the whole paced
// transfer — and one whose subscription was answered sends no second one
// before the steady resend is due. No DATA crosses, so every report the
// fetcher sends is a subscription.
func TestFetchRetriesLostREQ(t *testing.T) {
	for _, dropped := range []bool{true, false} {
		n := newStepNet(t, 64, 16, 42, nil, "src", "dst")
		reqs := 0
		n.lose = func(_, to transport.Addr, f []byte) bool {
			if isReport(f) {
				reqs++
				return dropped && reqs == 1
			}
			return f[0] == packet.FrameData // the run answers the subscription; the transfer must not end the fetch
		}
		dst := n.nodes["dst"]
		f, err := dst.BeginFetch(n.id, "src")
		if err != nil {
			t.Fatal(err)
		}
		n.next["dst"] = n.clk.Now() // called into: step it
		n.settle()
		if reqs != 1 {
			t.Fatalf("fetch opened with %d subscriptions, want 1", reqs)
		}
		start := n.clk.Now()
		ticks := 0
		for ; ticks < 10 && reqs < 2; ticks++ {
			n.tick()
		}
		if dropped && reqs != 2 {
			t.Errorf("subscription lost: %d sent after %d ticks, want the retry", reqs, ticks)
		}
		if !dropped {
			n.run(reqResend - n.clk.Since(start) - dst.cfg.Tick)
			if reqs != 1 {
				t.Errorf("subscription answered: %d sent before the %v resend was due, want 1", reqs, reqResend)
			}
			n.run((reqRetry + 2) * dst.cfg.Tick)
			if reqs != 2 {
				t.Errorf("subscription answered: %d sent once the %v resend was due, want 2", reqs, reqResend)
			}
		}
		f.End()
	}
}
