package session

import (
	"context"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"ltnc/internal/adapt"
	"ltnc/internal/packet"
	"ltnc/internal/transport"
)

// The receipt-clocked push, in the push_test.go shape: recording
// transports, a virtual clock, push() and the frame handlers called
// directly on the test goroutine. A pacedLink is a source with Burst
// unset pushing one object at a fetching session over a hand-carried
// link, one round trip a tick: each step is one source timer round, the
// DATA it emitted carried across, and the fetcher's replies carried back.
// Wake-ups are left pending; pacedChain's immediate mode serves them.

type pacedLink struct {
	src, dst       *Session
	srcRec, dstRec *recTransport
	clk            *transport.VClock
	id             packet.ObjectID
	// lose decides, per frame and direction, what the link drops.
	lose func(frame []byte, toDst bool) bool
	// receipts counts kind-5 reports delivered to the source.
	receipts int
}

func newPacedLink(t *testing.T, k, m int, seed int64) *pacedLink {
	t.Helper()
	l := &pacedLink{}
	l.src, l.srcRec, l.clk = pushSession(t, "src", func(c *Config) { c.Burst = 0 })
	l.dst, l.dstRec, _ = pushSession(t, "dst", func(c *Config) { c.Burst = 0 })
	id, err := l.src.Serve(testContent(k*m, seed), k, 1)
	if err != nil {
		t.Fatal(err)
	}
	l.id = id
	l.dst.Watch(id, func(ObjectStats) {}) // a fetch-only session decodes what it asked for
	injectFrame(l.src, "dst", encodeReq(id))
	return l
}

// step runs one source tick and returns the DATA frames it emitted
// toward the fetcher.
func (l *pacedLink) step() (data int) {
	l.src.push()
	l.clk.Advance(l.src.cfg.Tick)
	var arrived [][]byte
	for _, f := range l.srcRec.take()["dst"] {
		if f[0] == frameData {
			data++
		}
		if l.lose == nil || !l.lose(f, true) {
			arrived = append(arrived, f)
		}
	}
	injectBurst(l.dst, "src", arrived)
	for _, f := range l.dstRec.take()["src"] {
		if l.lose != nil && l.lose(f, false) {
			continue
		}
		if isReceipt(f) {
			l.receipts++
		}
		injectFrame(l.src, "dst", f)
	}
	return data
}

func (l *pacedLink) complete() bool {
	st, _ := l.dst.Object(l.id)
	return st.Complete
}

// TestPacedRampReachesCap: on a clean link the burst climbs from its
// start to adapt.MaxBurst within eight receipts, never exceeds it, tapers
// as the fetcher's innovative count closes in on k, and stops when the
// completion feedback lands.
func TestPacedRampReachesCap(t *testing.T) {
	l := newPacedLink(t, 2048, 16, 31)
	atCap, peak, sent := -1, 0, 0
	var bursts []int
	for tick := 0; tick < 400 && !l.complete(); tick++ {
		n := l.step()
		bursts = append(bursts, n)
		sent += n
		peak = max(peak, n)
		if n == adapt.MaxBurst && atCap < 0 {
			atCap = l.receipts
		}
	}
	if !l.complete() {
		t.Fatalf("fetch incomplete after %d ticks (bursts %v)", len(bursts), bursts)
	}
	if atCap < 0 || atCap > 8 {
		t.Errorf("burst reached the cap after %d receipts, want ≤ 8 (bursts %v)", atCap, bursts[:min(len(bursts), 40)])
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
	if n := l.step() + l.step(); n != 0 {
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
	l.lose = func(f []byte, toDst bool) bool { return !toDst && isReceipt(f) }
	var bursts []int
	for tick := 0; tick < 2000 && !l.complete(); tick++ {
		bursts = append(bursts, l.step())
	}
	if !l.complete() {
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
	l := newPacedLink(t, 8192, 16, 33)
	rng := rand.New(rand.NewSource(34))
	loss := 0.20
	l.lose = func([]byte, bool) bool { return rng.Float64() < loss }
	sum, n := 0, 0
	for tick := 0; tick < 200; tick++ {
		b := l.step()
		if tick >= 40 { // past the ramp
			sum += b
			n++
		}
	}
	if l.complete() {
		t.Fatal("object too small: the fetch finished inside the steady phase")
	}
	mean := float64(sum) / float64(n)
	if mean < 0.6*adapt.MaxBurst {
		t.Errorf("mean burst %.1f under steady 20%% loss: the level collapsed the pace (cap %d)", mean, adapt.MaxBurst)
	}
	s := l.src
	s.mu.Lock()
	lossEst := s.objects[l.id].peers["dst"].link.Loss()
	s.mu.Unlock()
	if lossEst < 0.1 || lossEst > 0.35 {
		t.Errorf("loss estimate %.2f on a 20%% link", lossEst)
	}
	// The step: only DATA drops (a queue overflowing under the burst), so
	// receipts keep arriving and each one carries the bad news.
	l.lose = func(f []byte, toDst bool) bool { return toDst && f[0] == frameData && rng.Float64() < 0.8 }
	low := adapt.MaxBurst
	for tick := 0; tick < 30; tick++ {
		low = min(low, l.step())
	}
	if low > adapt.MaxBurst/4 {
		t.Errorf("burst never fell below %d through an 80%% drop step", low)
	}
	t.Logf("steady 20%% loss: mean burst %.1f, loss estimate %.2f; lowest burst through the step %d", mean, lossEst, low)
}

// TestPacedForgedReceiptsStayOnTheirLink: a subscriber flooding forged
// receipts — over-claims, under-claims, counters running backwards and
// wrapping uint32, one before every push round, several rounds a tick as
// its wake-ups would have it — never has more than adapt.MaxBurst rows in
// flight on its link nor gets more than adapt.TickCeiling in a tick, and
// the honest peer next to it gets, tick for tick, the rows it would have
// got alone.
func TestPacedForgedReceiptsStayOnTheirLink(t *testing.T) {
	const roundsPerTick = 6
	run := func(withLiar bool) (honest []int, liarPeak, flightPeak int) {
		s, rec, clk := pushSession(t, "src", func(c *Config) { c.Burst = 0 })
		id, err := s.Serve(testContent(512*16, 35), 512, 1)
		if err != nil {
			t.Fatal(err)
		}
		injectFrame(s, "honest", encodeReq(id))
		if withLiar {
			injectFrame(s, "z-liar", encodeReq(id))
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
		got := uint32(0)
		for tick := 0; tick < 120; tick++ {
			mine, liars := 0, 0
			for round := 0; round < roundsPerTick; round++ {
				s.push()
				frames := rec.take()
				_, _, n := frameCounts(frames["honest"])
				mine += n
				if got += uint32(n); n > 0 { // the honest queue ran dry behind them
					injectFrame(s, "honest", receiptFrame(id, 0, got, got))
				}
				_, _, n = frameCounts(frames["z-liar"])
				liars += n
				if withLiar {
					flightPeak = max(flightPeak, s.objects[id].peers["z-liar"].link.InFlight())
					recv, inno := forged(tick*roundsPerTick + round)
					injectFrame(s, "z-liar", receiptFrame(id, 0, recv, inno))
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
	if flightPeak > adapt.MaxBurst {
		t.Errorf("forged receipts put %d rows in flight, the cap is %d", flightPeak, adapt.MaxBurst)
	}
	t.Logf("liar peak %d rows a tick, %d in flight; honest peak %d", liarPeak, flightPeak, slices.Max(alone))
	if liarPeak <= adapt.MaxBurst {
		t.Errorf("the liar peaked at %d frames a tick: its flood never turned a window over, the test exercised nothing", liarPeak)
	}
	if !slices.Equal(alone, beside) {
		t.Errorf("honest peer's rows moved beside a liar:\n alone  %v\n beside %v", alone, beside)
	}
	if peak := slices.Max(alone); peak != adapt.TickCeiling {
		t.Errorf("honest peer peaked at %d frames a tick, want the ceiling %d", peak, adapt.TickCeiling)
	}
}

// TestRelayRemembersEarlyREQ: a REQ that reaches a relay a tick before
// the object's first DATA frame does registers the subscriber instead of
// being dropped — the requester's next REQ is 250 ms off, longer than a
// paced transfer — within the relay's object bound; a fetch-only session
// still ignores REQs for objects it does not hold.
func TestRelayRemembersEarlyREQ(t *testing.T) {
	src, srcRec, srcClk := pushSession(t, "src", func(c *Config) { c.Burst = 8 })
	src.AddPeer("relay")
	id, err := src.Serve(testContent(64*16, 36), 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	relay, relayRec, relayClk := pushSession(t, "relay", func(c *Config) { c.Relay = true; c.Burst = 8; c.MaxObjects = 2 })
	injectFrame(relay, "sub", encodeReq(id))
	if st, ok := relay.Object(id); !ok || st.Subscribers != 1 {
		t.Fatalf("relay dropped the early REQ: held %v, %+v", ok, st)
	}
	for i := 0; i < 40; i++ {
		pushTicks(src, srcClk, 1)
		feed(relay, srcRec)
		pushTicks(relay, relayClk, 1)
	}
	if _, _, data := frameCounts(relayRec.take()["sub"]); data == 0 {
		t.Error("the early subscriber was never pushed to once the relay held the object")
	}

	other := packet.NewObjectID([]byte("another early one"))
	injectFrame(relay, "sub", encodeReq(other))
	injectFrame(relay, "sub", encodeReq(packet.NewObjectID([]byte("one too many"))))
	if n := len(relay.Objects()); n != 2 {
		t.Errorf("relay holds %d objects after REQs for unknown ids, want its MaxObjects bound of 2", n)
	}

	plain, _, _ := pushSession(t, "plain", nil)
	injectFrame(plain, "sub", encodeReq(id))
	if n := len(plain.Objects()); n != 0 {
		t.Errorf("a fetch-only session registered %d objects from a stranger's REQ", n)
	}
}

// TestSatiationPauseScalesWithBurst: one rule for every peer — a satiated
// peer is paused for the time a hundred frames take at its burst, fixed
// (Config.Burst) or earned (its receipts), and never under two ticks. A
// paused sender triggers no receipts, so nothing lifts the pause early: at
// 20 frames a tick a pause of a hundred ticks would be a fetch's worth of
// silence bought by three ticks of aborts.
func TestSatiationPauseScalesWithBurst(t *testing.T) {
	for _, tc := range []struct {
		name      string
		burst     int // Config.Burst; 0 = paced, at the cap by the time it satiates
		wantTicks int
	}{
		{"fixed-20", 20, 5},
		{"fixed-1", 1, 100},
		{"fixed-200", 200, 2},
		{"paced-at-cap", 0, (100 + adapt.MaxBurst - 1) / adapt.MaxBurst},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, rec, clk := pushSession(t, "src", func(c *Config) { c.Burst = tc.burst })
			id, err := s.Serve(testContent(4096*16, 37), 4096, 1)
			if err != nil {
				t.Fatal(err)
			}
			injectFrame(s, "sub", encodeReq(id))
			got := uint32(0)
			for tick := 0; tick < 12; tick++ { // a paced peer earns the cap first
				pushTicks(s, clk, 1)
				_, _, n := frameCounts(rec.take()["sub"])
				if got += uint32(n); tc.burst == 0 {
					injectFrame(s, "sub", receiptFrame(id, 0, got, got))
				}
			}
			for i := 0; i < satiationLimit; i++ {
				injectFrame(s, "sub", feedbackFrame(id, fbRedundant))
			}
			quiet := 0
			for ; quiet < 1000; quiet++ {
				pushTicks(s, clk, 1)
				if _, _, n := frameCounts(rec.take()["sub"]); n > 0 {
					break
				}
			}
			if quiet != tc.wantTicks {
				t.Errorf("satiated peer paused for %d ticks, want %d", quiet, tc.wantTicks)
			}
		})
	}
}

// pacedChain is source → relay → fetcher (or source → fetcher), Burst
// unset, on one virtual clock. Each step is one timer round on every
// node, then a carry, then a Tick of virtual time. The tick carry moves
// what the round emitted one hop and leaves wake-ups pending: a frame
// crosses one hop per tick, the tick is the clock. The immediate carry is
// the event clock: within the one virtual instant, frames are delivered
// and every node a delivery woke runs push() again, as its push loop
// would, until nothing moves.
type pacedChain struct {
	names     []transport.Addr
	nodes     []*Session
	recs      []*recTransport
	clk       *transport.VClock
	id        packet.ObjectID
	lose      func(from, to transport.Addr, frame []byte) bool
	immediate bool
	// rounds counts each node's push() calls; receipts the kind-5 reports
	// delivered.
	rounds   map[transport.Addr]int
	receipts int
}

func newPacedChain(t *testing.T, relayed bool, k, m int, seed int64, mut func(*Config)) *pacedChain {
	t.Helper()
	c := &pacedChain{names: []transport.Addr{"src", "dst"}, clk: transport.NewVClock(), rounds: make(map[transport.Addr]int)}
	if relayed {
		c.names = []transport.Addr{"src", "relay", "dst"}
	}
	for _, name := range c.names {
		s, rec, _ := pushSession(t, name, func(cfg *Config) {
			cfg.Burst, cfg.Clock, cfg.Relay = 0, c.clk, name == "relay"
			if mut != nil {
				mut(cfg)
			}
		})
		c.nodes, c.recs = append(c.nodes, s), append(c.recs, rec)
	}
	id, err := c.nodes[0].Serve(testContent(k*m, seed), k, 1)
	if err != nil {
		t.Fatal(err)
	}
	c.id = id
	last := len(c.nodes) - 1
	c.nodes[last].Watch(id, func(ObjectStats) {}) // a fetch-only session decodes what it asked for
	if relayed {
		c.nodes[0].AddPeer("relay")
	}
	injectFrame(c.nodes[last-1], "dst", encodeReq(id))
	return c
}

// woken consumes a pending wake-up, as the push loop's select would.
func woken(s *Session) bool {
	select {
	case <-s.wakeC:
		s.busy.Add(-1)
		return true
	default:
		return false
	}
}

// step runs one tick and returns the DATA frames each node emitted in it.
func (c *pacedChain) step() (data map[transport.Addr]int) {
	data = make(map[transport.Addr]int)
	for i, s := range c.nodes {
		woken(s) // the timer round serves whatever was pending
		s.push()
		c.rounds[c.names[i]]++
	}
	for c.carry(data) && c.immediate {
		for i, s := range c.nodes {
			if woken(s) {
				s.push()
				c.rounds[c.names[i]]++
			}
		}
	}
	c.clk.Advance(c.nodes[0].cfg.Tick)
	return data
}

// carry delivers everything the nodes have emitted, minus what the link
// loses, and reports whether anything moved. The whole output is collected
// before any of it is delivered: a frame crosses one hop per carry.
func (c *pacedChain) carry(data map[transport.Addr]int) (moved bool) {
	out := make([]map[transport.Addr][][]byte, len(c.nodes))
	for i, rec := range c.recs {
		out[i] = rec.take()
	}
	for i, from := range c.names {
		for j, to := range c.names {
			var arrived [][]byte
			for _, f := range out[i][to] {
				moved = true
				if f[0] == frameData {
					data[from]++
				}
				if c.lose == nil || !c.lose(from, to, f) {
					arrived = append(arrived, f)
					c.receipts += btoi(isReceipt(f))
				}
			}
			injectBurst(c.nodes[j], from, arrived)
		}
	}
	return moved
}

func (c *pacedChain) fetched() ObjectStats {
	st, _ := c.nodes[len(c.nodes)-1].Object(c.id)
	return st
}

// TestRelayCutThrough: source → relay → fetcher, receipt-clocked,
// lossless. The relay forwards what it decodes in the wake-up that decoded
// it — it does not wait for the generation, for a tick, or for anything
// but the aggressiveness gate's first k/100 rows, which the source's
// opening windows deliver inside the first instant — so a second hop adds
// no tick at all, and the fetcher needs nothing beyond the k plain rows.
// With the tick as the only clock (the tick carry) every hop still costs
// ticks; the event clock is what removed them.
func TestRelayCutThrough(t *testing.T) {
	const k, m, seed = 1024, 16, 38
	run := func(relayed, immediate bool) (ticks, firstIn, firstOut int, stats ObjectStats) {
		c := newPacedChain(t, relayed, k, m, seed, nil)
		c.immediate = immediate
		firstIn, firstOut = -1, -1
		for ; ticks < 1000 && !c.fetched().Complete; ticks++ {
			data := c.step()
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
	t.Logf("direct fetch %d ticks; through the relay %d ticks, first DATA in at tick %d, out at tick %d, overhead %.3f; tick-carried %d ticks, in %d, out %d",
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
		t.Errorf("tick-carried: out %d, in %d, %d ticks against %d: the comparison exercised nothing", tout, tin, ticked, relayed)
	}
}

// TestReceiptClockedFetch: with receipts as the clock a lossless direct
// fetch of 1,024 natives takes fewer timer ticks than the k/MaxBurst a
// window a tick would need — the window turns over as often as the
// receiver answers — while no tick carries more than adapt.TickCeiling
// rows, and nothing but the k plain rows is needed.
func TestReceiptClockedFetch(t *testing.T) {
	const k = 1024
	c := newPacedChain(t, false, k, 16, 39, nil)
	c.immediate = true
	ticks, peak := 0, 0
	for ; ticks < 1000 && !c.fetched().Complete; ticks++ {
		peak = max(peak, c.step()["src"])
	}
	stats := c.fetched()
	t.Logf("%d natives in %d ticks, %d source push rounds, %d receipts, peak %d rows a tick", k, ticks, c.rounds["src"], c.receipts, peak)
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
	c := newPacedChain(t, false, 256, 16, 40, nil)
	c.immediate = true
	if first := c.nodes[0].objects[c.id].peers["dst"].link.Window(); first >= receiptEvery {
		t.Fatalf("start window %d is not smaller than receiptEvery %d: the test exercises nothing", first, receiptEvery)
	}
	data := c.step()
	if c.receipts == 0 {
		t.Fatalf("no receipt for the %d rows of the first tick", data["src"])
	}
	if data["src"] <= 4 || c.rounds["src"] < 2 {
		t.Errorf("%d rows in %d push rounds in the first instant: the flushed receipt did not clock a second window", data["src"], c.rounds["src"])
	}
	// Without the drain nothing is owed until receiptEvery rows: a batch
	// with more behind it carries no receipt.
	dst, rec := c.nodes[1], c.recs[1]
	rec.take()
	injectFrame(dst, "src", handRow(t, c.id, testContent(256*16, 40), 1, 256, 0, false, 255))
	if n := len(rec.take()["src"]); n != 0 {
		t.Errorf("%d frames answered one row with the queue still busy, want none", n)
	}
}

// TestIdleSessionParksTimer: a session with nobody to push to runs its
// push loop at the housekeeping cadence, not every Tick — and the REQ
// that gives it a target un-parks it in that very wake-up.
func TestIdleSessionParksTimer(t *testing.T) {
	clk := transport.NewVClock()
	clk.SetSyncGrace(2 * time.Millisecond)
	sw, err := transport.NewSwitch(transport.SwitchConfig{QueueDepth: 256, Seed: 41, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	src := startSession(t, attach(t, sw, "source"), func(c *Config) {
		c.Clock, c.Burst, c.Tick = clk, 0, 2*time.Millisecond
	})
	id, err := src.Serve(testContent(64*16, 41), 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The session's push timer is the only deadline on this clock (the
	// switch adds no latency), so every hop to the next deadline is one
	// timer round. A round gives its busy count back with its timer
	// re-armed, so an idle session's next deadline is on the clock; idle is
	// read the way simnet's scheduler reads it, a few polls running (the
	// tick's receiver takes its busy count a moment after the hand-off).
	rounds := 0
	for end := clk.Now().Add(time.Second); ; rounds++ {
		for idle := 0; idle < 3; runtime.Gosched() {
			if idle++; src.Busy() != 0 {
				idle = 0
			}
		}
		at, ok := clk.NextDeadline()
		if !ok || at.After(end) {
			break
		}
		clk.AdvanceTo(at)
	}
	t.Logf("%d timer rounds in an idle virtual second", rounds)
	if rounds > 10 {
		t.Errorf("%d timer rounds in an idle virtual second, want ≤ 10", rounds)
	}
	sub := attach(t, sw, "sub")
	if err := sub.Send("source", encodeReq(id)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	got := 0
	for got < 2 { // META, then DATA — with the clock standing still
		f, err := sub.Recv(ctx)
		if err != nil {
			t.Fatalf("no DATA from a parked source after a REQ, clock frozen: %v", err)
		}
		if f.Data[0] == frameData {
			got = 2
		}
		f.Release()
	}
}

// TestParkedTimerWakesForProbeTimeout: the deadline a parked push loop
// sleeps to is the earliest unanswered probe's own timeout — not a sweep
// period after the park, which noticed a dead probe peer up to twice the
// timeout late — and no probe deadline at all with none out; a probe going
// out wakes the loop so that it learns of it.
func TestParkedTimerWakesForProbeTimeout(t *testing.T) {
	s, rec, clk := pushSession(t, "dst", func(c *Config) { c.Burst = 0 })
	id, err := s.Serve(testContent(64*16, 43), 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	hk := s.newHousekeeping(clk.Now())
	if hk.probeAt = s.probeSweep(); !hk.probeAt.IsZero() || hk.next() != hk.evictAt {
		t.Fatalf("no probe out: sweep reports %v, parked until %v, want the eviction at %v", hk.probeAt, hk.next(), hk.evictAt)
	}
	// Generation 0 goes on probe to p, with q next in line, 50 ms in.
	clk.Advance(50 * time.Millisecond)
	st := s.objects[id]
	st.mu.Lock()
	st.ensurePollLocked()
	st.vigilant = true
	st.probeCands[0] = []transport.Addr{"p", "q"}
	var acts pollActions
	s.advanceProbeLocked(st, 0, &acts)
	st.mu.Unlock()
	sentAt := clk.Now()
	s.applyPollActions(&acts)
	select {
	case <-s.wakeC:
	default:
		t.Error("a probe went out and the push loop was not woken")
	}
	if hk.probeAt = s.probeSweep(); hk.probeAt != sentAt.Add(s.probeTimeout()) || hk.next() != hk.probeAt {
		t.Fatalf("probe sent at %v: sweep reports %v, parked until %v, want its timeout %v",
			sentAt, hk.probeAt, hk.next(), sentAt.Add(s.probeTimeout()))
	}
	rec.take()
	// p never answers: at the deadline the probe moves on to q, whose own
	// timeout is the next deadline; q never answers either and the
	// generation goes back to open refill, with no probe deadline left.
	clk.AdvanceTo(hk.probeAt)
	hk.probeAt = s.probeSweep()
	if toQ := rec.take()["q"]; len(toQ) != 1 || toQ[0][0] != frameReq || hk.probeAt != clk.Now().Add(s.probeTimeout()) {
		t.Fatalf("probe timed out: %d frames to the next candidate, next deadline %v, want one REQ and %v",
			len(toQ), hk.probeAt, clk.Now().Add(s.probeTimeout()))
	}
	clk.AdvanceTo(hk.probeAt)
	if hk.probeAt = s.probeSweep(); !hk.probeAt.IsZero() || st.probeOf(0) != "" {
		t.Errorf("candidates exhausted: probing %q, next deadline %v, want open refill and none", st.probeOf(0), hk.probeAt)
	}
}

// TestFetchRetriesLostREQ: a fetch whose first REQ the network dropped asks
// again within ten ticks — not a quarter of a second later, longer than
// the whole paced transfer — and one whose REQ was answered sends no
// second REQ before the steady resend is due.
func TestFetchRetriesLostREQ(t *testing.T) {
	for _, dropped := range []bool{true, false} {
		src, srcRec, _ := pushSession(t, "src", func(c *Config) { c.Burst = 0 })
		id, err := src.Serve(testContent(64*16, 42), 64, 1)
		if err != nil {
			t.Fatal(err)
		}
		dst, dstRec, clk := pushSession(t, "dst", func(c *Config) { c.Burst = 0 })
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			dst.Fetch(ctx, id, "src")
		}()
		clk.SetSyncGrace(2 * time.Millisecond) // an Advance hands its ticks to the Fetch goroutine
		// reqs gives the Fetch goroutine a moment to act on what it was
		// handed, then counts the REQs it has sent in all.
		sent := 0
		reqs := func() int {
			for i := 0; i < 20; i++ {
				time.Sleep(200 * time.Microsecond)
				for _, f := range dstRec.take()["src"] {
					sent += btoi(f[0] == frameReq)
				}
			}
			return sent
		}
		if reqs() != 1 {
			t.Fatalf("fetch opened with %d REQs, want 1", sent)
		}
		if !dropped {
			injectFrame(src, "dst", encodeReq(id))
			feed(dst, srcRec) // the META answers it
		}
		ticks := 0
		for ; ticks < 10 && sent < 2; ticks++ {
			clk.Advance(dst.cfg.Tick)
			reqs()
		}
		if dropped && sent != 2 {
			t.Errorf("REQ lost: %d REQs after %d ticks, want the retry", sent, ticks)
		}
		if !dropped {
			clk.Advance(reqResend - 11*dst.cfg.Tick)
			if reqs() != 1 {
				t.Errorf("REQ answered: %d REQs before the %v resend was due, want 1", sent, reqResend)
			}
			clk.Advance(reqRetry*dst.cfg.Tick + dst.cfg.Tick)
			if reqs() != 2 {
				t.Errorf("REQ answered: %d REQs once the %v resend was due, want 2", sent, reqResend)
			}
		}
		cancel()
		<-done
	}
}
