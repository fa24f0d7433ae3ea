package session

import (
	"math/rand"
	"slices"
	"testing"

	"ltnc/internal/adapt"
	"ltnc/internal/packet"
	"ltnc/internal/transport"
)

// The receipt-paced push, in the push_test.go shape: recording
// transports, a virtual clock, push() and the frame handlers called
// directly on the test goroutine. A pacedLink is a source with Burst
// unset pushing one object at a fetching session over a hand-carried
// link; each step is one source tick, the DATA it emitted carried
// across, and the fetcher's replies carried back.

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
	for _, f := range l.srcRec.take()["dst"] {
		if f[0] == frameData {
			data++
		}
		if l.lose == nil || !l.lose(f, true) {
			injectFrame(l.dst, "src", f)
		}
	}
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

// TestPacedForgedReceiptsStayOnTheirLink: a subscriber forging receipts
// — over-claims, under-claims, counters running backwards and wrapping
// uint32 — never gets more than adapt.MaxBurst frames in a tick, and the
// honest peer next to it gets, tick for tick, the bursts it would have got
// alone.
func TestPacedForgedReceiptsStayOnTheirLink(t *testing.T) {
	run := func(withLiar bool) (honest []int, liarPeak int) {
		s, rec, clk := pushSession(t, "src", func(c *Config) { c.Burst = 0 })
		id, err := s.Serve(testContent(512*16, 35), 512, 1)
		if err != nil {
			t.Fatal(err)
		}
		injectFrame(s, "honest", encodeReq(id))
		if withLiar {
			injectFrame(s, "z-liar", encodeReq(id))
		}
		forged := [][2]uint32{
			{1 << 20, 1 << 20},     // over-claim
			{0, 0},                 // under-claim
			{5, 3},                 // backwards
			{1<<32 - 8, 1<<32 - 8}, // about to wrap
			{7, 7},                 // wrapped
			{1 << 30, 1 << 31},     // innovative > received
			{1<<32 - 1, 1<<32 - 1}, // the ceiling
		}
		got := 0
		for tick := 0; tick < 120; tick++ {
			pushTicks(s, clk, 1)
			frames := rec.take()
			_, _, n := frameCounts(frames["honest"])
			honest = append(honest, n)
			for ; n > 0; n-- {
				if got++; got%receiptEvery == 0 {
					injectFrame(s, "honest", receiptFrame(id, 0, uint32(got), uint32(got)))
				}
			}
			_, _, n = frameCounts(frames["z-liar"])
			liarPeak = max(liarPeak, n)
			if withLiar {
				c := forged[tick%len(forged)]
				injectFrame(s, "z-liar", receiptFrame(id, 0, c[0], c[1]))
			}
		}
		return honest, liarPeak
	}
	alone, _ := run(false)
	beside, liarPeak := run(true)
	if liarPeak > adapt.MaxBurst {
		t.Errorf("forged receipts bought %d frames in one tick, the cap is %d", liarPeak, adapt.MaxBurst)
	}
	if liarPeak == 0 {
		t.Error("the liar was never pushed to: the test exercised nothing")
	}
	if !slices.Equal(alone, beside) {
		t.Errorf("honest peer's bursts moved beside a liar:\n alone  %v\n beside %v", alone, beside)
	}
	if peak := slices.Max(alone); peak != adapt.MaxBurst {
		t.Errorf("honest peer peaked at %d frames a tick, want the cap %d", peak, adapt.MaxBurst)
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
// unset, on one virtual clock: each step is one tick on every node, and
// what they emitted is then carried one hop, minus what the link loses.
type pacedChain struct {
	names []transport.Addr
	nodes []*Session
	recs  []*recTransport
	clk   *transport.VClock
	id    packet.ObjectID
	lose  func(from, to transport.Addr, frame []byte) bool
}

func newPacedChain(t *testing.T, relayed bool, k, m int, seed int64, mut func(*Config)) *pacedChain {
	t.Helper()
	c := &pacedChain{names: []transport.Addr{"src", "dst"}, clk: transport.NewVClock()}
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

// step runs one tick and returns the DATA frames each node emitted in it.
func (c *pacedChain) step() (data map[transport.Addr]int) {
	for _, s := range c.nodes {
		s.push()
	}
	c.clk.Advance(c.nodes[0].cfg.Tick)
	// Collect the whole tick's output before delivering any of it: a frame
	// crosses one hop per tick.
	out := make([]map[transport.Addr][][]byte, len(c.nodes))
	for i, rec := range c.recs {
		out[i] = rec.take()
	}
	data = make(map[transport.Addr]int)
	for i, from := range c.names {
		for j, to := range c.names {
			for _, f := range out[i][to] {
				if f[0] == frameData {
					data[from]++
				}
				if c.lose == nil || !c.lose(from, to, f) {
					injectFrame(c.nodes[j], from, f)
				}
			}
		}
	}
	return data
}

func (c *pacedChain) fetched() ObjectStats {
	st, _ := c.nodes[len(c.nodes)-1].Object(c.id)
	return st
}

// TestRelayCutThrough: source → relay → fetcher, paced, lossless. The
// relay forwards what it decodes the tick after it decodes it — it does
// not wait for the generation, only for the aggressiveness gate's first
// k/100 rows, three ticks of a burst still ramping — so a second hop costs
// a few ticks, not a second transfer, and the fetcher needs nothing beyond
// the k plain rows.
func TestRelayCutThrough(t *testing.T) {
	const k, m, seed = 1024, 16, 38
	run := func(relayed bool) (ticks, firstIn, firstOut int, stats ObjectStats) {
		c := newPacedChain(t, relayed, k, m, seed, nil)
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
	direct, _, _, _ := run(false)
	relayed, in, out, stats := run(true)
	t.Logf("direct fetch %d ticks; through the relay %d ticks, first DATA in at tick %d, out at tick %d, overhead %.3f",
		direct, relayed, in, out, stats.Overhead())
	if !stats.Complete {
		t.Fatalf("fetch through the relay incomplete after %d ticks", relayed)
	}
	if in < 0 || out < 0 || out-in > 3 {
		t.Errorf("relay's first DATA out at tick %d, first DATA in at tick %d: want out within 3 ticks of in", out, in)
	}
	if float64(relayed) > 1.3*float64(direct) {
		t.Errorf("fetch through the relay took %d ticks, direct %d: want within 1.3×", relayed, direct)
	}
	if stats.Overhead() > 1.02 {
		t.Errorf("fetcher overhead %.3f on a lossless fabric, want ≤ 1.02", stats.Overhead())
	}
}
