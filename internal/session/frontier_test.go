package session

import (
	"bytes"
	"math/rand"
	"testing"

	"ltnc/internal/adapt"
	"ltnc/internal/packet"
	"ltnc/internal/transport"
)

// Frontier repair (DESIGN.md §16): receipts carry the decoded bitmap of the
// generation they are about, and a sender repeats exactly what it lacks.

// lossy drops every frame — DATA, receipts, the lot — with probability p,
// off one seeded coin.
func lossy(seed int64, p float64) func(_, _ transport.Addr, _ []byte) bool {
	rng := rand.New(rand.NewSource(seed))
	return func(_, _ transport.Addr, _ []byte) bool { return rng.Float64() < p }
}

// nativeOf returns the native a degree-1 DATA frame carries, −1 for a coded
// row or another kind of frame.
func nativeOf(t *testing.T, f []byte) int {
	t.Helper()
	if f[0] != packet.FrameData {
		return -1
	}
	h, err := packet.ReadHeader(bytes.NewReader(f[1:]))
	if err != nil {
		t.Fatal(err)
	}
	if h.Vec.PopCount() != 1 {
		return -1
	}
	return int(h.Generation)*h.Vec.Len() + h.Vec.LowestSet()
}

// TestFrontierRepairNearErasureBound: source → relay → fetcher, every link
// dropping a fifth of what it carries, receipts included. A hop that
// repeats what the frontier lacks needs k/(1 − p) = 1.25·k rows plus what a
// lost receipt makes it repeat in vain; blind LT repair needed 1.7·k and
// more. And the second hop does not queue behind the first: the relay
// repeats natives toward the fetcher while it is still filling itself, and
// the fetcher is done within a few round trips of the relay. MANIFEST
// frames are lost like the rest: a receipt sent while one is missing goes
// out with a need for it, repaired a horizon later with the frontier left
// standing.
func TestFrontierRepairNearErasureBound(t *testing.T) {
	const k, m, p, runs = 1024, 16, 0.20, 6
	base := testSeed(t)
	t.Logf("loss seeds %d..%d", base, base+runs-1)
	overlapped := 0
	sent := map[transport.Addr]int64{}
	for seed := base; seed < base+runs; seed++ {
		c := newStepNet(t, k, m, 51, nil, "src", "relay", "dst").subscribe()
		c.delay = c.nodes["src"].cfg.Tick / 2
		drop := lossy(seed, p)
		c.lose = drop
		relayDone, ticks, early := -1, 0, int64(0)
		for ; ticks < 2000 && !c.fetched().Complete; ticks++ {
			c.tick()
			if o, _ := c.nodes["relay"].Object(c.id); relayDone < 0 {
				if early = o.Repeated; o.Complete {
					relayDone = ticks
				}
			}
		}
		if !c.fetched().Complete {
			t.Fatalf("seed %d: fetch incomplete after %d ticks", seed, ticks)
		}
		for _, hop := range []transport.Addr{"src", "relay"} {
			o, _ := c.nodes[hop].Object(c.id)
			// One run in a hundred and fifty loses enough receipts while the
			// hop runs slow — nothing behind the lost one to supersede it, so
			// what was in flight ages out and is repeated in vain — to pass
			// 1.35·k by a few rows; the runs together do not.
			sent[hop] += o.Sent
			if float64(o.Sent) > 1.5*k {
				t.Errorf("seed %d: %s sent %d rows for k = %d at %.0f%% loss, want at most 1.5·k (erasure bound %.0f)", seed, hop, o.Sent, k, 100*p, k/(1-p))
			}
			// A hop codes only before a receipt has named the generation, or
			// from rows it cannot decode yet (drawRowsLocked): a few rows. A
			// lost manifest run is asked for by a need, which leaves
			// the frontier standing upstream; were it dropped, the rows
			// behind it would go blind — 17 to 27 of them.
			if coded := o.Sent - o.Systematic - o.Repeated; coded > 16 {
				t.Errorf("seed %d: %s sent %d coded rows with a frontier in hand (%d first-pass, %d repeats)", seed, hop, coded, o.Systematic, o.Repeated)
			}
		}
		if early > 0 {
			overlapped++
		}
		if lag := ticks - relayDone; lag > 25 {
			t.Errorf("seed %d: fetcher done %d ticks after the relay: its repair queued behind the relay's", seed, lag)
		}
		t.Logf("seed %d: %d ticks (relay done at %d, %d repeats out by then); src sent %d, relay %d",
			seed, ticks, relayDone, early, c.data["src"], c.data["relay"])
	}
	for hop, n := range sent {
		if mean := float64(n) / runs; mean > 1.35*k {
			t.Errorf("%s sent %.0f rows a run for k = %d at %.0f%% loss, want at most 1.35·k (erasure bound %.0f)", hop, mean, k, 100*p, k/(1-p))
		}
	}
	if overlapped == 0 {
		t.Errorf("in none of %d runs did the relay repeat a native before it was complete", runs)
	}
}

// twoSources is a stepNet of two sources serving the same content to one
// fetcher, a round trip a tick. The fetcher watches the object; join
// subscribes it at a source.
func twoSources(t *testing.T, k, m int, seed int64) *stepNet {
	n := newStepNet(t, k, m, seed, nil, "srcA", "dst")
	b, rec, _ := pushSession(t, "srcB", func(c *Config) { c.Clock = n.clk })
	if id, err := b.Serve(testContent(k*m, seed), k, 1); err != nil || id != n.id {
		t.Fatalf("second source serves %v, %v; want %v", id, err, n.id)
	}
	n.names = []transport.Addr{"srcA", "srcB", "dst"}
	n.nodes["srcB"], n.recs["srcB"] = b, rec
	n.nodes["dst"].Watch(n.id, func(ObjectStats) {})
	n.delay = b.cfg.Tick / 2
	return n
}

func (n *stepNet) join(src transport.Addr) { n.recs[src].deliver("dst", subReport(n.id)) }

// TestTaperReadsTheFrontier: a fetcher fed by two sources takes part of its
// natives from each, so one link's innovative count never comes near k and
// the end-of-object taper, reading that, never engaged there: the window
// of a source that joined late was still wide open when the fetcher
// finished, all of it in flight for nothing. Reading what the frontier
// lacks, the link is down to its tail window by then.
func TestTaperReadsTheFrontier(t *testing.T) {
	const k = 4096
	n := twoSources(t, k, 16, 52)
	// The first source's link loses a fifth of its rows, so that the
	// second's are not all redundant — a streak of aborts would pause it.
	drop, after := lossy(56, 0.20), 0
	n.lose = func(from, to transport.Addr, f []byte) bool {
		if to == "dst" && from == "srcB" && f[0] == packet.FrameData && n.fetched().Complete {
			after++
		}
		return from == "srcA" && f[0] == packet.FrameData && drop(from, to, f)
	}
	n.join("srcA")
	joined := false
	for ticks := 0; ticks < 2000 && !n.fetched().Complete; ticks++ {
		n.tick()
		if !joined && n.fetched().Decoded > k/2 {
			n.join("srcB")
			joined = true
		}
	}
	if !n.fetched().Complete {
		t.Fatal("fetch incomplete")
	}
	n.run(4 * n.nodes["dst"].cfg.Tick)
	link := &n.nodes["srcB"].objects[n.id].peers["dst"].link
	if lacks := link.Lacks(k); lacks < k/4 || link.Window() < adapt.MaxBurst {
		t.Fatalf("the late source's link, window %d, counts the fetcher %d short of k: the test exercises nothing", link.Window(), lacks)
	}
	t.Logf("%d rows of the late source sent into a finished fetcher", after)
	if after > 8+2 {
		t.Errorf("%d rows of the late source were sent after the fetcher was done, want its tail window of 8: the taper never engaged", after)
	}
}

// TestTwoSendersRepeatDifferentNatives: two senders serving one receiver
// see the same frontier, and past their systematic passes — a fetcher that
// lost a generation to a quarantine, say — both repair against it at once.
// Scanning it from the same place they would repeat the same natives in the
// same order and every second arrival would be wasted; from places of
// their own (repairStart) few are, until what is missing fits both windows.
func TestTwoSendersRepeatDifferentNatives(t *testing.T) {
	const k = 2048
	n := twoSources(t, k, 16, 53)
	a, astep := n.nodes["srcA"].repairOrder("dst")
	b, bstep := n.nodes["srcB"].repairOrder("dst")
	if a == b || astep == bstep {
		t.Fatalf("both senders scan from %d or in steps of %d: they share a seed, and the addresses did not tell them apart", a, astep)
	}
	for _, src := range n.names[:2] {
		n.join(src)
		n.settle()
		n.nodes[src].objects[n.id].peers["dst"].sysCursor = k // past its pass
	}
	drop := lossy(54, 0.20)
	have := map[int]bool{}
	plain, dups := 0, 0
	n.lose = func(from, to transport.Addr, f []byte) bool {
		lost := drop(from, to, f)
		if x := nativeOf(t, f); x >= 0 && to == "dst" && !lost {
			plain++
			dups += btoi(have[x])
			have[x] = true
		}
		return lost
	}
	for ticks := 0; ticks < 2000 && !n.fetched().Complete; ticks++ {
		n.tick()
	}
	if !n.fetched().Complete {
		t.Fatal("fetch incomplete")
	}
	t.Logf("%d repeats arrived, %d of them for a native already in", plain, dups)
	if plain < k {
		t.Fatalf("%d repeats arrived for %d natives: the test exercises nothing", plain, k)
	}
	if 10*dups > plain {
		t.Errorf("%d of %d repeats that arrived were duplicates, want at most a tenth", dups, plain)
	}
}

// TestFrontierForgedStaysOnItsLink: a subscriber whose receipts carry
// forged frontiers — everything missing, everything present, the wrong
// length, a generation the object does not have, natives past its end, one
// before every push round with its window forged wide open, with a
// departure count of 0 and behind a forged one (everything sent, past what
// was sent, backwards, wrapping) — redirects which rows it gets and nothing
// else: never more than adapt.MaxBurst rows in flight on its link (two more
// for the probe) nor adapt.TickCeiling in a tick, no state beyond the
// bound, and the honest peer next to it gets, byte for byte, the stream it
// would have got alone.
func TestFrontierForgedStaysOnItsLink(t *testing.T) {
	// k/G = 4094: the last frontier byte has two bits to spare. A window a
	// round, the honest peer takes at most ticks·roundsPerTick·MaxBurst = 7,680
	// rows: its whole stream stays in the systematic pass.
	const k, gens, roundsPerTick, ticks = 8188, 2, 6, 20
	kPer := k / gens
	full := func() []int32 {
		all := make([]int32, kPer)
		for i := range all {
			all[i] = int32(i)
		}
		return all
	}()
	cases := []struct {
		name string
		// forge builds the liar's i-th receipt; its counters over-claim.
		forge func(id packet.ObjectID, i int) []byte
		// repeated says whether the forgery should buy repeats at all.
		repeated bool
	}{
		{"all-missing", func(id packet.ObjectID, i int) []byte {
			return reportFrame(packet.Report{Object: id, Gen: uint32(i % gens), Received: uint32(i+1) << 16, Innovative: uint32(i+1) << 16, Frontier: frontierOf(kPer)})
		}, true},
		{"all-present-but-incomplete", func(id packet.ObjectID, i int) []byte {
			return reportFrame(packet.Report{Object: id, Gen: uint32(i % gens), Received: uint32(i+1) << 16, Innovative: uint32(i+1) << 16, Frontier: frontierOf(kPer, full...)})
		}, false},
		{"wrong-length", func(id packet.ObjectID, i int) []byte {
			return reportFrame(packet.Report{Object: id, Received: uint32(i+1) << 16, Innovative: uint32(i+1) << 16, Frontier: frontierOf(kPer + 8)})
		}, false},
		{"generation-past-G", func(id packet.ObjectID, i int) []byte {
			return reportFrame(packet.Report{Object: id, Gen: gens + uint32(i), Received: uint32(i+1) << 16, Innovative: uint32(i+1) << 16, Frontier: frontierOf(kPer)})
		}, false},
		{"bits-past-kPer", func(id packet.ObjectID, i int) []byte {
			f := reportFrame(packet.Report{Object: id, Received: uint32(i+1) << 16, Innovative: uint32(i+1) << 16, Frontier: frontierOf(kPer)})
			f[len(f)-1] = 0x80
			return f
		}, false},
	}
	run := func(forge func(packet.ObjectID, int) []byte, departs bool) (honest string, perTick []int, s *Session, id packet.ObjectID) {
		s, rec, clk := pushSession(t, "src", nil)
		id, err := s.Serve(testContent(k*16, 55), k, gens)
		if err != nil {
			t.Fatal(err)
		}
		injectFrame(s, "honest", subReport(id))
		if forge != nil {
			// The liar has been through the systematic pass: what it gets from
			// here on is repair, and its frontier says which.
			injectFrame(s, "z-liar", subReport(id))
			s.objects[id].peers["z-liar"].sysCursor = k
		}
		got := uint32(0)
		for tick := 0; tick < ticks; tick++ {
			liars := 0
			for round := 0; round < roundsPerTick; round++ {
				s.push()
				frames := rec.take()
				_, n := frameCounts(frames["honest"])
				if got += uint32(n); n > 0 {
					injectFrame(s, "honest", receiptFrame(id, 0, got, got))
				}
				_, n = frameCounts(frames["z-liar"])
				liars += n
				if forge != nil {
					link := &s.objects[id].peers["z-liar"].link
					if f := link.InFlight(); f > adapt.MaxBurst+2 {
						t.Fatalf("tick %d: %d rows in flight toward the liar, the cap is %d and the probe's two", tick, f, adapt.MaxBurst)
					}
					i := tick*roundsPerTick + round
					f := forge(id, i)
					if sent := uint32(link.Sent()); departs {
						f = withDeparted(f, [...]uint32{sent, sent + 1<<20, sent / 2, 1<<32 - 8 + uint32(i)}[i%4])
					}
					injectFrame(s, "z-liar", f)
					checkPhaseInvariants(t, s) // what is kept of a frontier among them
				}
			}
			if liars > adapt.TickCeiling {
				t.Fatalf("tick %d: the liar got %d rows, the ceiling is %d", tick, liars, adapt.TickCeiling)
			}
			perTick = append(perTick, liars)
			clk.Advance(s.cfg.Tick)
		}
		if int(got) >= k {
			t.Fatalf("the honest peer got %d rows of k = %d: its stream left the systematic pass, the digests compare nothing", got, k)
		}
		return string(rec.sums["honest"].Sum(nil)), perTick, s, id
	}
	alone, _, _, _ := run(nil, false)
	for _, tc := range cases {
		for _, departs := range []bool{false, true} {
			name := tc.name
			if departs {
				name += "+departed"
			}
			t.Run(name, func(t *testing.T) {
				beside, perTick, s, id := run(tc.forge, departs)
				if beside != alone {
					t.Errorf("the honest peer's stream moved beside the liar")
				}
				o, _ := s.Object(id)
				if (o.Repeated > 0) != tc.repeated {
					t.Errorf("%d rows repeated toward the liar, want some: %v (rows per tick %v)", o.Repeated, tc.repeated, perTick)
				}
			})
		}
	}
}

// withDeparted sets receipt f's departure count.
func withDeparted(f []byte, departed uint32) []byte {
	r, _ := parseReport(f)
	r.Departed = departed
	return reportFrame(r)
}

// TestCodedRowsWaitForThePassToSettle: toward a peer that names no frontier
// (a cache, say) the natives of the systematic pass go out, and no coded
// row of their generation follows them while any of them is still
// unsettled — the peer's next receipt, or its completion, is what says
// whether a coded row is owed at all. Once a receipt settles them the
// coded rows come.
func TestCodedRowsWaitForThePassToSettle(t *testing.T) {
	const k = 8
	s, rec, _ := pushSession(t, "src", nil)
	id, err := s.Serve(testContent(k*16, 61), k, 1)
	if err != nil {
		t.Fatal(err)
	}
	injectFrame(s, "peer", subReport(id))
	// round pushes once and returns the DATA rows it sent, and how many of
	// them were not degree 1.
	round := func() (rows, coded int) {
		s.push()
		for _, f := range rec.take()["peer"] {
			if f[0] == packet.FrameData {
				rows++
				coded += btoi(nativeOf(t, f) < 0)
			}
		}
		return rows, coded
	}
	if n, c := round(); n != 4 || c != 0 {
		t.Fatalf("opening round: %d rows, %d coded; want the start window's 4 natives", n, c)
	}
	// The first receipt doubles the window to 8 and credits all 4: the
	// round has room for the last 4 natives and 4 rows more.
	injectFrame(s, "peer", receiptFrame(id, 0, 4, 4))
	if n, c := round(); n != k-4 || c != 0 {
		t.Fatalf("the pass's last round: %d rows, %d coded; want the %d natives left and no coded row behind them", n, c, k-4)
	}
	injectFrame(s, "peer", receiptFrame(id, 0, k, k))
	if _, c := round(); c == 0 {
		t.Fatal("the receipt settled the pass, and still no coded row followed")
	}
}
