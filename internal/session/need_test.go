package session

import (
	"testing"
	"time"

	"ltnc/internal/integrity"
	"ltnc/internal/packet"
	"ltnc/internal/transport"
)

// Lost proof (DESIGN.md §13): a node that lacks an object's META or a run
// of its manifest says so beside every receipt (FEEDBACK kind 7, need), and
// the upstream re-sends it a horizon after it last went, its frontier for
// the node left standing.

// proofRepairSlack is how many ticks past the lossless run a fetch may take
// when one META or MANIFEST frame is lost on its way: the receipt that
// names the lack leaves with the rows behind the lost frame, the upstream
// answers it a horizon (at most two ticks) after the frame went, and the
// proof crosses in one more.
const proofRepairSlack = 4

// TestLostProofRepairedAtRoundTrip: source → relay → fetcher, a round trip
// a tick; the first META, or the first MANIFEST, on its way to the relay or
// to the fetcher is lost. The need clocked by the receipts behind it brings
// it back within a few ticks of the lossless run — not by a REQ once the
// node has decoded — no node sends a REQ, every upstream's frontier for its
// peer stands from the first receipt to completion, and the proof is sent
// again exactly once: the needs of the receipts that crossed the resend,
// and one more delivered with it, fall inside the horizon and resend
// nothing.
func TestLostProofRepairedAtRoundTrip(t *testing.T) {
	const k, m = 1024, 16
	hops := [...][2]transport.Addr{{"src", "relay"}, {"relay", "dst"}}
	run := func(t *testing.T, kind byte, hop [2]transport.Addr) (ticks int) {
		c := newStepNet(t, k, m, 71, nil, "src", "relay", "dst").subscribe()
		c.delay = c.nodes["src"].cfg.Tick / 2
		sent, reqs := 0, 0
		c.lose = func(from, to transport.Addr, f []byte) bool {
			reqs += btoi(f[0] == frameReq)
			if f[0] != kind || from != hop[0] || to != hop[1] {
				return false
			}
			if sent++; sent == 2 {
				// The repair: a need arriving with it finds it inside the
				// horizon.
				r := uint32(needMeta)
				if kind == frameManifest {
					r = 0 // the one run of k = 1,024
				}
				c.recs[from].deliver(to, needFrame(c.id, r))
			}
			return sent == 1
		}
		had := map[[2]transport.Addr]bool{}
		c.stepped = func(transport.Addr) {
			for _, h := range hops {
				ps := c.nodes[h[0]].objects[c.id].peers[h[1]]
				if ps == nil || ps.done {
					continue
				}
				if had[h] && ps.frontier == nil {
					t.Fatalf("%s dropped its frontier for %s mid-fetch", h[0], h[1])
				}
				had[h] = had[h] || ps.frontier != nil
			}
		}
		for ; ticks < 200 && !c.fetched().Complete; ticks++ {
			c.tick()
		}
		if !c.fetched().Complete {
			t.Fatalf("fetch incomplete after %d ticks", ticks)
		}
		if reqs != 0 {
			t.Errorf("%d REQs sent: a decoded node asked again by REQ", reqs)
		}
		if kind != 0 && sent != 2 {
			t.Errorf("the proof went %d times to %s, want the lost one and one repair", sent, hop[1])
		}
		for _, h := range hops {
			if !had[h] {
				t.Errorf("%s never held a frontier for %s: the test exercises nothing", h[0], h[1])
			}
		}
		return ticks
	}
	lossless := run(t, 0, hops[0])
	t.Logf("lossless: %d ticks", lossless)
	for _, kind := range []byte{frameMeta, frameManifest} {
		for _, hop := range hops {
			name := map[byte]string{frameMeta: "META", frameManifest: "MANIFEST"}[kind] + "-to-" + string(hop[1])
			t.Run(name, func(t *testing.T) {
				ticks := run(t, kind, hop)
				t.Logf("%d ticks", ticks)
				if ticks > lossless+proofRepairSlack {
					t.Errorf("fetch took %d ticks, the lossless one %d: want at most %d more", ticks, lossless, proofRepairSlack)
				}
			})
		}
	}
}

// TestLosslessFetchSendsNoNeed: a lossless source → fetcher transfer of a
// 16-run object (k = 16,384, G = 16, a run a generation) sends no need.
// The source's proof pass puts each run on the link ahead of the rows it
// proves, and a need names only a run over a generation the node has a row
// of, so no run is asked for while it is on its way.
func TestLosslessFetchSendsNoNeed(t *testing.T) {
	const k, gens, m = 16 * integrity.RunLen, 16, 8
	c := newStepNetG(t, k, gens, m, 83, nil, "src", "dst").subscribe()
	needs := 0
	c.lose = func(from, _ transport.Addr, f []byte) bool {
		needs += btoi(from == "dst" && isNeed(f))
		return false
	}
	ticks := 0
	for ; ticks < 2000 && !c.fetched().Complete; ticks++ {
		c.tick()
	}
	if !c.fetched().Complete {
		t.Fatalf("fetch incomplete after %d ticks", ticks)
	}
	if needs != 0 {
		t.Errorf("a lossless fetch sent %d needs, want none", needs)
	}
}

// needSource serves a k-native object to a subscriber, peer, and runs
// the rounds of its proof pass: the META and every run of the manifest.
func needSource(t *testing.T, k int) (*Session, *recTransport, *transport.VClock, packet.ObjectID) {
	t.Helper()
	s, rec, clk := pushSession(t, "src", nil)
	id, err := s.Serve(testContent(k*8, 73), k, 1)
	if err != nil {
		t.Fatal(err)
	}
	injectFrame(s, "peer", encodeReq(id))
	for ps := s.objects[id].peers["peer"]; ps.pass >= 0; {
		s.push()
	}
	rec.take()
	return s, rec, clk, id
}

// TestNeedBounds holds a kind-7 need to what it may buy. Dropped whole: one
// short or long, for an object the session does not know, from a peer it
// does not push to, from a banned peer, and one naming a run past the
// manifest's end — 2³¹−1 and 2³²−2 among them, whose item, one more, wraps
// an int on 32-bit builds. 2³²−1 names the META, item 0, and buys it
// alone. From a peer pushed to, a flood — a need for the META and one for
// each run before every push round — buys at most one item a horizon, and
// leaves the peer's frontier standing.
func TestNeedBounds(t *testing.T) {
	const k = 3 * 1024 // three runs
	t.Run("dropped", func(t *testing.T) {
		s, rec, clk, id := needSource(t, k)
		clk.Advance(time.Second)
		s.mu.Lock()
		// Past the horizon: a need would be answered, and nothing else is
		// owed.
		s.objects[id].peers["peer"].proofAt = clk.Now().Add(-10 * time.Millisecond)
		s.banned["banned"] = struct{}{}
		s.objects[id].peer("banned")
		s.mu.Unlock()
		var other packet.ObjectID
		other[0] = 1
		frames := map[transport.Addr][][]byte{
			"peer": {
				needFrame(id, needMeta)[:needLen-1],
				append(needFrame(id, needMeta), 0),
				needFrame(other, needMeta),
				needFrame(id, 3), needFrame(id, 1<<31-1), needFrame(id, 1<<31), needFrame(id, 1<<32-2),
			},
			"stranger": {needFrame(id, needMeta), needFrame(id, 0)},
			"banned":   {needFrame(id, needMeta), needFrame(id, 0)},
		}
		for from, fs := range frames {
			injectBurst(s, from, fs)
		}
		s.push()
		for to, fs := range rec.take() {
			if meta, man, _ := frameCounts(fs); meta+man > 0 {
				t.Errorf("%d META and %d MANIFEST frames to %s", meta, man, to)
			}
		}
		if _, ok := s.objects[id].peers["stranger"]; ok {
			t.Error("a need from a stranger made it a peer")
		}
		injectFrame(s, "peer", needFrame(id, 2))
		s.push()
		if meta, man, _ := frameCounts(rec.take()["peer"]); meta != 0 || man != 1 {
			t.Errorf("a need for run 2 drew %d META and %d MANIFEST frames, want the run alone", meta, man)
		}
		clk.Advance(10 * time.Millisecond)
		injectFrame(s, "peer", needFrame(id, 1<<32-1))
		s.push()
		if meta, man, _ := frameCounts(rec.take()["peer"]); meta != 1 || man != 0 {
			t.Errorf("a need for run 2³²−1 drew %d META and %d MANIFEST frames, want the META alone", meta, man)
		}
	})
	t.Run("flood", func(t *testing.T) {
		s, rec, clk, id := needSource(t, k)
		ps := s.objects[id].peers["peer"]
		ps.frontier = [][]byte{make([]byte, frontierLen(k))}
		const span = 40 * time.Millisecond
		meta, man := 0, 0
		for start := clk.Now(); clk.Since(start) < span; clk.Advance(s.cfg.Tick / 8) {
			injectBurst(s, "peer", [][]byte{needFrame(id, needMeta), needFrame(id, 0), needFrame(id, 1), needFrame(id, 2)})
			s.push()
			n, r, _ := frameCounts(rec.take()["peer"])
			meta, man = meta+n, man+r
		}
		h := ps.link.Horizon() // no round trip sampled: two ticks
		most := int(span/h) + 1
		t.Logf("over %v at a horizon of %v: %d META, %d MANIFEST frames", span, h, meta, man)
		if meta+man == 0 {
			t.Fatal("no META or MANIFEST frame went again: the needs did nothing")
		}
		if meta+man > most {
			t.Errorf("a flood of needs bought %d META and %d MANIFEST frames over %v; want at most %d, one a horizon of %v",
				meta, man, span, most, h)
		}
		if ps.frontier == nil {
			t.Error("the flood of needs dropped the peer's frontier")
		}
	})
}
