package session

import (
	"slices"
	"testing"
	"time"

	"ltnc/internal/integrity"
	"ltnc/internal/packet"
	"ltnc/internal/transport"
)

// Lost proof (DESIGN.md §13): a node that lacks a run of an object's
// manifest says so in every report (the need), and the upstream re-sends
// it a horizon after it last went, its frontier for the node left
// standing.

// needFrom is the report node would send upstream naming run r of c's
// object: its counters for upstream's rows as they stand, and the need.
func (c *stepNet) needFrom(node, upstream transport.Addr, r uint32) []byte {
	var rows, inno, departed uint32
	if st := c.nodes[node].objects[c.id]; st != nil {
		st.mu.Lock()
		if t := st.rx[upstream]; t != nil {
			rows, inno, departed = t.rows, t.inno, t.departed
		}
		st.mu.Unlock()
	}
	return reportFrame(packet.Report{Object: c.id, Flags: packet.ReportNeed, Need: r, Received: rows, Innovative: inno, Departed: departed})
}

// proofRepairSlack is how many ticks past the lossless run a fetch may take
// when one MANIFEST frame is lost on its way: the receipt that names the
// lack leaves with the rows behind the lost frame, the upstream answers it
// a horizon (at most two ticks) after the frame went, and the proof
// crosses in one more.
const proofRepairSlack = 4

// TestLostProofRepairedAtRoundTrip: source → relay → fetcher, a round trip
// a tick; the first MANIFEST frame on its way to the relay, to the fetcher
// or on both hops is lost — of a one-run object (k = 1,024), and the first
// of three (first-of-3). The need clocked by the receipts behind it brings
// it back within a few ticks of the lossless run — not by a subscription
// once the node has decoded — no node sends a report that subscribes or
// re-opens it at its upstream, every upstream's frontier for its
// peer stands from the first receipt to completion, and the lost run is
// sent again exactly once: the needs of the receipts that crossed the
// resend, and one more delivered with it, fall inside the horizon and
// resend nothing. Every other run crosses every hop once: any run is
// adopted on its first arrival, whatever went before it.
func TestLostProofRepairedAtRoundTrip(t *testing.T) {
	const m = 16
	hops := [...][2]transport.Addr{{"src", "relay"}, {"relay", "dst"}}
	run := func(t *testing.T, k int, lossy ...[2]transport.Addr) (ticks int) {
		c := newStepNet(t, k, m, 71, nil, "src", "relay", "dst").subscribe()
		c.delay = c.nodes["src"].cfg.Tick / 2
		sent, reqs := map[[2]transport.Addr]map[uint32]int{}, 0
		c.lose = func(from, to transport.Addr, f []byte) bool {
			reqs += btoi(c.subscribes(from, to, f))
			if f[0] != packet.FrameManifest {
				return false
			}
			hop := [2]transport.Addr{from, to}
			if sent[hop] == nil {
				sent[hop] = map[uint32]int{}
			}
			r := bigEndianU32(f[1+16+52:])
			sent[hop][r]++
			if !slices.Contains(lossy, hop) || r != 0 {
				return false
			}
			if sent[hop][0] == 2 {
				// The repair: a need arriving with it finds it inside the
				// horizon.
				c.recs[from].deliver(to, c.needFrom(to, from, 0))
			}
			return sent[hop][0] == 1
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
			t.Errorf("%d subscriptions sent: a node subscribed again mid-fetch", reqs)
		}
		for _, h := range hops {
			for r := range uint32((k + integrity.RunLen - 1) / integrity.RunLen) {
				want := 1 + btoi(r == 0 && slices.Contains(lossy, h))
				if sent[h][r] != want {
					t.Errorf("run %d went %d times from %s to %s, want %d", r, sent[h][r], h[0], h[1], want)
				}
			}
			if !had[h] {
				t.Errorf("%s never held a frontier for %s: the test exercises nothing", h[0], h[1])
			}
		}
		return ticks
	}
	for _, c := range []struct {
		name string
		k    int
	}{{"MANIFEST", integrity.RunLen}, {"first-of-3", 3 * integrity.RunLen}} {
		lossless := run(t, c.k)
		t.Logf("%s lossless: %d ticks", c.name, lossless)
		for _, lossy := range [][][2]transport.Addr{hops[:1], hops[1:], hops[:]} {
			name := c.name + "-to-" + string(lossy[len(lossy)-1][1])
			if len(lossy) == len(hops) {
				name = c.name + "-to-both"
			}
			t.Run(name, func(t *testing.T) {
				ticks := run(t, c.k, lossy...)
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
// the rounds of its proof pass: every run of the manifest.
func needSource(t *testing.T, k int) (*Session, *recTransport, *transport.VClock, packet.ObjectID) {
	t.Helper()
	s, rec, clk := pushSession(t, "src", nil)
	id, err := s.Serve(testContent(k*8, 73), k, 1)
	if err != nil {
		t.Fatal(err)
	}
	injectFrame(s, "peer", subReport(id))
	for ps := s.objects[id].peers["peer"]; ps.pass >= 0; {
		s.push()
	}
	rec.take()
	return s, rec, clk, id
}

// TestNeedBounds holds a report's need to what it may buy. Dropped whole:
// one short or long, for an object the session does not know, from a banned
// peer, and one naming a run past the manifest's end — 2³¹−1, 2³²−2 and
// 2³²−1 among them, which wrap an int on 32-bit builds. From a peer it does
// not push to, a need is a report like any other, so it subscribes that
// peer, and buys nothing the subscription's proof pass does not send anyway.
// A need for a run the session holds buys that run alone. From a peer pushed
// to, a flood — a need for each run before every push round — buys at most
// one run a horizon, and leaves the peer's frontier standing.
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
				needReport(id, 0)[:1+packet.ReportLen-1],
				append(needReport(id, 0), 0),
				needReport(other, 0),
				needReport(id, 3), needReport(id, 1<<31-1), needReport(id, 1<<31), needReport(id, 1<<32-2), needReport(id, 1<<32-1),
			},
			"stranger": {needReport(id, 0), needReport(id, 1)},
			"banned":   {needReport(id, 0), needReport(id, 1)},
		}
		for from, fs := range frames {
			injectBurst(s, from, fs)
		}
		s.push()
		for to, fs := range rec.take() {
			if man, _ := frameCounts(fs); man > 0 && to != "stranger" {
				t.Errorf("%d MANIFEST frames to %s", man, to)
			}
		}
		if ps := s.objects[id].peers["stranger"]; ps == nil || !ps.subscribed || ps.owed != 0 {
			t.Errorf("a need from a stranger: peer state %+v, want a subscriber owed no run", ps)
		}
		injectFrame(s, "peer", needReport(id, 2))
		s.push()
		if fs := rec.take()["peer"]; len(fs) != 1 || fs[0][0] != packet.FrameManifest || bigEndianU32(fs[0][1+16+52:]) != 2 {
			t.Errorf("a need for run 2 drew %q, want the run alone", kinds(fs))
		}
	})
	t.Run("flood", func(t *testing.T) {
		s, rec, clk, id := needSource(t, k)
		ps := s.objects[id].peers["peer"]
		ps.frontier = [][]byte{make([]byte, packet.FrontierLen(k))}
		const span = 40 * time.Millisecond
		man := 0
		for start := clk.Now(); clk.Since(start) < span; clk.Advance(s.cfg.Tick / 8) {
			injectBurst(s, "peer", [][]byte{needReport(id, 0), needReport(id, 1), needReport(id, 2)})
			s.push()
			r, _ := frameCounts(rec.take()["peer"])
			man += r
		}
		h := ps.link.Horizon() // no round trip sampled: two ticks
		most := int(span/h) + 1
		t.Logf("over %v at a horizon of %v: %d MANIFEST frames", span, h, man)
		if man == 0 {
			t.Fatal("no MANIFEST frame went again: the needs did nothing")
		}
		if man > most {
			t.Errorf("a flood of needs bought %d MANIFEST frames over %v; want at most %d, one a horizon of %v",
				man, span, most, h)
		}
		if ps.frontier == nil {
			t.Error("the flood of needs dropped the peer's frontier")
		}
	})
}
