package session

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"ltnc/internal/integrity"
	"ltnc/internal/packet"
	"ltnc/internal/transport"
)

// TestOneReportABatch: a batch of rows for a generation that is complete
// here, or for an object that is, draws one report back to their
// upstream, not one a row: the status each row owes is sent once, at the
// batch's end, with the counters of every row the batch judged. Rows of
// both generations of a complete object still draw one.
func TestOneReportABatch(t *testing.T) {
	const gens, kPer, m, n = 2, 16, 8, 24
	content := testContent(gens*kPer*m, 47)
	d := servedDesc(t, content, gens*kPer, gens)
	id := d.Object
	s, rec, _ := pushSession(t, "node", func(c *Config) { c.Relay = true })
	injectBurst(s, "up", manifestRuns(t, d, content))
	natives := func(g int) [][]byte {
		rows := make([][]byte, kPer)
		for i := range rows {
			rows[i] = handRow(t, id, content, gens, kPer, g, false, i)
		}
		return rows
	}
	batch := func(gs ...int) [][]byte {
		rows := make([][]byte, n)
		for i := range rows {
			rows[i] = handRow(t, id, content, gens, kPer, gs[i%len(gs)], false, i%kPer)
		}
		return rows
	}
	// report takes the frames sent to up since the last call: exactly one,
	// a report with flags want.
	report := func(t *testing.T, want byte) (gen, received, innovative uint32) {
		t.Helper()
		fs := rec.take()["up"]
		if len(fs) != 1 || !isReport(fs[0]) {
			t.Fatalf("%d frames back for a batch of %d rows (%q), want one report", len(fs), n, kinds(fs))
		}
		if r, _ := parseReport(fs[0]); r.Flags != want {
			t.Fatalf("report flags %03b, want %03b", r.Flags, want)
		}
		gen, received, innovative, _ = reportCounters(fs[0])
		return gen, received, innovative
	}

	injectBurst(s, "up", natives(0))
	rec.take()
	t.Run("generation-complete", func(t *testing.T) {
		injectBurst(s, "up", batch(0))
		if gen, recv, inno := report(t, packet.ReportGenComplete); gen != 0 || recv != kPer+n || inno != kPer {
			t.Errorf("report about generation %d, %d rows received, %d innovative; want 0, %d and %d", gen, recv, inno, kPer+n, kPer)
		}
	})
	injectBurst(s, "up", natives(1))
	if o, _ := s.Object(id); !o.Complete {
		t.Fatalf("object not complete: %+v", o)
	}
	rec.take()
	t.Run("complete", func(t *testing.T) {
		injectBurst(s, "up", batch(0, 1))
		report(t, packet.ReportComplete)
	})
}

// TestReceiptLeavesWhenDue: a receipt leaves the moment it falls due — at
// the receiptEvery-th of its upstream's rows the batch judges, not behind
// the batch's other rows — and with no object lock held across the send.
func TestReceiptLeavesWhenDue(t *testing.T) {
	const k, m, seed = 64, 16, 51
	n := newStepNet(t, k, m, seed, nil, "src", "dst").subscribe()
	dst, content := n.nodes["dst"], testContent(k*m, seed)
	for i := range 2 * receiptEvery { // one batch, all queued at one instant
		n.recs["dst"].deliver("src", handRow(t, n.id, content, 1, k, 0, false, i))
	}
	var judged []uint32 // the upstream's tally as each receipt left
	n.recs["dst"].sent = func(to transport.Addr, f []byte) {
		if to != "src" || !isReport(f) {
			return
		}
		st := dst.objects[n.id]
		if !st.mu.TryLock() {
			t.Fatalf("receipt %d left with the object's lock held", len(judged)+1)
		}
		judged = append(judged, st.rx["src"].rows)
		st.mu.Unlock()
	}
	dst.Step()
	if want := []uint32{receiptEvery, 2 * receiptEvery}; !slices.Equal(judged, want) {
		t.Errorf("receipts left with %v rows judged, want %v: one as each fell due", judged, want)
	}
}

// TestRetiredFeedbackKindsMoveNothing: FEEDBACK kinds 2, 3 and 7 are gone
// from the wire. A kind-2 frame from a peer pushed to no longer latches
// done, a kind 3 marks no generation complete and a kind 7 owes no run;
// the report's flags do each.
func TestRetiredFeedbackKindsMoveNothing(t *testing.T) {
	s, _, _ := pushSession(t, "src", nil)
	id, err := s.Serve(testContent(2048*8, 53), 2048, 2)
	if err != nil {
		t.Fatal(err)
	}
	injectFrame(s, "peer", subReport(id))
	ps := s.objects[id].peers["peer"]
	ps.pass, ps.proofAt = -1, s.clk.Now().Add(-time.Second) // the pass long over
	injectBurst(s, "peer", [][]byte{
		retiredFeedback(id, fbRetiredComplete),
		retiredFeedback(id, fbRetiredGenComplete, 1),
		retiredFeedback(id, fbRetiredNeed, 0),
	})
	if ps.done || genDone(ps.gensDone, 1) || ps.owed != 0 {
		t.Fatalf("a retired kind moved the peer: done %v, generation 1 done %v, run owed %d", ps.done, genDone(ps.gensDone, 1), ps.owed)
	}
	for _, c := range []struct {
		name  string
		frame []byte
		moved func() bool
	}{
		{"need", needReport(id, 0), func() bool { return ps.owed == 1 }},
		{"generation-complete", genCompleteReport(id, 1), func() bool { return genDone(ps.gensDone, 1) }},
		{"complete", completeReport(id), func() bool { return ps.done }},
	} {
		if injectFrame(s, transport.Addr("peer"), c.frame); !c.moved() {
			t.Errorf("a report flagging %s moved nothing", c.name)
		}
	}
}

// TestDoneReopenedByReport: a report not flagged complete from a peer that
// said complete re-opens it — an honest re-fetch behind the same address,
// here a restarted fetcher. Its progress is forgotten, since a stale
// generation-done mark would starve the re-fetch, and its proof pass is
// re-armed, or rows would go ahead of their proof: on the source's link to
// the restarted fetcher no row of run r leaves before a MANIFEST frame of
// run r has (TestRowsFollowTheirProof's invariant), and the re-fetch
// completes.
func TestDoneReopenedByReport(t *testing.T) {
	const k, gens, m = 2 * integrity.RunLen, 2, 8
	n := newStepNetG(t, k, gens, m, 67, nil, "src", "dst").subscribe()
	n.delay = n.nodes["src"].cfg.Tick / 2
	for ticks := 0; !n.fetched().Complete; ticks++ {
		if ticks == 2000 {
			t.Fatal("set-up: the first fetch never completed")
		}
		n.tick()
	}
	n.run(4 * n.nodes["src"].cfg.Tick) // the complete report crosses
	ps := n.nodes["src"].objects[n.id].peers["dst"]
	if ps == nil || !ps.done {
		t.Fatalf("set-up: the source holds %+v for the fetcher, want it done", ps)
	}
	ps.gensDone, ps.gensDoneN = []bool{true, false}, 1 // a stale mark the re-fetch must not inherit

	proven := map[uint32]bool{}
	n.lose = func(from, to transport.Addr, f []byte) bool {
		if from != "src" || to != "dst" {
			return false
		}
		if f[0] == packet.FrameManifest {
			mr, err := packet.ParseManifestChunk(f[1:])
			if err != nil {
				t.Fatal(err)
			}
			proven[mr.Run] = true
		}
		for _, r := range runsOf(t, f) {
			if !proven[uint32(r)] {
				t.Fatalf("the source sent the restarted fetcher a row of run %d ahead of the run", r)
			}
		}
		return false
	}
	dst, rec, _ := pushSession(t, "dst", func(c *Config) { c.Clock = n.clk })
	n.nodes["dst"], n.recs["dst"] = dst, rec
	fetch, err := dst.BeginFetch(n.id, "src")
	if err != nil {
		t.Fatal(err)
	}
	defer fetch.End()
	n.next["dst"] = n.clk.Now()
	n.run(n.delay)
	n.settle() // the subscription arrives, and the pass it re-armed goes out
	if ps.done || ps.gensDone != nil || !proven[0] || !proven[1] || !ps.subscribed {
		t.Fatalf("after the restarted fetcher's subscription: done %v, generations done %v, runs sent %v, subscribed %v; want re-opened",
			ps.done, ps.gensDone, proven, ps.subscribed)
	}
	for ticks := 0; !n.fetched().Complete; ticks++ {
		if ticks == 2000 {
			t.Fatal("the re-fetch never completed")
		}
		n.tick()
	}
	if data, _, err, ok := fetch.Result(); !ok || err != nil || !bytes.Equal(data, testContent(k*m, 67)) {
		t.Fatalf("re-fetch: ok=%v err=%v", ok, err)
	}
}

// TestFrontierReopensItsGeneration: a report carrying generation g's
// frontier from a peer its upstream heard complete g clears that mark —
// what a quarantine's re-arm relies on — and no other: with generations 0,
// 1 and 2 heard complete and 1 re-opened, the upstream's next rounds send
// the peer rows of 1 again, and none of 0 or 2.
func TestFrontierReopensItsGeneration(t *testing.T) {
	const k, gens, m = 256, 4, 8
	s, rec, clk := pushSession(t, "src", nil)
	id, err := s.Serve(testContent(k*m, 71), k, gens)
	if err != nil {
		t.Fatal(err)
	}
	injectFrame(s, "peer", subReport(id))
	injectBurst(s, "peer", [][]byte{genCompleteReport(id, 0), genCompleteReport(id, 1), genCompleteReport(id, 2)})
	ps := s.objects[id].peers["peer"]
	if ps.gensDoneN != 3 {
		t.Fatalf("set-up: generations done %v", ps.gensDone)
	}
	injectFrame(s, "peer", reportFrame(packet.Report{Object: id, Gen: 1, Frontier: frontierOf(k/gens, 0, 1)}))
	if genDone(ps.gensDone, 1) || ps.gensDoneN != 2 || ps.frontier == nil || ps.frontier[1] == nil {
		t.Fatalf("after generation 1's frontier: generations done %v (%d), frontier %v; want 0 and 2 done, 1's frontier kept",
			ps.gensDone, ps.gensDoneN, ps.frontier != nil)
	}
	rec.take()
	byGen := map[uint32]int{}
	for range 40 {
		pushTicks(s, clk, 1)
		for _, f := range rec.take()["peer"] {
			if f[0] == packet.FrameData {
				wv, err := packet.ParseWire(f[1:])
				if err != nil {
					t.Fatal(err)
				}
				byGen[wv.Generation]++
			}
		}
	}
	if byGen[1] == 0 || byGen[0]+byGen[2] != 0 {
		t.Errorf("rows by generation after the re-open: %v; want generation 1's and none of 0's or 2's", byGen)
	}
}

// TestStrangerCompleteMovesNothing: a complete report from a peer not in
// the object's table subscribes nothing and makes no state — at a source
// that holds the object, at a relay that does not (it learns no object),
// at a cache — and draws no frame.
func TestStrangerCompleteMovesNothing(t *testing.T) {
	src, srcRec, srcClk := pushSession(t, "src", nil)
	id, err := src.Serve(testContent(64*8, 73), 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	relay, relayRec, relayClk := pushSession(t, "relay", func(c *Config) { c.Relay = true })
	cache, cacheRec, cacheClk := pushSession(t, "cache", func(c *Config) { c.CacheBudget = 1 << 20 })
	for _, c := range []struct {
		s   *Session
		rec *recTransport
		clk *transport.VClock
	}{{src, srcRec, srcClk}, {relay, relayRec, relayClk}, {cache, cacheRec, cacheClk}} {
		objs, peers := tableSize(c.s)
		injectFrame(c.s, "stranger", completeReport(id))
		pushTicks(c.s, c.clk, 4)
		if o, p := tableSize(c.s); o != objs || p != peers {
			t.Errorf("%s: %d objects and %d peer entries after a stranger's complete report, were %d and %d",
				c.rec.LocalAddr(), o, p, objs, peers)
		}
		if fs := c.rec.take()["stranger"]; len(fs) != 0 {
			t.Errorf("%s sent the stranger %q", c.rec.LocalAddr(), kinds(fs))
		}
	}
}

// TestNoREQOnTheWire: a fetch from a source, through a relay and through a
// cache subscribes with its report and completes; no node sends the
// retired REQ, frame kind 0x02.
func TestNoREQOnTheWire(t *testing.T) {
	const k, m = 256, 16
	for _, up := range []transport.Addr{"src", "relay", "cache"} {
		t.Run(string(up), func(t *testing.T) {
			names := []transport.Addr{"src", up, "dst"}
			if up == "src" {
				names = names[1:]
			}
			n := newStepNet(t, k, m, 79, func(c *Config) {
				if c.Transport.LocalAddr() == "cache" {
					c.CacheBudget = 1 << 20
				}
			}, names...)
			reqs := 0
			n.lose = func(_, _ transport.Addr, f []byte) bool {
				reqs += btoi(f[0] == 0x02)
				return false
			}
			fetch, err := n.nodes["dst"].BeginFetch(n.id, up)
			if err != nil {
				t.Fatal(err)
			}
			defer fetch.End()
			n.next["dst"] = n.clk.Now()
			for ticks := 0; !n.fetched().Complete; ticks++ {
				if ticks == 2000 {
					t.Fatal("fetch incomplete")
				}
				n.tick()
			}
			if reqs != 0 {
				t.Errorf("%d REQ frames on the wire", reqs)
			}
		})
	}
}
