package session

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"ltnc/internal/cache"
	"ltnc/internal/packet"
	"ltnc/internal/transport"
)

// Sequence-proven loss (DESIGN.md §16): DATA rows carry their send
// sequence on the link, the receiver's receipts say how many have departed,
// and the sender writes off a lost row at the receipt after it.

// TestLossyFetchTicks: source → relay → fetcher on the event clock, k =
// 1,024, every frame — DATA, receipts, MANIFEST — dropped with
// probability 0.2. A row a hop lost leaves its sender's window at the
// receipt after it, not when it ages out at the end of the next tick, so
// the window keeps turning over: 36.9 ticks on average over 60 seeds
// before departures (the source's rows per tick read 38 1 31 128 17 29 3
// 68 27 85 0 104 0 128 …: whole ticks idle behind a window of rows
// already lost), 17.4 with them while adapt.TickCeiling was 128 rows a tick
// and bound the window's turnover, 10.3 with the window alone pacing the
// link (360 runs: 3–26 ticks, a standard deviation of 3.2), 8.5 with a
// window of two receiver batches (12 seeds: 5–11), and 2.7 (2–4) with what
// no receipt proves ageing out at the link's round trip plus Tick/4, not at
// the end of the next tick. A lossless fabric takes 1 tick, 8 under the old
// ceiling. The rows it takes per hop stay where frontier repair put them.
func TestLossyFetchTicks(t *testing.T) {
	const k, m, p, runs = 1024, 16, 0.20, 12
	fetch := func(lose func(from, to transport.Addr, frame []byte) bool) (ticks int, perTick []string, c *stepNet) {
		c = newStepNet(t, k, m, 57, nil, "src", "relay", "dst").subscribe()
		c.lose = lose
		for ; ticks < 2000 && !c.fetched().Complete; ticks++ {
			perTick = append(perTick, fmt.Sprint(c.tick()["src"]))
		}
		if !c.fetched().Complete {
			t.Fatalf("fetch incomplete after %d ticks", ticks)
		}
		return ticks, perTick, c
	}
	if n, perTick, _ := fetch(nil); n > 4 {
		t.Errorf("lossless fetch took %d ticks (the source's rows per tick %s), want at most 4", n, strings.Join(perTick, " "))
	}
	base := testSeed(t)
	t.Logf("loss seeds %d..%d", base, base+runs-1)
	ticks := 0
	sent := map[transport.Addr]int64{}
	for seed := base; seed < base+runs; seed++ {
		n, perTick, c := fetch(lossy(seed, p))
		for _, hop := range []transport.Addr{"src", "relay"} {
			o, _ := c.nodes[hop].Object(c.id)
			sent[hop] += o.Sent
		}
		ticks += n
		t.Logf("seed %d: %d ticks; the source's rows per tick %s", seed, n, strings.Join(perTick, " "))
	}
	// About four standard deviations of a 12-run mean either side: the
	// window alone passes, a ceiling that binds it (17.4) does not.
	if mean := float64(ticks) / runs; mean > 14.5 {
		t.Errorf("lossy fetch took %.1f ticks on average, want at most 14.5 (lossless: 1)", mean)
	}
	for hop, n := range sent {
		if mean := float64(n) / runs; mean > 1.35*k {
			t.Errorf("%s sent %.0f rows a run for k = %d at %.0f%% loss, want at most 1.35·k", hop, mean, k, 100*p)
		}
	}
}

// inNetwork counts the DATA rows from → to the network still holds: in
// flight, or delivered and not yet taken by the receiver's Step.
func (n *stepNet) inNetwork(from, to transport.Addr) (rows int) {
	for _, c := range n.flight {
		rows += btoi(c.from == from && c.to == to && c.frame[0] == packet.FrameData)
	}
	for _, f := range n.recs[to].inbox {
		rows += btoi(f.From == from && f.Data[0] == packet.FrameData)
	}
	return rows
}

// TestLateAnchorFallsBackToAgeing: a departure count may only under-report.
// A receiver that first hears the sender at its 300th row can only anchor
// its count at the least that row's sequence can be — behind by 256 — and
// a run of losses longer than a stamp unwraps (128) leaves it behind by as
// much; either way the sender's rows settle ahead of the count, and the
// link is back to ageing — what it was before departures, nothing worse.
// Shorter runs of losses, from a good anchor, are proven. In no case is a
// row the network still holds written off.
func TestLateAnchorFallsBackToAgeing(t *testing.T) {
	for _, tc := range []struct {
		name string
		lost func(row int) bool // which of the sender's DATA rows the link drops
		// From row off on departures prove nothing more (0: they prove
		// losses to the end); behind is how far the receiver's count ends up
		// behind the rows that reached it.
		off, behind int
	}{
		{"late-anchor", func(row int) bool { return row < 300 || (row > 320 && row <= 390) }, 1, 256},
		{"short-burst", func(row int) bool { return row > 100 && row <= 170 }, 0, 0},
		{"burst-past-unwrap", func(row int) bool { return (row > 100 && row <= 170) || (row > 300 && row <= 430) }, 431, 128},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := newStepNet(t, 2048, 16, 58, nil, "src", "dst").subscribe()
			// A round trip of 0.6 ticks: the probe of a tick's first round is
			// still out when the receipt for the rows before it lands.
			n.delay = 3 * n.nodes["src"].cfg.Tick / 10
			rows, lost := 0, 0
			n.lose = func(from, _ transport.Addr, f []byte) bool {
				if from != "src" || f[0] != packet.FrameData {
					return false
				}
				rows++
				lost += btoi(tc.lost(rows))
				return tc.lost(rows)
			}
			link := &n.nodes["src"].objects[n.id].peers["dst"].link
			provenAtOff := -1
			n.stepped = func(transport.Addr) {
				inNet := n.inNetwork("src", "dst")
				if settled, sent := link.Settled(), link.Sent(); settled > sent-uint64(inNet) {
					t.Fatalf("row %d: %d of %d rows settled with %d still in the network", rows, settled, sent, inNet)
				}
				if proven, _ := link.Lost(); tc.off > 0 && rows >= tc.off && provenAtOff < 0 {
					provenAtOff = int(proven)
				}
			}
			for tick := 0; tick < 5000 && !n.fetched().Complete; tick++ {
				n.tick()
			}
			if !n.fetched().Complete || rows < 500 {
				t.Fatalf("fetch complete %v after %d rows: the test exercised nothing", n.fetched().Complete, rows)
			}
			tally := n.nodes["dst"].objects[n.id].rx["src"]
			proven, aged := link.Lost()
			t.Logf("%d rows, %d lost: %d proven lost, %d aged out; the receiver counts %d departed",
				rows, lost, proven, aged, tally.departed)
			if behind := rows - n.inNetwork("src", "dst") - int(tally.departed); behind != tc.behind {
				t.Errorf("the receiver's count ends %d behind the rows that reached it, want %d", behind, tc.behind)
			}
			if tc.off == 0 && proven == 0 {
				t.Error("no loss proven from a good anchor")
			}
			if tc.off > 0 && int(proven) != provenAtOff {
				t.Errorf("%d rows proven lost by row %d, %d at the end: departures proved what they could not", provenAtOff, tc.off, proven)
			}
		})
	}
}

// TestTailLossAgesAtRoundTrip: a link with a round trip of a tenth of a
// Tick loses the last DATA row of each of the source's first 24 bursts (a
// burst being what one Step sends; past 24 it loses nothing, or the last
// native, repeated alone, would never arrive). A pass row lost so is proven
// by the rows of the next burst; a lone repeat lost so has nothing behind
// it, and the source idles until the row ages out — at the link's round
// trip plus Tick/4, where it waited two ticks before. The fetch of 64
// natives took 31 ticks then; it takes 4 now, the deadline round resending
// each lost repeat within the tick it was lost in.
func TestTailLossAgesAtRoundTrip(t *testing.T) {
	const k, bursts, tickBound = 64, 24, 31
	n := newStepNet(t, k, 16, 61, nil, "src", "dst").subscribe()
	n.delay = n.nodes["src"].cfg.Tick / 20
	var last []byte // the last DATA row of the Step under way at src
	burst, dropped := 0, 0
	n.lose = func(from, _ transport.Addr, f []byte) bool {
		if from == "src" && f[0] == packet.FrameData {
			burst, last = burst+1, f
		}
		return false
	}
	n.stepped = func(name transport.Addr) {
		if name != "src" {
			return
		}
		if burst > 0 && dropped < bursts {
			i := slices.IndexFunc(n.flight, func(c carried) bool { return &c.frame[0] == &last[0] })
			n.flight = slices.Delete(n.flight, i, i+1)
			dropped++
		}
		burst, last = 0, nil
	}
	ticks := 0
	for ; ticks < 1000 && !n.fetched().Complete; ticks++ {
		n.tick()
	}
	proven, aged := n.nodes["src"].objects[n.id].peers["dst"].link.Lost()
	t.Logf("%d ticks; %d rows dropped, %d proven lost, %d aged out", ticks, dropped, proven, aged)
	if !n.fetched().Complete || dropped < bursts || aged == 0 {
		t.Fatalf("complete %v after %d ticks, %d rows dropped, %d aged out: the test exercised nothing", n.fetched().Complete, ticks, dropped, aged)
	}
	if ticks > tickBound/2 {
		t.Errorf("the fetch took %d ticks, want at most half the %d it took with rows ageing at two ticks", ticks, tickBound)
	}
}

// TestPassThroughClearsStamps: a budget-bound cache forwards the rows it
// has no room for byte for byte — the upstream's stamp included, which is
// the upstream's place on its own link. Cleared, the downstream's count of
// the cache's rows departed never runs past what the cache sent it.
func TestPassThroughClearsStamps(t *testing.T) {
	const k, m = 256, 16
	n := newStepNet(t, k, m, 59, func(c *Config) {
		if c.Transport.LocalAddr() == "cache" {
			c.CacheBudget = cache.EntryOverhead + 64*cache.RowCost(k, m)
		}
	}, "src", "cache", "down")
	n.nodes["cache"].AddPeer("down")
	n.nodes["down"].Watch(n.id, func(ObjectStats) {})
	forwarded, dealt := 0, 0
	n.lose = func(from, _ transport.Addr, f []byte) bool {
		if from == "cache" && f[0] == packet.FrameData {
			forwarded += btoi(f[1+3] == 0)
			dealt += btoi(f[1+3] != 0)
		}
		return false
	}
	n.stepped = func(transport.Addr) {
		down, cached := n.nodes["down"].objects[n.id], n.nodes["cache"].objects[n.id]
		if down == nil || cached == nil || down.rx["cache"] == nil {
			return
		}
		if departed, sent := uint64(down.rx["cache"].departed), cached.peers["down"].link.Sent(); departed > sent {
			t.Fatalf("the downstream counts %d of the cache's rows departed, the cache sent it %d", departed, sent)
		}
	}
	for tick := 0; tick < 200 && !n.fetched().Complete; tick++ {
		n.tick()
	}
	t.Logf("the cache forwarded %d rows and dealt %d", forwarded, dealt)
	if forwarded == 0 || dealt == 0 {
		t.Fatalf("the cache forwarded %d rows and dealt %d: the test exercised nothing", forwarded, dealt)
	}
}

// TestRedundantRowsClockReceipts: a row the receiver judges redundant on
// its header gets no reply of its own, yet it still clocks the receipts —
// counted received and not innovative, its stamp advancing the departure
// count — or a sender whose rows have all turned redundant would hear
// nothing at all: its window never turns over, and the rows in it age out
// as if lost, tick after tick.
func TestRedundantRowsClockReceipts(t *testing.T) {
	const k = 64
	content := testContent(k*16, 60)
	id := packet.NewObjectID(content)
	dst, rec, _ := pushSession(t, "dst", func(c *Config) { c.Relay = true })
	seq := uint64(0)
	burst := func(natives int) {
		frames := make([][]byte, natives)
		for i := range frames {
			seq++
			frames[i] = handRow(t, id, content, 1, k, 0, false, i)
			packet.Restamp(frames[i][1:], packet.SeqStamp(seq))
		}
		injectBurst(dst, "src", frames)
	}
	counters := func() (receipts int, received, innovative, departed uint32) {
		needs := 0
		for _, f := range rec.take()["src"] {
			if !isReport(f) {
				t.Fatalf("the upstream was sent %x, want reports only", f)
			}
			// No run came: each receipt says it needs run 0.
			receipts++
			needs += btoi(isNeed(f))
			_, received, innovative, departed = reportCounters(f)
		}
		if needs != receipts {
			t.Errorf("%d receipts of which %d name a need, want all: the object has no run", receipts, needs)
		}
		return receipts, received, innovative, departed
	}
	burst(receiptEvery) // natives 0..15: innovative
	if n, recv, inno, dep := counters(); n != 1 || recv != receiptEvery || inno != receiptEvery || dep != receiptEvery {
		t.Fatalf("%d receipts for %d innovative rows, the last (%d received, %d innovative, departed %d)", n, receiptEvery, recv, inno, dep)
	}
	burst(receiptEvery) // natives 0..15 again: redundant on the header
	n, recv, inno, dep := counters()
	if n != 1 || recv != 2*receiptEvery || inno != receiptEvery || dep != uint32(seq) {
		t.Errorf("%d receipts for %d redundant rows, the last (%d received, %d innovative, departed %d); want one (%d, %d, %d)",
			n, receiptEvery, recv, inno, dep, 2*receiptEvery, receiptEvery, seq)
	}
	if o, _ := dst.Object(id); o.Aborted != receiptEvery || o.Received != receiptEvery {
		t.Errorf("%d rows aborted, %d received, want %d of each", o.Aborted, o.Received, receiptEvery)
	}
}

// TestReceiptFormsParseAsThemselves: for every k/G from 1 to 64 the
// receipt in both forms — the counters alone, and with a frontier — and
// with either departure count — a stamped upstream's, and the 0 an
// unstamped one gets — is taken as what it is: the counters folded, the
// departure count proving lost what no receipt credited, 0 proving nothing,
// and the frontier kept only from the form that carries one.
func TestReceiptFormsParseAsThemselves(t *testing.T) {
	const received = 3
	for kPer := 1; kPer <= 64; kPer++ {
		decoded := []int32{0, int32(kPer - 1)}
		for _, form := range []struct {
			departed uint32
			frontier bool
		}{{0, false}, {0, true}, {9, false}, {9, true}} {
			s, _, _ := pushSession(t, "src", nil)
			id, err := s.Serve(testContent(kPer*8, int64(kPer)), kPer, 1)
			if err != nil {
				t.Fatal(err)
			}
			injectFrame(s, "peer", subReport(id))
			ps := s.objects[id].peers["peer"]
			ps.link.OnSend(16, s.clk.Now())
			fl, dec := 0, []int32(nil)
			if form.frontier {
				fl, dec = kPer, decoded
			}
			frame := reportFrame(packet.Report{Object: id, Received: received, Innovative: received, Departed: form.departed, Frontier: frontierOf(fl, dec...)})
			injectFrame(s, "peer", frame)
			ps.link.Grant(s.clk.Now(), s.cfg.Tick, kPer)
			want := max(uint64(received), uint64(form.departed))
			proven, _ := ps.link.Lost()
			if got := ps.link.Settled(); got != want || proven != want-received {
				t.Errorf("k/G %d, %+v: %d rows settled, %d proven lost; want %d and %d", kPer, form, got, proven, want, want-received)
			}
			kept := ps.frontier != nil && ps.frontier[0] != nil
			if kept != form.frontier || kept && !bytes.Equal(ps.frontier[0], frame[len(frame)-packet.FrontierLen(kPer):]) {
				t.Errorf("k/G %d, %+v: frontier kept %v (%x)", kPer, form, kept, ps.frontier)
			}
		}
	}
}
