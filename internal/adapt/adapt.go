// Package adapt turns receipt-report feedback into the push path's
// per-link control signals (DESIGN.md §16): a loss estimate and the pacer —
// a window of DATA rows the sender may have in flight toward the peer, at
// most MaxBurst: two of the receiver's ingest batches, so the sender refills
// one while the receiver decodes the other. A receipt leaves the receiver
// the moment it falls due, mid-batch, so the sender hears of a batch's
// first ReceiptEvery rows while the rest decode.
// Receipts are the only progress signal a receiver sends its upstream; a
// row it judges redundant counts in the next receipt's received total and
// not in its innovative one.
//
// One Link tracks one directed (sender → receiver) relationship for one
// object. The sender counts every DATA row it pushes; the receiver's
// receipt reports carry cumulative (received, innovative) counters for
// rows arriving from this sender — one report per ReceiptEvery rows, and
// one whenever its ingest queue runs dry with rows unreported, so a
// window smaller than ReceiptEvery is still acknowledged. Receipts are
// recorded as they arrive and folded by the next Grant, on the push
// goroutine, when the sender-side counter is consistent — a receipt that
// overtakes the commit of the rows it acknowledges must not read as rows
// that were never sent.
//
// A row is in flight from OnSend until it departs, and there are three
// ways out. A receipt credits the rows it newly reports received, never
// more than are in flight. A receipt that also reports how many of this
// sender's rows have departed over there (OnDeparted) — arrived, or proven
// lost by a later arrival: every DATA row carries its send sequence and
// the link is FIFO — proves the rows up to that count it did not credit
// lost, oldest first. And a row nothing has credited or proven within the
// link's horizon of its send ages out: the link lost it with nothing
// behind it to say so, or the peer reports late, without departures, or
// not at all. Proof and ageing feed one column: rows written off as lost
// against rows credited over one interval is a loss sample; an
// exponentially weighted moving average of the samples is the link's loss
// level, and a sample against the level is what moves the window. A proof
// arrives with the receipt after the loss; ageing stays the backstop for
// the case stamps cannot close — the last rows of a window lost, or the
// receipt that would prove them — and for peers that send no departures at
// all.
//
// The horizon is the link's own round trip (RFC 6298's shape). The Link
// keeps the time of its newest sends; a departure count names the newest
// row that departed, each row has its own sequence number — there is no
// retransmission ambiguity to skip samples for (Karn) — and the fold time
// less that row's send time is a round-trip sample, smoothed as SRTT and
// RTTVAR. A row ages out once it has been in flight for
//
//	horizon = min(2·Tick, SRTT + max(Tick/4, 4·RTTVAR)),
//
// 2·Tick before the first sample. Tick/4 is RFC 6298's clock granularity
// G: without it a link of constant delay, RTTVAR decayed to nothing, would
// tie each receipt with its rows' deadline. The cap keeps the pacer's reach
// where it was when the horizon was two ticks: on a round trip past two
// ticks every row ages out before its receipt can arrive, the in-flight
// count stops being the in-network count (TickCeiling rows per tick of
// round trip can be on the wire, and a receiver's queue can overflow), and
// while the rate climbs the loss level over-reads, up to MaxLoss, until the
// rate is steady. The floor, the cap, the ceiling and completion hold there
// (TestRoundTripBeyondTwoTicks, simnet's TestScenarioPacedLongRoundTrip);
// the queue argument under MaxBurst does not. Deadline says when the
// oldest row in flight ages out, so the caller can take its next Grant
// then and not at the next tick.
//
// A departure count may only under-report: a count behind the rows already
// settled proves nothing — 0, what a receiver reports for rows that came
// without stamps, is behind them all — and one beyond the rows sent (a
// receiver that anchored its count on a stale stream, a liar) is ignored —
// neither is a re-baseline, the counters it rode in with fold as usual.
//
// The Link's clock is the one its caller passes to Grant and OnSend, with
// the caller's Tick; the tick index, the session's clock divided by the
// Tick, is what the floor, the per-tick ceiling, the probe and the silence
// rule count in.
//
// Receivers are not trusted. Every output is clamped: an under-claiming
// liar (reporting rows it received as lost) can drag the estimate no
// higher than MaxLoss and halves its own window down to the floor of 1; an
// over-claiming liar empties its in-flight count with every forged receipt
// and so buys at most MaxBurst rows in flight (two more while the probe is
// out, Grant) and TickCeiling rows per tick, and only on its own link —
// nothing a peer reports touches another peer's Link.
// Self-contradictory reports (innovative > received, counters running
// backwards or wrapping) re-baseline without crediting anything. A forged
// departure count buys nothing a forged received count cannot: it only
// empties the liar's own in-flight count. Timed early or late, it moves
// only its own link's horizon, and only within [Tick/4, 2·Tick]: ageing
// sooner frees nothing the window and TickCeiling do not bound already.
//
// Link carries no lock: the session mutates it under the same mutex that
// guards its peer table.
package adapt

import (
	"math"
	"sort"
	"time"
)

const (
	// Alpha is the EWMA weight of a fresh loss sample.
	Alpha = 0.25
	// MaxLoss caps the loss estimate: no report can claim a link worse
	// than this, bounding every downstream control.
	MaxLoss = 0.6

	// ReceiptEvery is how many DATA rows a receiver judges (innovative or
	// redundant) from one sender between receipt reports while its ingest
	// queue stays busy:
	// large enough that under load the feedback stream stays a small
	// fraction of the data stream. It is also the smallest number of
	// departures a loss sample is taken over.
	ReceiptEvery = 16

	// IngestBatch is how many frames a receiver's ingest worker takes per
	// wakeup. Each receipt leaves as it falls due, every ReceiptEvery rows
	// judged, but a window of one batch still has the sender idle while
	// its receiver decodes the batch's last rows.
	IngestBatch = 32
	// MaxBurst caps the window at two receiver batches: the sender refills
	// one while the receiver decodes the other. A full window is half the
	// smallest default queue on the path (Switch port, simnet port and
	// ingest shard queue are all 2·MaxBurst deep), so one sender with a
	// full window in flight cannot overflow a receiver by itself, however
	// fast receipts turn the window over — while the round trip stays
	// within two ticks (package doc).
	MaxBurst = 2 * IngestBatch
	// TickCeiling caps the rows one link may take in one tick, whatever
	// its receipts say. It does not pace an honest link — the window does,
	// turned over as fast as receipts come back — and is set above what
	// one takes: with no ceiling at all, 1 KiB rows on a two-core host
	// (loopback UDP or the in-memory Switch, 2 ms ticks) run 370–500 rows
	// a tick at the 90th percentile and 510–850 at the 99th, the CPU
	// layers the limit; the largest tick seen is one hop of a whole
	// 1,024-row object. 128 rows a tick halved every paced fetch's
	// goodput; 512 still bound one link-tick in a hundred. The ceiling is
	// a per-tick liar bound, not a window multiple: it is for what a
	// forged receipt stream can take — every forged receipt empties the
	// liar's in-flight count, so without it a flood would turn the window
	// over as fast as the sender can run — and for an event clock's
	// instant, in which receipts answer within the instant and a lossless
	// window would otherwise turn over forever.
	TickCeiling = 1024
	// startWindow is the window before any receipt has been folded; a peer
	// that never sends one decays from here to 1.
	startWindow = 4
	// growMargin and stepMargin place a loss sample relative to the
	// link's level. Link loss is a level — it shows in every interval and
	// the coding absorbs it; a queue overflowing under the window arrives
	// as a step. A sample within growMargin of the level means the
	// interval delivered what the link lets through, and the window
	// doubles; a sample more than stepMargin above it halves the window;
	// in between it holds.
	growMargin = 0.05
	stepMargin = 0.25
	// tailWindow is what the end-of-object taper (Grant) narrows a link to.
	tailWindow = 8
	// quietTicks is how many ticks past the expected receipt spacing a
	// link with rows unacknowledged may stay silent before its window
	// halves.
	quietTicks = 4
)

// sends is how many of its newest sends a Link keeps the time of: two
// full windows of one row each, so every row in flight — at most
// MaxBurst, two more for the probe — and those a late receipt may still
// name are dated.
const sends = 2 * MaxBurst

// send dates one OnSend: the rows pushed through it, and when.
type send struct {
	end uint64 // Sent() after it
	at  int64  // the caller's clock, in nanoseconds
}

// Link is the per-(peer, object) estimator state. The zero value is
// ready to use and reports Loss() = 0 until the first sample, so an
// adaptive sender treats a silent peer exactly like a clean link.
type Link struct {
	sent uint64 // rows pushed to the peer, sender-side ground truth
	// The newest receipt, recorded on arrival, folded by the next Grant;
	// departed, with departs, when it carried a departure count.
	recv, inno, departed uint32
	fresh, departs       bool
	// The receiver's counters at the last fold: what has been credited.
	baseRecv, baseInno uint32
	// The open loss interval: rows reported received and rows written off
	// as lost (proven or aged out) since the last sample.
	credited, expired int
	loss              float64
	reports           int
	// Rows written off over the link's life: proven lost by a departure
	// count, and aged out and never reported after all.
	proven, aged uint64

	// The newest sends, oldest first from ring[head], n of them; the rows
	// up to floor went in sends no longer kept, the newest of them at
	// floorAt.
	ring         [sends]send
	head, n      int
	floor        uint64
	floorAt      int64
	srtt, rttvar int64  // the round-trip estimate, in nanoseconds
	sampled      uint64 // the newest row a sample timed; 0 before the first
	period       int64  // the caller's Tick, in nanoseconds, from the latest Grant

	window   int   // rows allowed in flight, in [1, MaxBurst]; 0 before the first Grant
	inFlight int   // rows sent and neither credited nor aged out
	tick     int64 // the latest Grant's tick index
	tickSent int   // rows sent in that tick
	heard    int64 // tick of the last fold, or of the first send after it
	unacked  bool  // rows sent since the last fold
}

// OnSend records n DATA rows pushed to the peer at now.
func (l *Link) OnSend(n int, now time.Time) {
	if n <= 0 {
		return
	}
	l.sent += uint64(n)
	l.inFlight += n
	l.tickSent += n
	if !l.unacked {
		l.unacked, l.heard = true, l.tick
	}
	at := now.UnixNano()
	if l.n > 0 {
		if last := &l.ring[(l.head+l.n-1)%sends]; last.at == at {
			last.end = l.sent // the same instant: one send
			return
		}
	}
	if l.n == sends {
		l.floor, l.floorAt = l.ring[l.head].end, l.ring[l.head].at
		l.head, l.n = (l.head+1)%sends, l.n-1
	}
	l.ring[(l.head+l.n)%sends] = send{l.sent, at}
	l.n++
}

// sentAt returns the send that carried row (counted from 1, at most Sent)
// — its last row and its time — or, for a row older than any send kept,
// the newest send that is not: its rows are at least that old.
func (l *Link) sentAt(row uint64) (end uint64, at int64) {
	if row <= l.floor {
		return l.floor, l.floorAt
	}
	i := sort.Search(l.n, func(i int) bool { return l.ring[(l.head+i)%sends].end >= row })
	s := l.ring[(l.head+i)%sends]
	return s.end, s.at
}

// Sent returns the rows pushed so far.
func (l *Link) Sent() uint64 { return l.sent }

// Reports returns the number of receipt folds that mattered: the first,
// those that closed a loss sample and those that re-baselined the
// counters.
func (l *Link) Reports() int { return l.reports }

// OnReport records one receipt report (cumulative received/innovative
// counters for this link) for the next Grant to fold.
func (l *Link) OnReport(received, innovative uint32) {
	l.recv, l.inno, l.fresh, l.departs = received, innovative, true, false
}

// OnDeparted adds to the receipt OnReport just recorded the departure count
// it carried: how many of the rows pushed on this link, counted from the
// first, have arrived or been proven lost over there. The next Grant writes
// off as lost every row up to it that no receipt credited, and times the
// newest of them.
func (l *Link) OnDeparted(departed uint32) { l.departed, l.departs = departed, true }

// Lost returns the rows written off as lost over the link's life: proven by
// departure counts, and aged out — less those a receipt reported after
// all, which were late, not lost.
func (l *Link) Lost() (proven, aged uint64) { return l.proven, l.aged }

// Window returns the link's current window, before the end-of-object
// taper: 1 until the first Grant.
func (l *Link) Window() int { return max(1, l.window) }

// InFlight returns the rows sent and not yet credited or aged out.
func (l *Link) InFlight() int { return l.inFlight }

// Settled returns how many of the rows pushed have left the in-flight
// count, credited, proven lost or aged out. Rows leave oldest first, so the n-th row
// pushed has settled once Settled() ≥ n — and over a FIFO link the newest
// receipt folded was then written after that row arrived or was lost.
func (l *Link) Settled() uint64 { return l.sent - uint64(l.inFlight) }

// Lacks returns how many of an object's k natives the peer still needs by
// this link's own count: k less the innovative rows it reported receiving
// from this sender.
func (l *Link) Lacks(k int) int { return int(max(0, int64(k)-int64(l.inno))) }

// Horizon returns how long a row may be in flight before it ages out:
// min(2·Tick, SRTT + max(Tick/4, 4·RTTVAR)), 2·Tick before the first
// round-trip sample — Tick as of the latest Grant.
func (l *Link) Horizon() time.Duration {
	if l.sampled == 0 {
		return time.Duration(2 * l.period)
	}
	return time.Duration(min(2*l.period, l.srtt+max(l.period/4, 4*l.rttvar)))
}

// Deadline returns when the oldest row in flight ages out, by the horizon
// as of the latest Grant; the zero Time with none in flight.
func (l *Link) Deadline() time.Time {
	if l.inFlight == 0 {
		return time.Time{}
	}
	_, at := l.sentAt(l.Settled() + 1)
	return time.Unix(0, at+int64(l.Horizon()))
}

// Grant is the pacer's one step, taken by every push round that plans
// this link at now, Tick being the caller's: it ages out the rows in
// flight past the horizon, folds the newest receipt into the in-flight
// count, the round-trip estimate, the loss level and the window, runs the
// silence rule, and returns how many rows may leave toward the peer now —
// what the window has free, at least one row per tick while fewer than
// MaxBurst are in flight (the floor every peer had before receipts set
// the pace, and all a peer that never sends one gets), never more than
// TickCeiling in one tick. Tick must be positive.
//
// The floor row is also granted past a full window while rows sent since
// the last fold are unanswered: the probe. When the last receipt of a full
// window is lost nothing comes back to prove the window's losses, and
// without the probe the sender would idle until they age out; the probe's
// own receipt — a receiver reports what it holds when its queue runs dry —
// carries the departure count that proves them. It costs at most one row a
// tick, two in flight past MaxBurst.
//
// lacks is how many natives the peer still needs, by the best count the
// caller has: Lacks(k), or what the peer itself reported missing — a
// receiver fed by several senders never brings one link's innovative count
// near k. Whatever is in flight when the peer's completion feedback lands
// is waste — and a receiver finishing a decode (the peeling avalanche,
// verification, assembly) is slowest to answer exactly then — so as lacks
// closes in on zero the window tapers to half of it, down to tailWindow:
// from there on any row may be the last.
func (l *Link) Grant(now time.Time, tick time.Duration, lacks int) int {
	at := now.UnixNano()
	l.period = int64(tick)
	tickAt := at / l.period
	if l.window == 0 {
		l.window, l.tick = startWindow, tickAt
	}
	l.age(at)
	if tickAt > l.tick {
		l.tick, l.tickSent = tickAt, 0
	}
	switch {
	case l.fresh:
		l.fresh, l.unacked, l.heard = false, false, l.tick
		l.fold(at)
	case l.unacked && l.tick-l.heard >= int64(quietTicks+2*ReceiptEvery/l.window):
		// Rows unacknowledged and no receipt: a peer that never sends one
		// (a pre-receipt version) or a dead link. Halve toward the floor
		// of 1.
		l.window, l.heard = max(1, l.window/2), l.tick
	}
	free := min(l.window, max(tailWindow, lacks/2)) - l.inFlight
	if l.tickSent == 0 && (l.inFlight < MaxBurst || l.unacked) {
		free = max(free, 1)
	}
	return max(0, min(free, TickCeiling-l.tickSent))
}

// age writes off as lost the rows in flight at now for the horizon or
// longer, oldest first: a send at a time.
func (l *Link) age(now int64) {
	h := int64(l.Horizon())
	for l.inFlight > 0 {
		end, at := l.sentAt(l.Settled() + 1)
		if now-at < h {
			return
		}
		gone := int(min(end-l.Settled(), uint64(l.inFlight)))
		l.writeOff(gone)
		l.aged += uint64(gone)
	}
}

// writeOff takes the n oldest rows in flight out as lost.
func (l *Link) writeOff(n int) {
	l.expired += n
	l.inFlight -= n
}

// prove writes off the rows the newest receipt's departure count says have
// left the link that no receipt credited: under FIFO they were lost. A
// count at or behind what has settled proves nothing new; one past what
// was sent is ignored.
func (l *Link) prove() {
	if !l.departs {
		return
	}
	// Modulo 2³², like the counters: a count behind Settled wraps to far
	// more than is in flight.
	if n := l.departed - uint32(l.Settled()); n <= uint32(l.inFlight) {
		l.writeOff(int(n))
		l.proven += uint64(n)
	}
}

// rtt takes a round-trip sample at now from the newest receipt's
// departure count: the row it names, mapped onto the rows sent modulo 2³²
// as prove maps it, was sent a round trip ago — if it is newer than every
// row timed so far (a stale or repeated count would time a row twice, late)
// and its send is still dated. One past what was sent is ignored. The
// estimate follows RFC 6298: RTTVAR moves a quarter of the way to the
// sample's distance from SRTT, SRTT an eighth of the way to the sample.
func (l *Link) rtt(now int64) {
	if !l.departs {
		return
	}
	back := uint64(uint32(l.sent) - l.departed)
	if back >= l.sent-l.floor {
		return
	}
	row := l.sent - back
	if row <= l.sampled {
		return
	}
	_, at := l.sentAt(row)
	r := max(0, now-at)
	if l.sampled == 0 {
		l.srtt, l.rttvar = r, r/2
	} else {
		l.rttvar += (abs(l.srtt-r) - l.rttvar) / 4
		l.srtt += (r - l.srtt) / 8
	}
	l.sampled = row
}

func abs(d int64) int64 { return max(d, -d) }

// fold credits the rows the newest receipt reports for the first time,
// proves lost what it says departed uncredited, times the row its
// departure count names, and, once the open interval has seen enough
// departures, closes it into a loss sample.
func (l *Link) fold(now int64) {
	defer func() { l.baseRecv, l.baseInno = l.recv, l.inno }()
	// Self-contradictory claims (a receiver restart, a uint32 wrap, a
	// liar) only re-baseline: the counters, and with them the rows in
	// flight and the open interval, which nothing can be credited against
	// any more.
	if l.recv < l.baseRecv || l.inno < l.baseInno || l.inno > l.recv {
		l.inFlight, l.credited, l.expired = 0, 0, 0
		l.reports++
		return
	}
	// Never credit more than was sent: the rows in flight, oldest first,
	// then rows that aged out of this interval — reported after all, they
	// were late, not lost. Whatever a receipt claims beyond that is noise.
	reported := uint64(l.recv - l.baseRecv)
	credit := int(min(reported, uint64(l.inFlight)))
	late := int(min(reported-uint64(credit), uint64(l.expired)))
	l.inFlight -= credit
	l.expired -= late
	l.aged -= min(l.aged, uint64(late)) // a proven row cannot arrive after the row that proved it
	l.credited += credit + late
	l.prove()
	l.rtt(now)
	if l.reports == 0 {
		// The first receipt is proof of life, and worth one doubling. As far
		// as loss goes it only opens the first interval: everything sent a
		// round trip or more ago has aged out by now, on any link, and
		// would read as loss.
		l.window, l.reports = min(MaxBurst, 2*l.window), 1
		l.credited, l.expired = 0, 0
		return
	}
	n := l.credited + l.expired
	if n < max(ReceiptEvery, 2*l.window) {
		return // too few departures to sample: leave the interval open
	}
	sample := float64(l.expired) / float64(n)
	if l.reports == 1 {
		l.loss = sample // no level yet: the first sample is the level
	}
	switch level := l.Loss(); {
	case sample > level+stepMargin:
		l.window = max(1, l.window/2)
	case sample <= level+growMargin:
		l.window = min(MaxBurst, 2*l.window)
	}
	l.loss += Alpha * (sample - l.loss)
	l.credited, l.expired = 0, 0
	l.reports++
}

// Loss returns the clamped loss estimate in [0, MaxLoss]; 0 until the
// first sample.
func (l *Link) Loss() float64 {
	return math.Max(0, math.Min(MaxLoss, l.loss))
}
