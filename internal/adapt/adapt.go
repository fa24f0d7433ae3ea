// Package adapt turns receipt-report feedback into the push path's
// per-link control signals (DESIGN.md §16): a loss estimate, the
// redundancy budget that replaces the static per-node satiation constant,
// and the paced burst — how many DATA rows the sender may push toward the
// peer per tick.
//
// One Link tracks one directed (sender → receiver) relationship for one
// object. The sender counts every DATA row it pushes; the receiver's
// receipt reports carry cumulative (received, innovative) counters for
// rows arriving from this sender, one report per ReceiptEvery rows.
// Receipts are recorded as they arrive and folded once per push tick
// (Pace), when the sender-side counter is consistent — a receipt that
// overtakes the commit of the burst it acknowledges must not read as
// negative loss now and a loss spike one receipt later. Comparing the two
// deltas over one receipt interval yields a loss sample; an exponentially
// weighted moving average of the samples is the link's loss level, and a
// sample against the level is what moves the burst.
//
// Receivers are not trusted. Every output is clamped: an under-claiming
// liar (reporting rows it received as lost) can drag the estimate no
// higher than MaxLoss, bounding the redundancy it can extort, and halves
// its own burst down to the floor of 1; an over-claiming liar buys at
// most MaxBurst rows per tick, and only on its own link — nothing a peer
// reports touches another peer's Link. Self-contradictory reports
// (innovative > received, counters running backwards or wrapping)
// re-baseline without producing a sample.
//
// Link carries no lock: the session mutates it under the same mutex that
// guards its peer table.
package adapt

import "math"

const (
	// Alpha is the EWMA weight of a fresh loss sample.
	Alpha = 0.25
	// MaxLoss caps the loss estimate: no report can claim a link worse
	// than this, bounding every downstream control.
	MaxLoss = 0.6
	// budgetFloorFrac and budgetRiseSlope shape Budget: at zero loss the
	// redundancy budget drops to base·budgetFloorFrac, and it climbs back
	// to the full static base by loss ≈ 0.3.
	budgetFloorFrac = 0.125
	budgetRiseSlope = 3.0

	// ReceiptEvery is how many DATA rows a receiver accepts from one
	// sender between receipt reports: small enough that a loss estimate
	// forms within one generation and the burst ramps within tens of
	// ticks; large enough that the feedback stream stays a small fraction
	// of the data stream. It is also the smallest window a loss sample is
	// taken over — between two folds the unreported remainder at the
	// receiver shifts by up to ReceiptEvery−1 rows, and over a smaller
	// window that shift masquerades as heavy loss.
	ReceiptEvery = 16

	// MaxBurst caps the paced burst: half the smallest default queue on
	// the path (Switch port, ingest shard queue and receive batch are all
	// 64 deep), so one sender at the cap cannot overflow a receiver by
	// itself and a forged receipt buys at most this many rows per tick.
	MaxBurst = 32
	// startBurst is the burst before any receipt has been folded; a peer
	// that never sends one decays from here to 1.
	startBurst = 4
	// growMargin and stepMargin place a loss sample relative to the
	// link's level. Link loss is a level — it shows in every interval and
	// the coding absorbs it; a queue overflowing under the burst arrives
	// as a step. A sample within growMargin of the level means the
	// interval delivered what the link lets through, and the burst
	// doubles; a sample more than stepMargin above it halves the burst;
	// in between it holds.
	growMargin = 0.05
	stepMargin = 0.25
	// tailBurst is what the end-of-object taper (Pace) slows a link to.
	tailBurst = 8
	// quietTicks is how many ticks past the expected receipt spacing a
	// link with rows outstanding may stay silent before its burst halves.
	quietTicks = 4
)

// Link is the per-(peer, object) estimator state. The zero value is
// ready to use and reports Loss() = 0 until the first receipt is folded,
// so an adaptive sender treats a silent peer exactly like a clean link.
type Link struct {
	sent uint64 // rows pushed to the peer, sender-side ground truth
	last int    // rows in the latest push: the rate windows scale with
	// The newest receipt, recorded on arrival, folded by the next Pace.
	recv, inno uint32
	fresh      bool
	// The open receipt interval's baseline: the counters at the last fold.
	baseSent           uint64
	baseRecv, baseInno uint32
	loss               float64
	reports            int
	burst              int // paced rows per tick in [1, MaxBurst]; 0 before the first Pace
	quiet              int // consecutive ticks with rows outstanding and no receipt
}

// OnSend records n DATA rows pushed to the peer in one tick.
func (l *Link) OnSend(n int) {
	l.sent += uint64(n)
	l.last = n
}

// Sent returns the rows pushed so far.
func (l *Link) Sent() uint64 { return l.sent }

// Reports returns the number of folded receipt intervals: those that
// produced a sample or re-baselined the counters.
func (l *Link) Reports() int { return l.reports }

// OnReport records one receipt report (cumulative received/innovative
// counters for this link) for the next Pace to fold, and reports whether
// it shows innovative progress since the previous one — the signal that
// un-sticks a stale satiation streak. Malformed reports (counters
// running backwards, innovative > received) never count as progress.
func (l *Link) OnReport(received, innovative uint32) (innovated bool) {
	// Innovative progress requires received progress too: an innovative
	// row is by definition a received one.
	innovated = innovative <= received && innovative > l.inno && received > l.recv
	l.recv, l.inno, l.fresh = received, innovative, true
	return innovated
}

// Burst returns the link's current paced burst, before the end-of-object
// taper: 1 until the first Pace.
func (l *Link) Burst() int { return max(1, l.burst) }

// Pace is the once-per-tick step: it folds the newest receipt into the
// loss level and the burst, ages the silence counter, and returns how
// many rows to push toward the peer this tick, in [1, MaxBurst].
//
// k is the object's native count. Whatever is in flight when the peer's
// completion feedback lands is waste — and a receiver finishing a decode
// (the peeling avalanche, verification, assembly) is slowest to answer
// exactly then — so as the peer's reported innovative count closes in on
// k the burst tapers to half the rows still missing, down to tailBurst:
// from there on any row may be the last.
func (l *Link) Pace(k int) int {
	if l.burst == 0 {
		l.burst = startBurst
	}
	switch {
	case l.fresh:
		l.fresh, l.quiet = false, 0
		l.fold()
	case l.sent > l.baseSent:
		// Rows outstanding and no receipt: a peer that never sends one (a
		// pre-receipt version), one that answers every row with a
		// redundancy abort, or a dead link. Halve toward the floor of 1 —
		// the pace every peer got before receipts set it.
		if l.quiet++; l.quiet >= quietTicks+2*ReceiptEvery/max(l.last, 1) {
			l.burst, l.quiet = max(1, l.burst/2), 0
		}
	}
	need := int64(k) - int64(l.inno)
	return min(l.burst, int(max(tailBurst, need/2)))
}

// fold closes the open receipt interval against the newest receipt, if
// the interval is wide enough to sample.
func (l *Link) fold() {
	rebase := func() {
		l.baseSent, l.baseRecv, l.baseInno = l.sent, l.recv, l.inno
		l.reports++
	}
	// Self-contradictory claims (a receiver restart, a uint32 wrap, a
	// liar) only re-baseline the counters.
	if l.recv < l.baseRecv || l.inno < l.baseInno || l.inno > l.recv {
		rebase()
		return
	}
	// So does the first report, as far as loss goes: its interval starts
	// at the flow's ramp-up, where everything still in flight would read
	// as loss. But it is proof of life, and worth one doubling.
	if l.reports == 0 {
		l.burst = min(MaxBurst, 2*l.burst)
		rebase()
		return
	}
	dSent := l.sent - l.baseSent
	if dSent < uint64(max(ReceiptEvery, 2*l.last)) {
		return // too narrow to sample: leave the interval open
	}
	sample := 1 - float64(l.recv-l.baseRecv)/float64(dSent)
	sample = math.Max(0, math.Min(1, sample))
	if l.reports == 1 {
		l.loss = sample // no level yet: the first sample is the level
	}
	switch level := l.Loss(); {
	case sample > level+stepMargin:
		l.burst = max(1, l.burst/2)
	case sample <= level+growMargin:
		l.burst = min(MaxBurst, 2*l.burst)
	}
	l.loss += Alpha * (sample - l.loss)
	rebase()
}

// Loss returns the clamped loss estimate in [0, MaxLoss]; 0 until the
// first sample.
func (l *Link) Loss() float64 {
	return math.Max(0, math.Min(MaxLoss, l.loss))
}

// Budget maps the loss estimate to the redundancy budget that replaces
// the static satiation constant: the number of consecutive redundant
// signals tolerated before pausing push to the peer. Clean links pause
// after base·budgetFloorFrac (redundant traffic there is pure waste);
// lossy links keep the full static budget, because under loss a
// redundant streak is noise, not satiation. The result is clamped to
// [max(1, base·budgetFloorFrac), base] — no report can push it past the
// static ceiling.
func (l *Link) Budget(base int) int {
	floor := int(float64(base) * budgetFloorFrac)
	if floor < 1 {
		floor = 1
	}
	b := int(float64(base) * (budgetFloorFrac + budgetRiseSlope*l.Loss()))
	if b < floor {
		b = floor
	}
	if b > base {
		b = base
	}
	return b
}
