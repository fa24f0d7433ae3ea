// Package adapt estimates per-link loss from receipt-report feedback and
// turns the estimate into the push-path control signals of the adaptive
// coding loop (DESIGN.md §16): a redundancy budget replacing the static
// per-node satiation constant, and the loss figure ObjectStats reports.
//
// One Link tracks one directed (sender → receiver) relationship for one
// object. The sender counts every DATA row it pushes; the receiver's
// receipt reports carry cumulative (received, innovative) counters for
// rows arriving from this sender. Comparing the two deltas between
// consecutive reports yields a loss sample that an exponentially
// weighted moving average smooths against reordering and in-flight
// skew.
//
// Receivers are not trusted. Every output is clamped: an under-claiming
// liar (reporting rows it received as lost) can drag the estimate no
// higher than MaxLoss, bounding the redundancy it can extort; an
// over-claiming liar only starves itself, because the estimate is used
// for nothing but the liar's own link. Self-contradictory reports
// (innovative > received, counters running backwards) re-baseline
// without producing a sample.
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
	// minSampleWindow is the smallest send delta a report may sample
	// over. Between two receipts the in-flight population can shift by a
	// handful of rows (ramp-up, satiation pauses, completion tails), and
	// over a tiny window that shift masquerades as heavy loss; requiring
	// a reasonable window keeps the relative skew small.
	minSampleWindow = 8
)

// Link is the per-(peer, object) estimator state. The zero value is
// ready to use and reports Loss() = 0 until the first receipt arrives,
// so an adaptive sender treats a silent peer exactly like a clean link
// (the static default configuration).
type Link struct {
	sent     uint64 // rows pushed to the peer, sender-side ground truth
	lastSent uint64 // sent counter when the last report arrived
	lastRecv uint32 // cumulative received claimed by the last report
	lastInno uint32 // cumulative innovative claimed by the last report
	loss     float64
	inno     float64
	reports  int
}

// OnSend records n DATA rows pushed to the peer.
func (l *Link) OnSend(n int) { l.sent += uint64(n) }

// Sent returns the rows pushed so far.
func (l *Link) Sent() uint64 { return l.sent }

// Reports returns the number of receipt reports that produced a sample
// or re-baselined the counters.
func (l *Link) Reports() int { return l.reports }

// OnReport folds one receipt report (cumulative received/innovative
// counters for this link) into the estimate and reports whether the
// receipt shows innovative progress since the last one — the signal that
// un-sticks a stale satiation streak. Malformed reports (counters
// running backwards, innovative > received) re-baseline without
// sampling, so a liar cannot cook the estimate with impossible claims.
func (l *Link) OnReport(received, innovative uint32) (innovated bool) {
	sentNow := l.sent
	defer func() {
		l.lastRecv, l.lastInno, l.lastSent = received, innovative, sentNow
		l.reports++
	}()
	if received < l.lastRecv || innovative < l.lastInno || innovative > received {
		return false
	}
	dRecv := uint64(received - l.lastRecv)
	// Innovative progress requires received progress too: an innovative
	// row is by definition a received one.
	dInno := innovative > l.lastInno && received > l.lastRecv
	// The first report only baselines the counters: its window starts at
	// the flow's ramp-up, where everything still in flight would read as
	// loss. From the second report on, the in-flight population is
	// roughly steady between windows and the deltas are unbiased.
	if dSent := sentNow - l.lastSent; dSent >= minSampleWindow && l.reports > 0 {
		sample := 1 - float64(dRecv)/float64(dSent)
		sample = math.Max(0, math.Min(1, sample))
		if l.reports == 1 {
			l.loss = sample
		} else {
			l.loss += Alpha * (sample - l.loss)
		}
	}
	if dRecv > 0 {
		r := float64(innovative-l.lastInno) / float64(dRecv)
		if l.inno == 0 {
			l.inno = r
		} else {
			l.inno += Alpha * (r - l.inno)
		}
	}
	return dInno
}

// Loss returns the clamped loss estimate in [0, MaxLoss]; 0 until the
// first report.
func (l *Link) Loss() float64 {
	if l.reports == 0 {
		return 0
	}
	return math.Max(0, math.Min(MaxLoss, l.loss))
}

// InnovationRatio returns the EWMA fraction of received rows that were
// innovative, in [0,1].
func (l *Link) InnovationRatio() float64 {
	return math.Max(0, math.Min(1, l.inno))
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
