package adapt

import (
	"math"
	"testing"
)

// report pushes n rows, delivers a receipt claiming the given cumulative
// counters and runs the next tick's fold, mimicking one send→receipt
// round trip.
func report(l *Link, sent int, received, innovative uint32) bool {
	l.OnSend(sent)
	innovated := l.OnReport(received, innovative)
	l.Pace(math.MaxInt32)
	return innovated
}

func TestZeroValueIsCleanLink(t *testing.T) {
	var l Link
	if l.Loss() != 0 {
		t.Errorf("silent link loss = %v, want 0", l.Loss())
	}
	if got := l.Budget(64); got != 8 {
		t.Errorf("silent link budget = %d, want floor 8", got)
	}
}

func TestLossTracksDeltas(t *testing.T) {
	var l Link
	// First round: 100 sent, 100 received — clean.
	report(&l, 100, 100, 100)
	if l.Loss() != 0 {
		t.Fatalf("clean link loss = %v", l.Loss())
	}
	// Sustained 40% loss: samples of 0.4 pull the EWMA up toward 0.4.
	for i := 1; i <= 40; i++ {
		report(&l, 100, 100+uint32(i*60), 100+uint32(i*60))
	}
	if got := l.Loss(); math.Abs(got-0.4) > 0.02 {
		t.Errorf("loss after sustained 40%% erasures = %v, want ≈ 0.4", got)
	}
	// Recovery: the link heals and the estimate follows.
	recv, inno := uint32(100+40*60), uint32(100+40*60)
	for i := 0; i < 40; i++ {
		recv += 100
		inno += 100
		report(&l, 100, recv, inno)
	}
	if got := l.Loss(); got > 0.02 {
		t.Errorf("healed link loss = %v, want ≈ 0", got)
	}
}

func TestInnovationSignal(t *testing.T) {
	var l Link
	if got := report(&l, 10, 10, 10); !got {
		t.Error("first innovative receipt not reported as progress")
	}
	// Received grows but nothing innovative: redundant traffic, no signal.
	if got := report(&l, 10, 20, 10); got {
		t.Error("redundant-only receipt reported as progress")
	}
	if got := report(&l, 10, 30, 15); !got {
		t.Error("innovative receipt not reported as progress")
	}
}

// TestUnderClaimingLiarClamped: a receiver that reports everything as
// lost cannot drag the estimate past MaxLoss or the budget past the
// static base — the extortion ceiling.
func TestUnderClaimingLiarClamped(t *testing.T) {
	var l Link
	for i := 0; i < 100; i++ {
		report(&l, 1000, 0, 0) // "I received nothing", forever
	}
	if got := l.Loss(); got != MaxLoss {
		t.Errorf("under-claiming liar drove loss to %v, clamp is %v", got, MaxLoss)
	}
	const base = 64
	if got := l.Budget(base); got > base {
		t.Errorf("liar inflated budget to %d past static base %d", got, base)
	}
}

// TestOverClaimingLiarClamped: a receiver that claims more rows than
// were ever sent (and perfect innovation) floors the estimate at 0 —
// it starves only itself, and the budget never drops below its floor.
func TestOverClaimingLiarClamped(t *testing.T) {
	var l Link
	recv := uint32(0)
	for i := 0; i < 100; i++ {
		recv += 500 // five times what was actually pushed
		report(&l, 100, recv, recv)
	}
	if got := l.Loss(); got != 0 {
		t.Errorf("over-claiming liar drove loss to %v, want clamp at 0", got)
	}
	const base = 64
	if got := l.Budget(base); got < 1 || got > base {
		t.Errorf("budget %d outside [1, %d]", got, base)
	}
}

// TestContradictoryReportsRebaseline: impossible claims produce no
// sample and no progress signal, but re-anchor the counters so the
// estimator survives a receiver restart.
func TestContradictoryReportsRebaseline(t *testing.T) {
	var l Link
	report(&l, 100, 90, 90)
	pre := l.Loss()
	// innovative > received: a lie on its face.
	if report(&l, 100, 200, 300) {
		t.Error("contradictory report counted as progress")
	}
	if got := l.Loss(); got != pre {
		t.Errorf("contradictory report moved the estimate %v → %v", pre, got)
	}
	// Counters running backwards (receiver restarted): re-baseline only.
	if report(&l, 100, 5, 5) {
		t.Error("regressed counters counted as progress")
	}
	// The next honest report samples from the new baseline without a
	// huge spurious loss spike from the pre-restart counters.
	report(&l, 100, 105, 105)
	if got := l.Loss(); got > pre {
		t.Errorf("post-restart honest report spiked loss to %v (was %v)", got, pre)
	}
}

func TestBudgetShape(t *testing.T) {
	const base = 64
	var clean, mid, harsh Link
	report(&clean, 100, 100, 100)
	for i := 0; i < 50; i++ {
		report(&mid, 100, uint32(100+i*85), uint32(100+i*85))
		report(&harsh, 100, uint32(100+i*55), uint32(100+i*55))
	}
	bc, bm, bh := clean.Budget(base), mid.Budget(base), harsh.Budget(base)
	if !(bc < bm && bm < bh) {
		t.Errorf("budget not monotone in loss: clean %d, 15%% %d, 45%% %d", bc, bm, bh)
	}
	if bc != 8 {
		t.Errorf("clean budget = %d, want floor 8", bc)
	}
	if bh > base {
		t.Errorf("harsh budget %d above static base", bh)
	}
	if got := (&Link{}).Budget(2); got < 1 {
		t.Errorf("tiny base budget = %d, want ≥ 1", got)
	}
}

// paceClean drives l over a loss-free link for the given ticks: every
// tick pushes what Pace allows and delivers the receipts the receiver
// would have sent (one per ReceiptEvery rows). It returns the bursts.
func paceClean(l *Link, ticks int) []int {
	var bursts []int
	var got uint32
	for i := 0; i < ticks; i++ {
		b := l.Pace(math.MaxInt32)
		bursts = append(bursts, b)
		l.OnSend(b)
		for n := 0; n < b; n++ {
			if got++; got%ReceiptEvery == 0 {
				l.OnReport(got, got)
			}
		}
	}
	return bursts
}

// TestBurstBounds: whatever a receiver claims — honestly or not — Pace
// stays within [1, MaxBurst], a clean link reaches the cap, and each
// forgery leaves the burst where the package doc says it does.
func TestBurstBounds(t *testing.T) {
	const wrap = math.MaxUint32
	cases := []struct {
		name string
		// claim returns the i-th receipt's counters, given the rows sent.
		claim func(i int, sent uint64) (recv, inno uint32)
		// settles bounds the burst once the forgery has run its course.
		settlesLo, settlesHi int
	}{
		{"honest", func(_ int, sent uint64) (uint32, uint32) { return uint32(sent), uint32(sent) }, MaxBurst, MaxBurst},
		{"over-claim", func(i int, _ uint64) (uint32, uint32) { return uint32(i+1) << 20, uint32(i+1) << 20 }, MaxBurst, MaxBurst},
		{"under-claim", func(int, uint64) (uint32, uint32) { return 0, 0 }, 1, 1},
		{"half-claim", func(_ int, sent uint64) (uint32, uint32) { return uint32(sent / 2), uint32(sent / 2) }, 1, MaxBurst},
		{"backwards", func(i int, _ uint64) (uint32, uint32) { return uint32(1<<20 - i), uint32(1<<20 - i) }, 1, 2 * startBurst},
		{"innovative>received", func(i int, _ uint64) (uint32, uint32) { return uint32(i), uint32(i) + 9 }, 1, 2 * startBurst},
		{"uint32 wrap", func(i int, _ uint64) (uint32, uint32) { v := uint32(wrap - 64 + 16*uint64(i)); return v, v }, 1, MaxBurst},
		{"ceiling", func(int, uint64) (uint32, uint32) { return wrap, wrap }, 1, 2 * startBurst},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var l Link
			b := 0
			for i := 0; i < 400; i++ {
				b = l.Pace(math.MaxInt32)
				if b < 1 || b > MaxBurst {
					t.Fatalf("tick %d: burst %d outside [1, %d]", i, b, MaxBurst)
				}
				l.OnSend(b)
				l.OnReport(tc.claim(i, l.Sent()))
			}
			if b < tc.settlesLo || b > tc.settlesHi {
				t.Errorf("burst settled at %d, want within [%d, %d]", b, tc.settlesLo, tc.settlesHi)
			}
			if loss := l.Loss(); loss < 0 || loss > MaxLoss {
				t.Errorf("loss %v outside [0, %v]", loss, MaxLoss)
			}
		})
	}
}

// TestBurstRampAndSilence: a clean link doubles per sampled interval up
// to the cap; a link whose receipts stop halves back down to the floor
// of 1 and never below.
func TestBurstRampAndSilence(t *testing.T) {
	var l Link
	bursts := paceClean(&l, 40)
	if bursts[0] != startBurst {
		t.Errorf("first burst %d, want the start %d", bursts[0], startBurst)
	}
	for i := 1; i < len(bursts); i++ {
		if bursts[i] < bursts[i-1] {
			t.Fatalf("clean link's burst fell at tick %d: %v", i, bursts)
		}
	}
	if last := bursts[len(bursts)-1]; last != MaxBurst {
		t.Fatalf("clean link settled at %d, want the cap %d (%v)", last, MaxBurst, bursts)
	}
	// Receipts stop; rows keep going out.
	for i := 0; i < 200; i++ {
		b := l.Pace(math.MaxInt32)
		if b < 1 {
			t.Fatalf("silent link paced to %d", b)
		}
		l.OnSend(b)
	}
	if b := l.Pace(math.MaxInt32); b != 1 {
		t.Errorf("silent link still at burst %d after 200 ticks, want 1", b)
	}
	// Nothing outstanding, nothing to decay: an idle link keeps its burst.
	var idle Link
	paceClean(&idle, 40)
	idle.Pace(math.MaxInt32) // folds the last receipt: every row sent is now accounted for
	for i := 0; i < 200; i++ {
		idle.Pace(math.MaxInt32)
	}
	if b := idle.Pace(math.MaxInt32); b != MaxBurst {
		t.Errorf("idle link with no rows outstanding decayed to %d", b)
	}
}

// TestBurstTaper: as the peer's reported innovative count closes in on
// k the burst tapers to half the rows missing, then holds at tailBurst.
func TestBurstTaper(t *testing.T) {
	var l Link
	paceClean(&l, 40) // at the cap; the peer has reported 16·n innovative rows
	inno := int(l.inno)
	for _, tc := range []struct{ missing, want int }{
		{1000, MaxBurst}, {2 * MaxBurst, MaxBurst}, {40, 20}, {2 * tailBurst, tailBurst}, {3, tailBurst}, {0, tailBurst}, {-500, tailBurst},
	} {
		if got := l.Pace(inno + tc.missing); got != tc.want {
			t.Errorf("%d rows missing: burst %d, want %d", tc.missing, got, tc.want)
		}
	}
	// The taper only ever lowers: a link still at its start burst keeps it.
	var fresh Link
	if got := fresh.Pace(0); got != startBurst {
		t.Errorf("fresh link tapered to %d, want its start burst %d", got, startBurst)
	}
}
