package adapt

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// testTick is the Tick the tests run the Link at; their clock counts whole
// ticks, tick index i at i·testTick, unless a test needs the instants
// between.
const testTick = 2 * time.Millisecond

// at returns the start of tick index tick.
func at(tick int64) time.Time { return time.Unix(0, tick*int64(testTick)) }

// grantAt is Grant at the start of tick index tick.
func (l *Link) grantAt(tick int64, lacks int) int { return l.Grant(at(tick), testTick, lacks) }

// send is OnSend at the start of the latest Grant's tick.
func (l *Link) send(n int) { l.OnSend(n, at(l.tick)) }

// report pushes n rows, delivers a receipt claiming the given cumulative
// counters and folds it a tick later, mimicking one send→receipt round
// trip.
func report(l *Link, sent int, received, innovative uint32) {
	l.send(sent)
	l.OnReport(received, innovative)
	l.grantAt(l.tick+1, math.MaxInt32)
}

func TestZeroValueIsCleanLink(t *testing.T) {
	var l Link
	if l.Loss() != 0 {
		t.Errorf("silent link loss = %v, want 0", l.Loss())
	}
	if l.Window() != 1 || l.InFlight() != 0 || l.Lacks(64) != 64 {
		t.Errorf("silent link: window %d, %d in flight, lacks %d of 64; want 1, 0, 64", l.Window(), l.InFlight(), l.Lacks(64))
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

// TestInnovationSignal: what the peer still lacks by this link's count
// moves with the innovative counter alone. Rows a receiver judged redundant
// raise received, and are credited like any other arrival, but leave the
// peer lacking what it lacked.
func TestInnovationSignal(t *testing.T) {
	const k = 100
	var l Link
	report(&l, 10, 10, 10)
	if got := l.Lacks(k); got != 90 {
		t.Errorf("after 10 innovative rows the peer lacks %d of %d, want 90", got, k)
	}
	// Received grows but nothing innovative: redundant traffic.
	report(&l, 10, 20, 10)
	if got := l.Lacks(k); got != 90 {
		t.Errorf("a redundant-only receipt moved the peer's need to %d, want 90", got)
	}
	if got := l.InFlight(); got != 0 {
		t.Errorf("%d rows still in flight after the redundant rows were reported", got)
	}
	report(&l, 10, 30, 15)
	if got := l.Lacks(k); got != 85 {
		t.Errorf("after 15 innovative rows the peer lacks %d, want 85", got)
	}
}

// TestUnderClaimingLiarClamped: a receiver that reports everything as
// lost cannot drag the estimate past MaxLoss — the extortion ceiling.
func TestUnderClaimingLiarClamped(t *testing.T) {
	var l Link
	for i := 0; i < 100; i++ {
		report(&l, 1000, 0, 0) // "I received nothing", forever
	}
	if got := l.Loss(); got != MaxLoss {
		t.Errorf("under-claiming liar drove loss to %v, clamp is %v", got, MaxLoss)
	}
}

// TestOverClaimingLiarClamped: a receiver that claims more rows than
// were ever sent (and perfect innovation) floors the estimate at 0 — it
// starves only itself.
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
}

// TestContradictoryReportsRebaseline: impossible claims produce no
// sample, but re-anchor the counters so the estimator survives a receiver
// restart.
func TestContradictoryReportsRebaseline(t *testing.T) {
	var l Link
	report(&l, 100, 90, 90)
	pre := l.Loss()
	// innovative > received: a lie on its face.
	report(&l, 100, 200, 300)
	if got := l.Loss(); got != pre {
		t.Errorf("contradictory report moved the estimate %v → %v", pre, got)
	}
	// Counters running backwards (receiver restarted): re-baseline only.
	report(&l, 100, 5, 5)
	// The next honest report samples from the new baseline without a
	// huge spurious loss spike from the pre-restart counters.
	report(&l, 100, 105, 105)
	if got := l.Loss(); got > pre {
		t.Errorf("post-restart honest report spiked loss to %v (was %v)", got, pre)
	}
}

// paceClean drives l over a loss-free link for the given ticks, one round
// trip a tick: every tick pushes what Grant allows and delivers the
// receipt a receiver whose queue ran dry behind the rows would have sent.
// It returns the rows pushed per tick.
func paceClean(l *Link, ticks int) []int {
	var bursts []int
	for i := 0; i < ticks; i++ {
		b := l.grantAt(l.tick+1, math.MaxInt32)
		bursts = append(bursts, b)
		l.send(b)
		l.OnReport(uint32(l.Sent()), uint32(l.Sent()))
	}
	return bursts
}

// TestBurstBounds: whatever a receiver claims — honestly or not, once a
// round trip or in a flood, departure counts included — the link never has
// more than MaxBurst rows in flight (two more for the probe) nor takes more
// than TickCeiling in a tick, a clean link reaches the cap, and each
// forgery leaves the window where the package doc says it does. Every tick
// is several push rounds, a receipt between each two: the shape of a
// wake-up per receipt.
func TestBurstBounds(t *testing.T) {
	const wrap = math.MaxUint32
	cases := []struct {
		name string
		// claim returns the i-th receipt's counters, given the rows sent.
		claim func(i int, sent uint64) (recv, inno uint32)
		// rounds is how many receipts (and push rounds) a tick holds.
		rounds int
		// settles bounds the window once the forgery has run its course.
		settlesLo, settlesHi int
		// departed, if set, is the departure count each receipt carries.
		departed func(i int, sent uint64) uint32
	}{
		{"honest", func(_ int, sent uint64) (uint32, uint32) { return uint32(sent), uint32(sent) }, 3, MaxBurst, MaxBurst, nil},
		{"over-claim", func(i int, _ uint64) (uint32, uint32) { return uint32(i+1) << 16, uint32(i+1) << 16 }, 3, MaxBurst, MaxBurst, nil},
		{"under-claim", func(int, uint64) (uint32, uint32) { return 0, 0 }, 3, 1, 1, nil},
		{"half-claim", func(_ int, sent uint64) (uint32, uint32) { return uint32(sent / 2), uint32(sent / 2) }, 3, 1, MaxBurst, nil},
		{"backwards", func(i int, _ uint64) (uint32, uint32) { return uint32(1<<20 - i), uint32(1<<20 - i) }, 3, 1, 2 * startWindow, nil},
		{"innovative>received", func(i int, _ uint64) (uint32, uint32) { return uint32(i), uint32(i) + 9 }, 3, 1, 2 * startWindow, nil},
		{"uint32 wrap", func(i int, _ uint64) (uint32, uint32) { v := uint32(wrap - 64 + 16*uint64(i)); return v, v }, 3, 1, MaxBurst, nil},
		{"ceiling", func(int, uint64) (uint32, uint32) { return wrap, wrap }, 3, 1, 2 * startWindow, nil},
		{"receipt-flood", func(i int, _ uint64) (uint32, uint32) { return uint32(i+1) << 12, uint32(i+1) << 12 }, 40, MaxBurst, MaxBurst, nil},
		// Departure counts: everything sent has departed and nothing arrived,
		// every round (the 1 ms flood); past what was sent; running backwards;
		// wrapping uint32 — each beside over-claimed counters, the forgery
		// that keeps a window open, or none at all.
		{"departed=sent", func(int, uint64) (uint32, uint32) { return 0, 0 }, 3, 1, 1,
			func(_ int, sent uint64) uint32 { return uint32(sent) }},
		{"departed=sent-flood", func(i int, _ uint64) (uint32, uint32) { return uint32(i+1) << 12, uint32(i+1) << 12 }, 40, MaxBurst, MaxBurst,
			func(_ int, sent uint64) uint32 { return uint32(sent) }},
		{"departed>sent", func(_ int, sent uint64) (uint32, uint32) { return uint32(sent / 2), uint32(sent / 2) }, 3, 1, MaxBurst,
			func(i int, sent uint64) uint32 { return uint32(sent) + 1 + uint32(i) }},
		{"departed-backwards", func(i int, _ uint64) (uint32, uint32) { return uint32(i+1) << 12, uint32(i+1) << 12 }, 3, MaxBurst, MaxBurst,
			func(i int, _ uint64) uint32 { return uint32(1<<20 - i) }},
		{"departed-wrap", func(int, uint64) (uint32, uint32) { return 0, 0 }, 3, 1, MaxBurst,
			func(i int, _ uint64) uint32 { return uint32(wrap - 64 + 16*uint64(i)) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var l Link
			peak := 0
			for i := 0; i < 400*tc.rounds; i++ {
				tick := int64(1000 + i/tc.rounds)
				if i%tc.rounds == 0 {
					peak = 0
				}
				b := l.grantAt(tick, math.MaxInt32)
				if i%tc.rounds == 0 && b < 1 && l.InFlight() < MaxBurst {
					t.Fatalf("tick %d: the first round of a tick granted %d rows with %d in flight: the floor is 1", tick, b, l.InFlight())
				}
				l.send(b)
				if peak += b; peak > TickCeiling {
					t.Fatalf("tick %d: %d rows, the ceiling is %d", tick, peak, TickCeiling)
				}
				if l.InFlight() < 0 || l.InFlight() > MaxBurst+2 {
					t.Fatalf("tick %d: %d rows in flight, the cap is %d and the probe's two", tick, l.InFlight(), MaxBurst)
				}
				l.OnReport(tc.claim(i, l.Sent()))
				if tc.departed != nil {
					l.OnDeparted(tc.departed(i, l.Sent()))
				}
			}
			if w := l.Window(); w < tc.settlesLo || w > tc.settlesHi {
				t.Errorf("window settled at %d, want within [%d, %d]", w, tc.settlesLo, tc.settlesHi)
			}
			if loss := l.Loss(); loss < 0 || loss > MaxLoss {
				t.Errorf("loss %v outside [0, %v]", loss, MaxLoss)
			}
			if strings.HasSuffix(tc.name, "flood") && peak != TickCeiling {
				t.Errorf("a receipt flood took %d rows in the last tick, want the ceiling %d: the test exercised nothing", peak, TickCeiling)
			}
		})
	}
}

// TestBurstRampAndSilence: a clean link doubles per sampled interval up
// to the cap; a link whose receipts stop halves back down to the floor
// of 1 — one row a tick — and never below.
func TestBurstRampAndSilence(t *testing.T) {
	var l Link
	bursts := paceClean(&l, 40)
	if bursts[0] != startWindow {
		t.Errorf("first burst %d, want the start %d", bursts[0], startWindow)
	}
	for i := 1; i < len(bursts); i++ {
		if bursts[i] < bursts[i-1] {
			t.Fatalf("clean link's window fell at tick %d: %v", i, bursts)
		}
	}
	if last := bursts[len(bursts)-1]; last != MaxBurst {
		t.Fatalf("clean link settled at %d, want the cap %d (%v)", last, MaxBurst, bursts)
	}
	// Receipts stop; rows keep going out.
	l.grantAt(l.tick+1, math.MaxInt32) // folds the last receipt
	silent := 0
	for i := 0; i < 200; i++ {
		b := l.grantAt(l.tick+1, math.MaxInt32)
		if b < 1 && l.InFlight() < MaxBurst {
			t.Fatalf("silent link granted %d with %d rows in flight", b, l.InFlight())
		}
		l.send(b)
		silent += b
	}
	if b := l.grantAt(l.tick+1, math.MaxInt32); b != 1 || l.Window() != 1 {
		t.Errorf("silent link still grants %d at window %d after 200 ticks, want 1 and 1", b, l.Window())
	}
	if silent > 200+8*MaxBurst {
		t.Errorf("%d rows pushed into 200 ticks of silence", silent)
	}
	// Nothing outstanding, nothing to decay: an idle link keeps its window.
	var idle Link
	paceClean(&idle, 40)
	for i := 0; i < 200; i++ {
		idle.grantAt(idle.tick+1, math.MaxInt32)
	}
	if w := idle.Window(); w != MaxBurst {
		t.Errorf("idle link with no rows outstanding decayed to %d", w)
	}
}

// TestLostRowsLeaveTheWindow: rows the link lost are never credited, and
// still stop counting as in flight — at the receipt whose departure count
// proves them lost, at the latest two ticks after their send, the horizon
// of a link no receipt has timed — so steady loss neither closes the window
// nor reads as anything but its level. A full window whose every row was
// lost, no receipt coming back, gets the probe: one row a tick past the
// window, whose receipt proves the rest.
func TestLostRowsLeaveTheWindow(t *testing.T) {
	var l Link
	paceClean(&l, 40)
	l.grantAt(l.tick+1, math.MaxInt32)
	recv := uint32(l.Sent())
	l.send(MaxBurst) // all lost: no receipt will ever name them
	if got := l.grantAt(l.tick, math.MaxInt32); got != 0 {
		t.Fatalf("granted %d rows behind a full window", got)
	}
	if got := l.grantAt(l.tick+1, math.MaxInt32); got != 1 {
		t.Fatalf("granted %d rows a tick after a full window went unanswered, want the probe", got)
	}
	l.send(1) // the probe, lost too
	if got := l.grantAt(l.tick, math.MaxInt32); got != 0 || l.InFlight() != MaxBurst+1 {
		t.Fatalf("granted %d more with %d in flight in the probe's tick, want none and %d", got, l.InFlight(), MaxBurst+1)
	}
	if got := l.grantAt(l.tick+1, math.MaxInt32); got != MaxBurst-1 || l.InFlight() != 1 {
		t.Fatalf("two ticks on: granted %d with %d in flight, want the window back but for the probe", got, l.InFlight())
	}
	// The same full window lost, and this time the probe arrives: its
	// receipt's departure count proves everything before it lost in the
	// probe's own tick. (That much loss at once is a step: the window
	// halves.)
	l.send(MaxBurst - 1)
	if got := l.grantAt(l.tick+1, math.MaxInt32); got != 1 {
		t.Fatalf("granted %d rows a tick after a full window went unanswered, want the probe", got)
	}
	l.send(1)
	recv++
	l.OnReport(recv, recv)
	l.OnDeparted(uint32(l.Sent()))
	if got := l.grantAt(l.tick, math.MaxInt32); got != l.Window() || l.InFlight() != 0 {
		t.Fatalf("the probe's receipt: granted %d with %d in flight, want the whole window (%d) back at once", got, l.InFlight(), l.Window())
	}
	if proven, aged := l.Lost(); proven != MaxBurst-1 || aged != MaxBurst+1 {
		t.Errorf("%d rows proven lost and %d aged out, want %d and %d", proven, aged, MaxBurst-1, MaxBurst+1)
	}
	// A receipt reporting aged-out rows after all takes them back: late,
	// not lost.
	var late Link
	late.grantAt(1, math.MaxInt32)
	late.send(4)
	late.OnReport(4, 4)
	late.grantAt(1, math.MaxInt32)
	late.send(10)
	late.grantAt(3, math.MaxInt32) // two ticks of silence: all ten age out
	late.OnReport(10, 10)          // and six of them were only late
	late.grantAt(3, math.MaxInt32)
	if _, aged := late.Lost(); aged != 4 {
		t.Errorf("six of ten aged-out rows reported late: %d counted as aged out, want 4", aged)
	}

	// A quarter of every window lost, the rest acknowledged a tick later:
	// written off by age, and by proof.
	for _, departs := range []bool{false, true} {
		rows := 0
		for i := 0; i < 200; i++ {
			b := l.grantAt(l.tick+1, math.MaxInt32)
			l.send(b)
			rows += b
			recv += uint32(b - b/4)
			l.OnReport(recv, recv)
			if departs {
				l.OnDeparted(uint32(l.Sent())) // the lost quarter leads the burst
			}
		}
		mean := float64(rows) / 200
		if want := map[bool]float64{false: 0.7 * MaxBurst, true: MaxBurst - 1}[departs]; mean < want {
			t.Errorf("departures %v: mean %.1f rows a tick at 25%% loss, want ≥ %.1f: lost rows are clogging the window", departs, mean, want)
		}
		if got := l.Loss(); math.Abs(got-0.25) > 0.05 {
			t.Errorf("departures %v: loss level %.2f on a link losing a quarter", departs, got)
		}
	}
}

// TestDepartedOnlyUnderReports: a departure count proves only what lies
// between the rows already settled and the rows sent. One past what was
// sent (a count anchored on another stream, a liar) is ignored; one at or
// behind what has settled (a stale receipt, a receiver that anchored late
// and counts a multiple of 128 short) proves nothing. Neither is a
// re-baseline: the counters it rode in with fold as usual.
func TestDepartedOnlyUnderReports(t *testing.T) {
	var l Link
	l.grantAt(1, math.MaxInt32)
	l.send(20)
	for _, step := range []struct {
		name                    string
		recv, departed          uint32
		wantSettled, wantProven uint64
	}{
		{"past what was sent", 10, 21, 10, 0},
		{"honest", 12, 16, 16, 4},
		{"stale", 12, 14, 16, 4},
		{"anchored late", 15, 1<<32 + 20 - 256, 19, 4},
		{"honest again", 15, 20, 20, 5},
	} {
		l.OnReport(step.recv, step.recv)
		l.OnDeparted(step.departed)
		l.grantAt(1, math.MaxInt32)
		if proven, _ := l.Lost(); l.Settled() != step.wantSettled || proven != step.wantProven {
			t.Errorf("%s: %d settled, %d proven lost; want %d and %d", step.name, l.Settled(), proven, step.wantSettled, step.wantProven)
		}
	}
}

// TestDepartedProvesLoss: over a Bernoulli link (FIFO, a fifth of the rows
// lost, receipts reliable, several push rounds a tick with a receipt
// between each two, as wake-ups have it) a receiver reporting how many rows
// have departed — the highest send sequence it has seen — lets the sender
// write off every loss the receipt after it happens: what it writes off is
// exactly the rows lost (departed − credited), in flight never goes
// negative, nearly nothing is left to age out, and the loss level reads the
// link to within 0.03.
func TestDepartedProvesLoss(t *testing.T) {
	const p, rounds = 0.2, 3
	rng := rand.New(rand.NewSource(71))
	var l Link
	var recv, departed uint32
	var seq uint64
	lostUpTo := []int{0} // lost rows among the first n sent
	lost := 0
	for i := 0; i < 3000*rounds; i++ {
		b := l.grantAt(int64(1+i/rounds), math.MaxInt32)
		if l.InFlight() < 0 || l.InFlight() > MaxBurst+2 {
			t.Fatalf("round %d: %d rows in flight", i, l.InFlight())
		}
		l.send(b)
		for ; b > 0; b-- {
			seq++
			if rng.Float64() < p {
				lost++
			} else {
				recv, departed = recv+1, uint32(seq)
			}
			lostUpTo = append(lostUpTo, lost)
		}
		l.OnReport(recv, recv)
		l.OnDeparted(departed)
	}
	l.grantAt(l.tick, math.MaxInt32) // fold the last receipt
	settled := l.Settled()
	proven, aged := l.Lost()
	if got, want := proven+aged, uint64(lostUpTo[settled]); got != want {
		t.Errorf("%d rows written off of the first %d, %d of them were lost", got, settled, want)
	}
	if settled != uint64(departed) || settled-uint64(recv) != proven+aged {
		t.Errorf("settled %d, departed %d, received %d, written off %d: departed − credited is not the loss", settled, departed, recv, proven+aged)
	}
	if aged*20 > proven {
		t.Errorf("%d rows proven lost, %d aged out: the proof is not what writes them off", proven, aged)
	}
	if truth := float64(lost) / float64(seq); math.Abs(l.Loss()-truth) > 0.03 {
		t.Errorf("loss level %.3f on a link that lost %.3f", l.Loss(), truth)
	}
}

// paceLagged drives a lossless link whose receipts take rtt ticks to come
// back, one push round a tick, and returns the rows granted per tick and
// the highest loss level seen on the way.
func paceLagged(t *testing.T, l *Link, rtt, ticks int) (grants []int, peakLoss float64) {
	t.Helper()
	sentBy := []uint32{0} // cumulative rows sent by the end of tick i
	for tick := 1; tick <= ticks; tick++ {
		if tick > rtt && sentBy[tick-rtt] > 0 {
			l.OnReport(sentBy[tick-rtt], sentBy[tick-rtt])
		}
		b := l.grantAt(int64(tick), math.MaxInt32)
		if b < 1 && l.InFlight() < MaxBurst {
			t.Fatalf("tick %d: granted %d with %d in flight: the floor is 1", tick, b, l.InFlight())
		}
		l.send(b)
		if b > TickCeiling || l.InFlight() > MaxBurst {
			t.Fatalf("tick %d: %d rows granted, %d in flight", tick, b, l.InFlight())
		}
		sentBy = append(sentBy, uint32(l.Sent()))
		grants = append(grants, b)
		peakLoss = math.Max(peakLoss, l.Loss())
	}
	return grants, peakLoss
}

// TestFirstReceiptTakesNoSample: everything sent more than a tick before
// the first receipt has aged out by the time it is folded — on any link,
// and by the dozen on one with a long round trip. The first fold is proof
// of life and worth a doubling; the loss it would read is the ramp-up.
func TestFirstReceiptTakesNoSample(t *testing.T) {
	var l Link
	const rtt = 10
	paceLagged(t, &l, rtt, rtt) // nothing heard yet
	if l.expired == 0 {
		t.Fatal("no row aged out in a round trip of silence: the test exercises nothing")
	}
	if l.Reports() != 0 || l.Window() != startWindow {
		t.Fatalf("before any receipt: %d reports, window %d", l.Reports(), l.Window())
	}
	l.OnReport(uint32(l.Sent()), uint32(l.Sent()))
	l.grantAt(rtt+1, math.MaxInt32)
	if l.Reports() != 1 || l.Window() != 2*startWindow {
		t.Errorf("first receipt: %d reports, window %d, want 1 and %d", l.Reports(), l.Window(), 2*startWindow)
	}
	if l.Loss() != 0 || l.expired != 0 || l.credited != 0 {
		t.Errorf("first receipt left loss %.2f and an open interval of %d credited, %d expired: it must only open one",
			l.Loss(), l.credited, l.expired)
	}
}

// TestRoundTripBeyondTwoTicks pins what the pacer does outside the range
// it is designed for. Rows stay in flight for at most two ticks, so on a
// link whose round trip is longer every row ages out before its receipt
// can arrive: the in-flight count is no longer the in-network count, and
// while the rate is still climbing more rows age out than the receipts of
// a round trip ago credit, which reads as loss on a lossless link. What
// must hold anyway: the floor, the in-flight cap and the per-tick ceiling
// (paceLagged checks them every tick), the level never above MaxLoss, the
// link never slower than the window every other tick, and the false level
// gone once the rate is steady. Inside the range (a round trip of one
// tick) the level never leaves zero.
func TestRoundTripBeyondTwoTicks(t *testing.T) {
	for _, rtt := range []int{1, 5, 10, 40} {
		var l Link
		grants, peak := paceLagged(t, &l, rtt, 400)
		rows := 0
		for _, b := range grants[200:] {
			rows += b
		}
		if mean := float64(rows) / 200; mean < MaxBurst/2 {
			t.Errorf("rtt %d ticks: %.1f rows a tick once settled, want at least half the cap %d", rtt, mean, MaxBurst)
		}
		if l.Window() != MaxBurst {
			t.Errorf("rtt %d ticks: lossless link settled at window %d, want the cap %d", rtt, l.Window(), MaxBurst)
		}
		if got := l.Loss(); got > 0.02 {
			t.Errorf("rtt %d ticks: loss level %.2f on a lossless link at a steady rate", rtt, got)
		}
		if rtt <= 1 && peak != 0 {
			t.Errorf("rtt %d tick: loss level reached %.2f on a lossless link inside the pacer's range", rtt, peak)
		}
		if peak > MaxLoss {
			t.Errorf("rtt %d ticks: loss level reached %.2f, the clamp is %v", rtt, peak, MaxLoss)
		}
	}
}

// TestBurstTaper: as the natives the peer lacks — here by the link's own
// count, k less the innovative rows reported — close in on zero the window
// tapers to half of them, then holds at tailWindow.
func TestBurstTaper(t *testing.T) {
	var l Link
	paceClean(&l, 40) // at the cap; the peer has reported every row innovative
	l.grantAt(l.tick+1, math.MaxInt32)
	inno := int(l.inno)
	for _, tc := range []struct{ missing, want int }{
		{1000, MaxBurst}, {2 * MaxBurst, MaxBurst}, {40, 20}, {2 * tailWindow, tailWindow}, {3, tailWindow}, {0, tailWindow}, {-500, tailWindow},
	} {
		if got := l.grantAt(l.tick+1, l.Lacks(inno+tc.missing)); got != tc.want {
			t.Errorf("%d rows missing: granted %d, want %d", tc.missing, got, tc.want)
		}
	}
	// The taper only ever lowers: a link still at its start window keeps it.
	var fresh Link
	if got := fresh.grantAt(0, 0); got != startWindow {
		t.Errorf("fresh link tapered to %d, want its start window %d", got, startWindow)
	}
}

// TestSettledCountsDepartures: a row has settled once it has left the
// in-flight count, by credit or by age, oldest first — the n-th row sent
// when Settled reaches n. A receipt settles no more rows than it reports,
// silence settles everything within two ticks, and a contradictory receipt,
// which empties the in-flight count, settles it all at once.
func TestSettledCountsDepartures(t *testing.T) {
	var l Link
	l.grantAt(1, math.MaxInt32)
	l.send(10)
	if l.Settled() != 0 {
		t.Fatalf("%d rows settled with 10 just sent", l.Settled())
	}
	l.OnReport(6, 6) // four of the ten were lost, or are behind this receipt
	l.grantAt(1, math.MaxInt32)
	if l.Settled() != 6 || l.InFlight() != 4 {
		t.Fatalf("a receipt for 6 of 10 rows: %d settled, %d in flight", l.Settled(), l.InFlight())
	}
	l.send(5)
	l.grantAt(2, math.MaxInt32)
	if l.Settled() != 6 {
		t.Fatalf("%d rows settled a tick on with no receipt, want 6 still", l.Settled())
	}
	l.grantAt(3, math.MaxInt32)
	if l.Settled() != 15 || l.InFlight() != 0 {
		t.Fatalf("two ticks of silence: %d settled, %d in flight, want everything aged out", l.Settled(), l.InFlight())
	}
	l.send(8)
	l.OnReport(3, 9) // innovative > received
	l.grantAt(3, math.MaxInt32)
	if l.Settled() != l.Sent() {
		t.Fatalf("a contradictory receipt left %d of %d rows unsettled", l.Sent()-l.Settled(), l.Sent())
	}
	if got := (&Link{}).Lacks(100); got != 100 {
		t.Errorf("a silent link lacks %d of 100 natives", got)
	}
	l.OnReport(1<<32-1, 1<<32-1)
	if got := l.Lacks(100); got != 0 {
		t.Errorf("an over-claiming link lacks %d natives, want 0", got)
	}
}

// TestUnstampedReceiptWritesOffNothing: a receiver whose upstream's rows
// came without stamps (a cache's verbatim pass-through) reports a
// departure count of 0. That is at or behind every row settled, so it
// proves nothing lost: the receipt credits what it reports received, and
// the rest of the window stays in flight.
func TestUnstampedReceiptWritesOffNothing(t *testing.T) {
	var l Link
	l.grantAt(1, math.MaxInt32)
	for _, recv := range []uint32{0, 4, 16, 25} {
		l.send(10)
		l.OnReport(recv, recv)
		l.OnDeparted(0)
		l.grantAt(1, math.MaxInt32) // one tick: nothing ages
		if proven, aged := l.Lost(); proven != 0 || aged != 0 {
			t.Fatalf("%d of %d rows reported received with departed 0: %d proven lost, %d aged", recv, l.Sent(), proven, aged)
		}
		if want := int(l.Sent()) - int(recv); l.InFlight() != want {
			t.Fatalf("%d of %d rows reported received with departed 0: %d in flight, want %d", recv, l.Sent(), l.InFlight(), want)
		}
	}
}
