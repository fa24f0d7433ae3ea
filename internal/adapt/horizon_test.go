package adapt

import (
	"math"
	"testing"
	"time"
)

// timed drives l through one receipt per round trip in rtts: a tick's first
// round sends 8 rows, and the receipt crediting them, its departure count
// naming the last, is folded a round trip later — after the rows aged out,
// on a round trip past the horizon. The next round starts a tick after
// that fold. It returns the clock after the last fold.
func timed(l *Link, start time.Time, rtts ...time.Duration) time.Time {
	now := start
	for _, rtt := range rtts {
		l.Grant(now, testTick, math.MaxInt32)
		l.OnSend(8, now)
		now = now.Add(rtt)
		l.OnReport(uint32(l.Sent()), uint32(l.Sent()))
		l.OnDeparted(uint32(l.Sent()))
		l.Grant(now, testTick, math.MaxInt32)
		now = now.Add(testTick)
	}
	return now
}

// TestHorizon: a row ages out after min(2·Tick, SRTT + max(Tick/4,
// 4·RTTVAR)) in flight, two ticks before any round trip has been timed;
// each row is timed by the receipt whose departure count names it, however
// far the count has wrapped.
func TestHorizon(t *testing.T) {
	const tick = testTick
	for _, tc := range []struct {
		name string
		rtts []time.Duration
		// want returns the horizon the link must hold, from its estimate.
		want func(l *Link) time.Duration
	}{
		{"no sample", nil, func(*Link) time.Duration { return 2 * tick }},
		{"constant", repeatRTT(20, tick/10), func(l *Link) time.Duration {
			if l.srtt != int64(tick/10) {
				t.Errorf("constant: SRTT %v on a round trip of %v", time.Duration(l.srtt), tick/10)
			}
			return tick/10 + tick/4
		}},
		{"jitter", repeatRTT(10, tick/20, 3*tick/10), func(l *Link) time.Duration {
			srtt, rttvar := rfc6298(repeatRTT(10, tick/20, 3*tick/10))
			if math.Abs(float64(l.srtt)-srtt) > 100 || math.Abs(float64(l.rttvar)-rttvar) > 100 {
				t.Errorf("jitter: SRTT %v, RTTVAR %v; RFC 6298 gives %v and %v",
					time.Duration(l.srtt), time.Duration(l.rttvar), time.Duration(srtt), time.Duration(rttvar))
			}
			if h := l.srtt + 4*l.rttvar; 4*l.rttvar <= int64(tick/4) || h >= int64(2*tick) {
				t.Errorf("jitter: 4·RTTVAR %v is not between Tick/4 and the cap less SRTT", time.Duration(4*l.rttvar))
			}
			return time.Duration(l.srtt + 4*l.rttvar)
		}},
		{"cap", repeatRTT(20, 3*tick), func(l *Link) time.Duration {
			if l.srtt != int64(3*tick) {
				t.Errorf("cap: SRTT %v on a round trip of %v: late receipts were not timed", time.Duration(l.srtt), 3*tick)
			}
			return 2 * tick
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var l Link
			now := timed(&l, at(1), tc.rtts...)
			l.Grant(now, tick, math.MaxInt32)
			want := tc.want(&l)
			if got := l.Horizon(); got != want {
				t.Fatalf("horizon %v, want %v (SRTT %v, RTTVAR %v)", got, want, time.Duration(l.srtt), time.Duration(l.rttvar))
			}
			// A row sent now is in flight until exactly then, and no longer.
			l.OnSend(1, now)
			if d := l.Deadline(); !d.Equal(now.Add(want)) {
				t.Fatalf("deadline %v after the send, want %v", d.Sub(now), want)
			}
			l.Grant(now.Add(want-1), tick, math.MaxInt32)
			if l.InFlight() != 1 {
				t.Fatal("the row aged out before its deadline")
			}
			l.Grant(now.Add(want), tick, math.MaxInt32)
			if l.InFlight() != 0 || !l.Deadline().IsZero() {
				t.Fatalf("at its deadline the row is still in flight (%d), deadline %v", l.InFlight(), l.Deadline())
			}
		})
	}
}

// rfc6298 smooths round-trip samples as RFC 6298 (2.2, 2.3) does, with
// α = 1/8 and β = 1/4.
func rfc6298(rtts []time.Duration) (srtt, rttvar float64) {
	for i, d := range rtts {
		r := float64(d)
		if i == 0 {
			srtt, rttvar = r, r/2
			continue
		}
		rttvar = 0.75*rttvar + 0.25*math.Abs(srtt-r)
		srtt = 0.875*srtt + 0.125*r
	}
	return srtt, rttvar
}

// TestHorizonTimesEachRowOnce: a departure count that names no row newer
// than the last one timed — a receipt repeated, or one overtaken — is no
// round-trip sample: timed again later, the row would read as a longer
// round trip than it had.
func TestHorizonTimesEachRowOnce(t *testing.T) {
	var l Link
	now := timed(&l, at(1), repeatRTT(8, testTick/10)...)
	srtt, rttvar := l.srtt, l.rttvar
	for _, departed := range []uint32{uint32(l.Sent()), uint32(l.Sent()) - 3} {
		now = now.Add(3 * testTick)
		l.OnReport(uint32(l.Sent()), uint32(l.Sent()))
		l.OnDeparted(departed)
		l.Grant(now, testTick, math.MaxInt32)
		if l.srtt != srtt || l.rttvar != rttvar {
			t.Fatalf("departure count %d of %d rows sent, folded again three ticks on, moved SRTT %v → %v and RTTVAR %v → %v",
				departed, l.Sent(), time.Duration(srtt), time.Duration(l.srtt), time.Duration(rttvar), time.Duration(l.rttvar))
		}
	}
}

// TestHorizonDepartureWraps: a departure count is the low 32 bits of the
// rows departed; past 2³² rows sent it still names the row it means, and
// the row is timed from its own send.
func TestHorizonDepartureWraps(t *testing.T) {
	var l Link
	now := at(1)
	// 2³²−2 rows, in two sends two ticks apart: each count fits an int on
	// 32-bit builds, and each send has aged out before the next.
	for range 2 {
		l.Grant(now, testTick, math.MaxInt32)
		l.OnSend(1<<31-1, now)
		now = now.Add(2 * testTick)
	}
	l.Grant(now, testTick, math.MaxInt32) // all aged out, none timed
	if l.InFlight() != 0 || l.Horizon() != 2*testTick {
		t.Fatalf("%d rows in flight, horizon %v: want none and two ticks", l.InFlight(), l.Horizon())
	}
	l.OnSend(10, now) // rows 2³²−1 … 2³²+8
	const rtt = 300 * time.Microsecond
	row := uint64(1<<32 + 5)
	l.OnReport(0, 0)
	l.OnDeparted(uint32(row)) // 5: row 2³²+5 departed
	l.Grant(now.Add(rtt), testTick, math.MaxInt32)
	if l.srtt != int64(rtt) {
		t.Errorf("SRTT %v from a wrapped departure count, want the row's round trip %v", time.Duration(l.srtt), rtt)
	}
	if l.Settled() != row {
		t.Errorf("%d rows settled, want 2³²+5", l.Settled())
	}
}

// TestHorizonForgedReceipts: a receiver that times its receipts to lie —
// naming rows the instant they are sent, or holding its receipts back far
// past any horizon — moves its own link's horizon, and only within
// [Tick/4, 2·Tick]; the honest link beside it holds the horizon it holds
// alone.
func TestHorizonForgedReceipts(t *testing.T) {
	const honest = testTick / 10
	var alone Link
	timed(&alone, at(1), repeatRTT(20, honest)...)
	for _, forged := range []struct {
		name string
		rtt  time.Duration
		want time.Duration
	}{{"early", 0, testTick / 4}, {"late", 40 * testTick, 2 * testTick}} {
		var liar, beside Link
		now, lnow := at(1), at(1)
		for range 20 {
			lnow = timed(&liar, lnow, forged.rtt)
			now = timed(&beside, now, honest)
		}
		if h := liar.Horizon(); h != forged.want {
			t.Errorf("%s receipts: the liar's horizon %v, want %v", forged.name, h, forged.want)
		}
		if beside.Horizon() != alone.Horizon() {
			t.Errorf("%s receipts: the honest link's horizon %v beside the liar, %v alone", forged.name, beside.Horizon(), alone.Horizon())
		}
	}
}

// repeatRTT returns n copies of rtts, end to end.
func repeatRTT(n int, rtts ...time.Duration) (out []time.Duration) {
	for range n {
		out = append(out, rtts...)
	}
	return out
}
