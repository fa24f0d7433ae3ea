package simnet

import (
	"time"

	"ltnc/internal/integrity"
	"ltnc/internal/packet"
	"ltnc/internal/transport"
)

// liar is a lying receiver on the fabric: a raw port — no session, no
// decoder — that floods every serving node, for every object, with forged
// reports (packet.AppendReport: well-formed as the codec sees them, lies in
// every field and frontier the session checks), each not flagged complete a
// subscription too, and silently drains the pushes they provoke.
// Even-numbered liars claim they received nothing of what they were sent,
// all of it departed — proven lost: against a naive sender the under-claim
// pins the per-peer loss estimate at its ceiling and extorts maximum
// redundancy forever; the estimator's clamp (MaxLoss) and the liar's own
// window halving to its floor are what the liar scenarios verify.
// Odd-numbered liars go after the receipt-clocked window instead, flooding
// the claims that could turn it over faster than any receiver empties it
// (liarClaims, one every liarFlood): everything and more received, counters
// running backwards, counters wrapping uint32 — and behind each a forged
// departure count (forgedDeparted: everything it was sent, far past that,
// backwards, wrapping) and a forged frontier (forgedFrontier), which could
// redirect a sender's repair: everything missing, everything present, a
// generation the object does not have, the wrong length, natives past the
// generation's end — and forged flags (forgedFlags). The pacer's ceiling
// (adapt.TickCeiling rows a tick, checked frame by frame in every run) is
// the defense: a departure count empties no more than a received count does,
// a frontier chooses which rows its claimant gets, never how many, a forged
// complete only stops the pushes to the liar, and a need buys at most one
// run a horizon. The fabric steps it: it pumps at virtual intervals and goes
// quiet once no DATA has arrived for liarIdle of virtual time, bounding the
// traffic a run can see.
type liar struct {
	net     *Net
	port    *Port
	ids     []packet.ObjectID
	servers []transport.Addr
	// geom, for a liar that forges departure counts, frontiers and flags
	// too, is every object's geometry; nil and its reports are the counters
	// alone, the departure count what it was sent.
	geom map[packet.ObjectID]objGeom
	// rows counts the DATA rows each (server, object) pushed at the liar:
	// what it was sent, as near as it can tell.
	rows map[pushedAt]uint32

	every time.Duration // virtual pump interval
	// claims is the cycle of forged (received, innovative) counters, one
	// per pump; pumps counts them.
	claims [][2]uint32
	pumps  int

	pumpAt, lastData time.Time
}

// pushedAt names one (server, object) stream toward the liar.
type pushedAt struct {
	from transport.Addr
	id   packet.ObjectID
}

const (
	liarEvery = 10 * time.Millisecond
	liarFlood = time.Millisecond // a receipt per step of the fabric's default grid
	liarIdle  = 2 * time.Second
)

// liarClaims are the burst-inflating forgeries, in pump order: an
// over-claim growing faster than any sender could push, the same counters
// running backwards, a climb to the top of uint32, and the wrap past it.
var liarClaims = [][2]uint32{
	{1 << 20, 1 << 20}, {2 << 20, 2 << 20}, {3 << 20, 3 << 20},
	{1 << 10, 1 << 10},
	{1<<32 - 32, 1<<32 - 32}, {1<<32 - 1, 1<<32 - 1},
	{15, 15},
}

// startLiar attaches the actor to the fabric. ids and servers are
// read-only ground truth shared with the runner; iteration order is the
// given slice order.
func startLiar(net *Net, name string, claims [][2]uint32, every time.Duration, ids []packet.ObjectID, geom map[packet.ObjectID]objGeom, servers []transport.Addr) error {
	port, err := net.Attach(transport.Addr(name))
	if err != nil {
		return err
	}
	l := &liar{
		net: net, port: port, ids: ids, geom: geom, servers: servers, claims: claims, every: every,
		rows: make(map[pushedAt]uint32), pumpAt: net.Now().Add(every), lastData: net.Now(),
	}
	port.Drive(l.step)
	return nil
}

// forgedFlags is the n-th flag forgery for an object of geometry g, in a
// cycle of four: none; complete, while the liar stays subscribed (its next
// report, not complete, re-opens it); the report's generation complete —
// forgedFrontier's, the one past the last and 2³²−1 among them; a need,
// its run the manifest's next each time.
func forgedFlags(g objGeom, n int) (flags byte, need uint32) {
	switch n % 4 {
	case 1:
		return packet.ReportComplete, 0
	case 2:
		return packet.ReportGenComplete, 0
	case 3:
		return packet.ReportNeed, uint32(n / 4 % ((g.gens*g.kPer + integrity.RunLen - 1) / integrity.RunLen))
	}
	return 0, 0
}

// forgedDeparted is the n-th departure-count forgery toward a server that
// has pushed sent rows at the liar, in a cycle of four: everything sent has
// departed (what the liar's received claims did not credit, proven lost),
// far past what was sent, running backwards, and wrapping uint32.
func forgedDeparted(sent uint32, n int) uint32 {
	switch n % 4 {
	case 1:
		return sent + 1<<20
	case 2:
		return sent / 2
	case 3:
		return 1<<32 - 16 + uint32(n)
	}
	return sent
}

// forgedFrontier is the n-th frontier forgery for an object of geometry g,
// in a cycle of five: nothing decoded, in a generation that moves with n;
// everything decoded, yet no completion reported; a generation past the
// last (every other time, 2³²−1); a byte too many; and natives past the
// generation's end (or, with no padding to lie in, a byte too few).
func forgedFrontier(g objGeom, n int) (gen uint32, frontier []byte) {
	var decoded []int32
	for i := 0; n%5 == 1 && i < g.kPer; i++ {
		decoded = append(decoded, int32(i)) // everything present
	}
	frontier, gen = packet.AppendFrontier(nil, g.kPer, decoded), uint32(n/5%g.gens)
	switch n % 5 {
	case 2:
		gen = []uint32{uint32(g.gens), 1<<32 - 1}[n/5%2]
	case 3:
		frontier = append(frontier, 0)
	case 4:
		if frontier[len(frontier)-1] = 0xFF; g.kPer%8 == 0 {
			frontier = frontier[1:]
		}
	}
	return gen, frontier
}

// step drains the port — recording only whether DATA is still flowing,
// and how much of it each server sent; a liar that decoded would have
// nothing to lie about — and pumps when the interval has passed.
func (l *liar) step() time.Time {
	now := l.net.Now()
	for f, ok := l.port.Poll(); ok; f, ok = l.port.Poll() {
		if len(f.Data) > 0 && f.Data[0] == packet.FrameData {
			l.lastData = now
			if wv, err := packet.ParseWire(f.Data[1:]); err == nil {
				l.rows[pushedAt{f.From, wv.Object}]++
			}
		}
		f.Release()
	}
	if !now.Before(l.pumpAt) {
		l.pump(now)
		l.pumpAt = now.Add(l.every)
	}
	return l.pumpAt
}

// pump sends the next forged report of the cycle to every (server,
// object) pair; the codec leaves a frontier to the session, so a malformed
// one goes out as forged. One not flagged complete is also the liar's
// subscription, as any report is: a sender that evicted the liar takes it
// back, and one a forged complete stopped re-opens it.
func (l *liar) pump(now time.Time) {
	if now.Sub(l.lastData) >= liarIdle {
		return
	}
	claim := l.claims[l.pumps%len(l.claims)]
	l.pumps++
	for _, to := range l.servers {
		for _, id := range l.ids {
			r := packet.Report{Object: id, Received: claim[0], Innovative: claim[1], Departed: l.rows[pushedAt{to, id}]}
			if g, forges := l.geom[id]; forges {
				r.Gen, r.Frontier = forgedFrontier(g, l.pumps)
				r.Departed = forgedDeparted(r.Departed, l.pumps)
				r.Flags, r.Need = forgedFlags(g, l.pumps)
			}
			l.port.Send(to, packet.AppendReport([]byte{packet.FrameFeedback}, r))
		}
	}
}
