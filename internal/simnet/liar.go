package simnet

import (
	"context"
	"encoding/binary"
	"sync"
	"time"

	"ltnc/internal/packet"
	"ltnc/internal/transport"
)

// fbTag is the session wire protocol's FEEDBACK frame type byte;
// receiptKind is the kind-5 receipt-report discriminator inside it (see
// the internal/session package doc for the frame vocabulary and
// DESIGN.md §16 for the receipt layout).
const (
	fbTag       = 0x04
	receiptKind = 0x05
)

// liar is a lying receiver on the fabric: a raw port — no session, no
// decoder — that REQ-subscribes at every serving node for every object,
// silently drains the pushes it provokes, and floods forged kind-5
// receipt reports. Even-numbered liars claim they received nothing:
// against a naive adaptive sender the under-claim pins the per-peer loss
// estimate at its ceiling and extorts maximum redundancy forever; the
// estimator's clamps (MaxLoss, a budget that never exceeds the static
// satiation limit) are what the liar scenarios verify. Odd-numbered
// liars go after the receipt-clocked window instead, flooding the claims
// that could turn it over faster than any receiver empties it
// (liarClaims, one every liarFlood): everything and more received,
// counters running backwards, counters wrapping uint32. The pacer's
// ceiling (adapt.TickCeiling rows a tick, checked frame by frame in a
// paced run) is the defense. Pumping runs on the fabric scheduler at virtual intervals
// and goes quiet once no DATA has arrived for liarIdle of virtual time,
// bounding the traffic a run can see.
type liar struct {
	name    string
	net     *Net
	port    *Port
	ids     []packet.ObjectID
	servers []transport.Addr

	every time.Duration // virtual pump interval
	resub time.Duration // REQ re-subscription interval
	idle  time.Duration // stop pumping this long after the last DATA

	// claims is the cycle of forged (received, innovative) counters, one
	// per pump; pumps counts them. Both belong to the scheduler goroutine.
	claims [][2]uint32
	pumps  int

	mu       sync.Mutex
	lastData time.Time
	lastSub  time.Time

	recvDone chan struct{}
}

const (
	liarEvery = 10 * time.Millisecond
	liarFlood = time.Millisecond // a receipt per step of the fabric's default grid
	liarResub = 250 * time.Millisecond
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

// startLiar attaches the actor to the fabric and arms its receive loop
// and scheduler pump. ids and servers are read-only ground truth shared
// with the runner; iteration order is the given slice order, so the
// actor is deterministic.
func startLiar(ctx context.Context, net *Net, name string, claims [][2]uint32, every time.Duration, ids []packet.ObjectID, servers []transport.Addr) (*liar, error) {
	port, err := net.Attach(transport.Addr(name))
	if err != nil {
		return nil, err
	}
	l := &liar{
		name:     name,
		net:      net,
		port:     port,
		ids:      ids,
		servers:  servers,
		claims:   claims,
		every:    every,
		resub:    liarResub,
		idle:     liarIdle,
		lastData: net.Now(),
		recvDone: make(chan struct{}),
	}
	go l.recvLoop(ctx)
	net.After(l.every, func() { l.pump(ctx) })
	return l, nil
}

// forgedReceipt hand-builds the 30-byte kind-5 FEEDBACK frame the
// session layer's receipt path parses — the liar speaks the wire
// protocol without a session.
func forgedReceipt(id packet.ObjectID, received, innovative uint32) []byte {
	buf := make([]byte, 30)
	buf[0] = fbTag
	copy(buf[1:17], id[:])
	buf[17] = receiptKind
	// Generation (buf[18:22]) stays zero: the estimator is per-peer.
	binary.BigEndian.PutUint32(buf[22:26], received)
	binary.BigEndian.PutUint32(buf[26:30], innovative)
	return buf
}

// recvLoop drains the port promptly — the fabric counts queued frames
// as activity, so a slow consumer would stall every virtual advance —
// and records only whether DATA is still flowing. The rows themselves
// are dropped on the floor: a liar that decoded would have nothing to
// lie about.
func (l *liar) recvLoop(ctx context.Context) {
	defer close(l.recvDone)
	for {
		f, err := l.port.Recv(ctx)
		if err != nil {
			return
		}
		if len(f.Data) > 0 && f.Data[0] == dataTag {
			l.mu.Lock()
			l.lastData = l.net.Now()
			l.mu.Unlock()
		}
		f.Release()
	}
}

// pump runs on the scheduler goroutine at virtual intervals: the next
// forged receipt of the cycle to every (server, object) pair, plus periodic
// REQ re-subscriptions so a sender that paused or evicted the liar is
// solicited again. It re-arms itself until the run context dies.
func (l *liar) pump(ctx context.Context) {
	if ctx.Err() != nil {
		return
	}
	l.mu.Lock()
	idleFor := l.net.Now().Sub(l.lastData)
	doSub := l.net.Now().Sub(l.lastSub) >= l.resub
	if doSub {
		l.lastSub = l.net.Now()
	}
	l.mu.Unlock()
	if idleFor < l.idle {
		claim := l.claims[l.pumps%len(l.claims)]
		l.pumps++
		for _, to := range l.servers {
			for _, id := range l.ids {
				if doSub {
					req := make([]byte, 1+len(id))
					req[0] = reqTag
					copy(req[1:], id[:])
					if l.port.Send(to, req) != nil {
						return // port closed: the run is tearing down
					}
				}
				if l.port.Send(to, forgedReceipt(id, claim[0], claim[1])) != nil {
					return
				}
			}
		}
	}
	l.net.After(l.every, func() { l.pump(ctx) })
}

// close detaches the actor; the receive loop exits on the closed port.
func (l *liar) close() {
	l.port.Close()
	<-l.recvDone
}
