package simnet

import (
	"bytes"
	"cmp"
	"slices"
	"time"

	"ltnc/internal/packet"
	"ltnc/internal/transport"
)

// polluter is a Byzantine actor on the fabric: a raw port — no session, no
// coder, every frame read and written through internal/packet's codecs —
// that watches for subscriptions (reports not flagged complete) and answers
// them with a continuous stream of forged DATA rows. The forgeries are
// wire-perfect (valid v2/v3 geometry for the requested object, exact
// honest frame size) but carry garbage payloads, so they pass every
// syntactic check and poison any decoder that accepts them. The polluter
// ignores all feedback: it never stops on receipts or completion signals,
// which is precisely the behavior the session's blame/quarantine machinery
// must convict. The fabric steps it: it pumps at virtual intervals and stops
// once no subscription has arrived for pollIdle of virtual time, bounding
// the forged-traffic inflation a run can see.
type polluter struct {
	net  *Net
	port *Port
	geom map[packet.ObjectID]objGeom

	// boot is the membership-mode bootstrap set; non-empty makes the
	// polluter an ambitious gossip citizen: it advertises itself into the
	// swarm's views (maximum capacity, relay role — the most attractive
	// neighbor possible) and answers shuffle offers with the same
	// self-advert, so fetchers discover and solicit it through the
	// membership plane exactly as they would a well-provisioned honest
	// relay. Conviction must then evict it from every view for good.
	boot   []transport.Addr
	advert []byte // prebuilt self-advert MEMBER offer
	reply  []byte // the same advert with the reply flag (answering shuffles)

	// victims are the (subscriber, object) pairs to forge at, in the order
	// a pump visits them.
	victims []victim
	seq     int
	pumps   int // odd pumps forge unit rows, even ones dense

	pumpAt, advertAt, lastSub time.Time
}

type victim struct {
	to transport.Addr
	id packet.ObjectID
}

func (a victim) cmp(b victim) int {
	if c := cmp.Compare(a.to, b.to); c != 0 {
		return c
	}
	return bytes.Compare(a.id[:], b.id[:])
}

const (
	pollEvery  = 5 * time.Millisecond // pump interval; one forged row per victim per pump
	pollIdle   = 500 * time.Millisecond
	pollAdvert = 150 * time.Millisecond // membership self-advert interval
)

// startPolluter attaches the actor to the fabric. geom is read-only
// ground truth shared with the runner (a real attacker would learn
// geometry by observing frames; handing it the map keeps the actor
// simple).
func startPolluter(net *Net, name string, geom map[packet.ObjectID]objGeom, boot []transport.Addr) error {
	port, err := net.Attach(transport.Addr(name))
	if err != nil {
		return err
	}
	now := net.Now()
	p := &polluter{net: net, port: port, geom: geom, boot: boot, pumpAt: now.Add(pollEvery), lastSub: now}
	if len(boot) > 0 {
		entry := []packet.MemberEntry{{
			Addr:     name,
			Capacity: 255,
			Role:     packet.MemberRoleRelay | packet.MemberRoleCache,
		}}
		if p.advert, err = packet.AppendMemberBody([]byte{packet.FrameMember}, 0, entry); err != nil {
			port.Close()
			return err
		}
		if p.reply, err = packet.AppendMemberBody([]byte{packet.FrameMember}, packet.MemberFlagReply, entry); err != nil {
			port.Close()
			return err
		}
		p.advertAt = now.Add(pollAdvert)
	}
	port.Drive(p.step)
	return nil
}

// step takes what arrived, then advertises and pumps as their intervals
// come due.
func (p *polluter) step() time.Time {
	now := p.net.Now()
	for f, ok := p.port.Poll(); ok; f, ok = p.port.Poll() {
		p.receive(f, now)
		f.Release()
	}
	next := p.pumpAt
	if len(p.boot) > 0 {
		if !now.Before(p.advertAt) {
			// The lying self-advert, at every bootstrap node: they merge it
			// into their views and the gossip spreads it — the discovery
			// path an honest high-capacity relay would take too.
			for _, to := range p.boot {
				p.port.Send(to, p.advert)
			}
			p.advertAt = now.Add(pollAdvert)
		}
		next = p.advertAt
	}
	if !now.Before(p.pumpAt) {
		p.pump(now)
		p.pumpAt = now.Add(pollEvery)
	}
	if p.pumpAt.Before(next) {
		next = p.pumpAt
	}
	return next
}

// receive records subscriptions and keeps the membership lie alive.
// Everything else (MANIFEST, complete reports; a subscriber's next report
// only keeps its subscription alive) is dropped on the floor: a polluter
// that honored feedback would stop forging and never be convicted.
func (p *polluter) receive(f transport.Frame, now time.Time) {
	if len(f.Data) > 0 && f.Data[0] == packet.FrameMember && p.reply != nil {
		// Answer shuffle offers (never replies — the membership plane's
		// ping-pong guard, honored so the lie stays plausible) with the
		// self-advert: whoever probes the polluter keeps it fresh and
		// maximally attractive in their view.
		if flags, _, err := packet.ParseMemberBody(f.Data[1:]); err == nil && flags&packet.MemberFlagReply == 0 {
			p.port.Send(f.From, p.reply)
		}
	}
	if len(f.Data) == 0 || f.Data[0] != packet.FrameFeedback {
		return
	}
	r, err := packet.ParseReport(f.Data[1:])
	if _, ok := p.geom[r.Object]; err != nil || !ok || r.Flags&packet.ReportComplete != 0 {
		return // a subscription is a report not flagged complete
	}
	v := victim{to: f.From, id: r.Object}
	if i, known := slices.BinarySearchFunc(p.victims, v, victim.cmp); !known {
		p.victims = slices.Insert(p.victims, i, v)
	}
	p.lastSub = now
}

// pump sends one forged row to every (victim, object) subscription,
// round-robin over row indices and generations so forgeries never
// collapse to duplicates. Pumps alternate the rows' degree, dense first:
// receipts clock the honest push, so the manifest beats the first pump, and
// a unit row is then digest-checked on arrival — convicting its sender on
// the spot — where a degree-2 row poisons its generation until that fails
// verification, and the quarantine convicts the sender of the row that
// released the generation's first false native.
func (p *polluter) pump(now time.Time) {
	if now.Sub(p.lastSub) >= pollIdle {
		return
	}
	dense := p.pumps%2 == 0
	p.pumps++
	for _, v := range p.victims {
		g := p.geom[v.id]
		payload := bytes.Repeat([]byte{0xB6}, g.m)
		// Vary the garbage so forged rows stay "innovative".
		payload[0], payload[1] = byte(p.seq), byte(p.seq>>8)
		pk := packet.Native(g.kPer, p.seq%g.kPer, payload)
		if dense && g.kPer > 1 {
			pk.Vec.Set((p.seq + 1) % g.kPer)
		}
		pk.Object = v.id
		if g.gens > 1 {
			pk.Generation = uint32(p.seq % g.gens)
			pk.Generations = uint32(g.gens)
		}
		p.seq++
		wire, err := packet.Marshal(pk)
		if err != nil {
			return
		}
		p.port.Send(v.to, append([]byte{packet.FrameData}, wire...))
	}
}
