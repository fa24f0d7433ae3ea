package session

import (
	"bytes"
	"math/bits"
	"slices"
	"time"

	"ltnc/internal/adapt"
	"ltnc/internal/bitvec"
	"ltnc/internal/integrity"
	"ltnc/internal/packet"
	"ltnc/internal/transport"
)

// The push plane. One round is plan → emit → commit over one peerPlan
// record per (object, peer). Rounds are run by the session's one driver
// alone — Run's push goroutine or Step's caller, through the push timer's
// rounds (session.go): one when the timer fires — the floor,
// every Tick while any peer is owed rows — and one whenever a receipt
// arrives, a decode gives a relay something new to forward or a subscriber
// appears, so rows leave as fast as the receiver's progress frees its
// window (adapt.Link) and not a tick later.
//
// Lock order, here as everywhere in the package: Session.mu before
// objectState.mu, never the reverse, and nothing is sent under either.
// planLocked and commitLocked run under s.mu (targetsLocked takes st.mu
// briefly inside it); emit takes st.mu only to build rows, then sends
// and stages with no lock held — over UDP every Send is a syscall, and
// holding a lock across the sweep would stall the receive hot path for
// its duration. The cache has its own lock and is a leaf. Rounds run on
// the driver's goroutine alone, so the coalescer, rowBuf and the free list
// of native rows need no lock.

// peerPlan is one (object, peer) push decision. planLocked fills the
// snapshot half from the peer's state, emit draws and sends the burst it
// describes and records what left, commitLocked writes the result back.
type peerPlan struct {
	addr transport.Addr
	// Snapshot of the peer's state, taken under s.mu.
	gensDone []bool // generations complete at the peer (nil = none)
	// The proof pass: passAt is the peer's pass as planned, pass advances
	// on this copy as emit takes the round's runs (takeProof) and is
	// written back unless a subscription re-armed the peer meanwhile; owed is the
	// run a need re-armed, plus one (0: none); proof holds the MANIFEST
	// frames that go this round, ahead of its rows.
	passAt, pass, owed int
	proof              [][]byte
	// burst is how many DATA frames this peer gets this round: what the
	// peer's window has free (adapt.Link.Grant).
	burst int
	// The cursors advance on this copy during emit and are written back
	// at commit — per peer, so each fetcher walks the whole cached basis
	// (see cache.AppendFrame on aliasing).
	cacheCursor uint64
	sysCursor   int
	// The peer's frontier state (peerState has the invariants that make
	// the copies safe to read unlocked): unsettled, already rid of what has
	// settled, grows by every native drawn; sentBase is the link's send
	// count before this round, which dates them.
	frontier             [][]byte
	unsettled            []sentNative
	repairAt, repairStep int
	sentBase             uint32

	rows             []*packet.Packet // coder-drawn burst (a window of Session.rowBuf): sysRows natives, repRows repeats, then recodes
	sysRows, repRows int

	// What left: sent — DATA frames committed to the coalescer window (the
	// flush's error, like a lost datagram, is not worth unwinding the stats
	// for), sys of them systematic and rep repeats.
	sent, sys, rep int
}

// has reports whether the peer reported generation g complete.
func (p *peerPlan) has(g int) bool { return genDone(p.gensDone, g) }

// proven reports whether a proof pass standing at pass has sent the run
// holding native x's digest: a row of x may follow it.
func proven(pass, x int) bool { return pass < 0 || x/integrity.RunLen < pass }

// genDone reads the generations a peer reported complete, a slice sized
// lazily: nil, none.
func genDone(done []bool, g int) bool { return g < len(done) && done[g] }

// native adds native row z of x to the burst, and to the rows in flight.
func (p *peerPlan) native(x int, z *packet.Packet) {
	p.rows = append(p.rows, z)
	if len(p.unsettled) == maxUnsettled {
		// More in flight than any window lets a link have: the hard bound,
		// should a grant ever exceed one. Forget the older half, which at
		// worst repeats one of them early.
		p.unsettled = p.unsettled[:copy(p.unsettled, p.unsettled[maxUnsettled/2:])]
	}
	p.unsettled = append(p.unsettled, sentNative{p.sentBase + uint32(len(p.rows)), int32(x)})
}

// objectPlan is one object's share of a push round.
type objectPlan struct {
	st    *objectState
	peers []peerPlan
}

// push sends one burst per object and target with rows to come. It
// reports whether any object still has a target that has not reported
// completion — the push timer keeps its Tick period exactly that long —
// and the earliest instant a row in flight toward a target ages out
// (adapt.Link.Deadline), zero with none in flight: the timer runs a round
// then too, so a row lost with nothing behind it to prove it leaves the
// window a round trip after it was sent, not at a tick.
func (s *Session) push() (live bool, age time.Time) {
	s.mu.Lock()
	plans, live, age := s.planLocked(s.clk.Now())
	s.mu.Unlock()
	if len(plans) == 0 {
		return live, age
	}
	// DATA frames are staged into the coalescer's pooled slabs and flushed
	// as per-peer batches at the end of the round (early per-peer flushes
	// bound the window) — sendmmsg/GSO-sized bursts on the Linux fast
	// path, plain per-frame sends elsewhere.
	if s.coal == nil {
		s.coal = transport.NewCoalescer(s.tr, 0)
	}
	for i := range plans {
		s.emit(&plans[i])
	}
	s.coal.Flush()
	s.mu.Lock()
	age = earliest(age, s.commitLocked(plans, s.clk.Now()))
	s.mu.Unlock()
	return live, age
}

// earliest returns the earlier of two instants, zero standing for none.
func earliest(a, b time.Time) time.Time {
	if a.IsZero() || !b.IsZero() && b.Before(a) {
		return b
	}
	return a
}

// planLocked snapshots this round's targets: objects in ID order, each
// object's peers in targetsLocked order. The order is part of the
// protocol's determinism — every peer's Recode draws from the object's
// one coder RNG, so who goes first decides what everyone gets. A peer
// whose window is full and who is owed no proof held here is left out;
// age is the earliest ageing deadline over every link planned, left out or
// not. s.mu must be held.
func (s *Session) planLocked(now time.Time) (plans []objectPlan, live bool, age time.Time) {
	objs := make([]*objectState, 0, len(s.objects))
	for _, st := range s.objects {
		objs = append(objs, st)
	}
	slices.SortFunc(objs, func(a, b *objectState) int { return bytes.Compare(a.id[:], b.id[:]) })
	for _, st := range objs {
		addrs := s.targetsLocked(st)
		live = live || len(addrs) > 0
		op := objectPlan{st: st}
		st.mu.Lock()
		frames := st.manFrames
		st.mu.Unlock()
		for _, addr := range addrs {
			p, at, due := s.planPeerLocked(st, addr, frames, now)
			age = earliest(age, at)
			if due {
				op.peers = append(op.peers, p)
			}
		}
		if len(op.peers) > 0 {
			plans = append(plans, op)
		}
	}
	return plans, live, age
}

// planPeerLocked snapshots one peer of st — its held manifest runs frames
// (nil where not held) — for a round at now, and returns when
// the oldest row in flight on the peer's link ages out and whether the
// round has anything for the peer: rows its window grants, or proof it
// holds. s.mu must be held.
func (s *Session) planPeerLocked(st *objectState, addr transport.Addr, frames [][]byte, now time.Time) (p peerPlan, age time.Time, due bool) {
	ps := st.peer(addr)
	p = peerPlan{addr: addr, cacheCursor: ps.cacheCursor, sysCursor: ps.sysCursor, repairAt: ps.repairAt, repairStep: ps.repairStep,
		passAt: ps.pass, pass: ps.pass, owed: ps.owed}
	// Grant is also what folds the peer's receipts into its loss estimate.
	// The taper reads what the peer itself reported missing when it has:
	// fed by several senders, it never brings one link's innovative count
	// near k.
	lacks := ps.link.Lacks(st.k)
	if ps.frontier != nil {
		lacks = ps.lacksLocked(st.kPer)
	}
	p.burst, age = ps.link.Grant(now, s.cfg.Tick, lacks), ps.link.Deadline()
	if p.burst == 0 && p.owed == 0 && !holdsProof(p.pass, frames) {
		return p, age, false // nothing to send: planLocked leaves the peer out
	}
	if ps.gensDoneN > 0 {
		p.gensDone = slices.Clone(ps.gensDone)
	}
	// Rows leave the link's count oldest first: what was sent up to Settled
	// is behind the newest receipt folded, or was never answered.
	settled, n := uint32(ps.link.Settled()), 0
	for n < len(ps.unsettled) && int32(settled-ps.unsettled[n].at) >= 0 {
		n++
	}
	ps.unsettled = ps.unsettled[:copy(ps.unsettled, ps.unsettled[n:])]
	p.frontier, p.unsettled, p.sentBase = slices.Clone(ps.frontier), ps.unsettled, uint32(ps.link.Sent())
	return p, age, true
}

// lacksLocked counts the natives the peer's frontier leaves missing, over
// the generations it has not reported complete. Session.mu must be held.
func (ps *peerState) lacksLocked(kPer int) (n int) {
	for g, f := range ps.frontier {
		if !genDone(ps.gensDone, g) {
			n += frontierLacks(f, kPer)
		}
	}
	return n
}

// frontierLacks counts the natives frontier f leaves missing of a
// generation of kPer: all of them when no receipt has named it (nil).
func frontierLacks(f []byte, kPer int) int {
	for _, b := range f {
		kPer -= bits.OnesCount8(b)
	}
	return kPer
}

// emit sends one object's round. Under st.mu it takes each peer's proof
// for the round (takeProof), then draws its rows — none of a run the pass
// has yet to send it — so decode workers stall at most per object; then
// the proof goes out directly, ahead of the round's DATA, which is staged
// into the coalescer. An evicted object emits nothing, an announced one has
// no proof to send, and a below-threshold one sends only its proof.
func (s *Session) emit(op *objectPlan) {
	st := op.st
	cached, ready := false, false
	st.mu.Lock()
	switch st.phase {
	case phCaching:
		// Frames come from the cached basis (the cache has its own lock);
		// no aggressiveness gate — whatever rank the cache holds is already
		// worth serving.
		cached, ready = true, true
	case phFilling:
		ready = st.coder.Received() >= threshold(st.k)
	case phDecoded, phComplete:
		ready = true
	}
	var proof [][]byte // built for the first peer the round owes proof
	for i := range op.peers {
		if p := &op.peers[i]; st.phase != phEvicted && st.phase != phAnnounced && (p.pass >= 0 || p.owed > 0) {
			if proof == nil {
				proof = st.proofLocked()
			}
			p.takeProof(proof)
		}
	}
	if ready && !cached {
		st.mergeLogLocked()
		// Every peer's burst is drawn into its own window of one scratch
		// slice the tick goroutine reuses round after round.
		total := 0
		for i := range op.peers {
			total += op.peers[i].burst
		}
		s.rowBuf = slices.Grow(s.rowBuf[:0], total)[:total]
		off := 0
		for i := range op.peers {
			p := &op.peers[i]
			p.rows = s.rowBuf[off : off : off+p.burst]
			s.drawRowsLocked(st, p)
			off += p.burst
		}
	}
	kPer := st.kPer
	st.mu.Unlock()
	for i := range op.peers {
		p := &op.peers[i]
		for _, f := range p.proof {
			s.tr.Send(p.addr, f)
		}
	}
	for i := range op.peers {
		if cached {
			s.stageCached(st, &op.peers[i], kPer)
		} else {
			s.stageRows(&op.peers[i])
		}
	}
	clear(s.rowBuf) // staged: natives back on the free list, coded rows garbage
}

// proofLocked returns the object's proof as a pass sends it, one item a run
// of its shaped manifest: the run's MANIFEST frame, nil where this node
// does not hold it. manFrames is replaced wholesale under st.mu and never
// written in place, so the frames are safe to send after unlock. st.mu
// must be held.
func (st *objectState) proofLocked() [][]byte {
	proof := make([][]byte, (st.k+integrity.RunLen-1)/integrity.RunLen)
	copy(proof, st.manFrames)
	return proof
}

// holdsProof reports whether run r of an object's proof is held, given its
// manifest's frames.
func holdsProof(r int, frames [][]byte) bool { return r >= 0 && r < len(frames) && frames[r] != nil }

// manifestChunksPerRound is how many manifest runs a peer gets a round,
// 64 KiB. A 16 MiB object's manifest is 16 runs, 524 KiB:
// in one burst it overflows a receive buffer of Linux's default 208 KiB,
// the same frames lost on every repair. At four a round, back to back with
// the round's DATA, one fetch in four over loopback still lost one.
const manifestChunksPerRound = 2

// takeProof picks the peer's runs for the round out of proof (nil where
// not held): the run a need owed, if held, then the pass's next runs in
// order, up to manifestChunksPerRound; the pass waits at a run not held.
func (p *peerPlan) takeProof(proof [][]byte) {
	if holdsProof(p.owed-1, proof) {
		p.proof = append(p.proof, proof[p.owed-1])
	}
	for runs := 0; runs < manifestChunksPerRound && holdsProof(p.pass, proof); runs++ {
		p.proof = append(p.proof, proof[p.pass])
		p.pass++
	}
	if p.pass == len(proof) {
		p.pass = -1
	}
}

// quarantinedLocked reports whether generation g failed verification and
// has not re-verified since: nothing of it leaves this node, in any form —
// a relay must not launder pollution. st.mu must be held.
func (st *objectState) quarantinedLocked(g int) bool { return st.guard[g].state == genQuarantined }

// gatedLocked reports whether generation g must not recode downstream: it
// has not verified. A partially-filled generation may hold a polluter's
// forged rows, and pushing recodes of it would launder the garbage through
// this honest node — whose downstreams would then convict *it* (the row
// that released their first false native came from this node). A coded row
// can only be checked against its whole generation, so for coded rows that
// is the store-and-forward unit; a decoded native is checkable alone
// against its run of the manifest, and waits for that run only
// (drawNativeLocked). st.mu must be held.
func (st *objectState) gatedLocked(g int) bool { return st.guard[g].state != genVerified }

// mergeLogLocked appends what each generation decoded since the last call
// to the object's decode-order log (0..k−1 for a seeded source). After a
// quarantine rewinds sysMerged[g] the generation's natives are logged again
// as they are re-decoded, behind their stale entries: a peer whose cursor
// stands between the two may get such a native twice — proven both times,
// harmless, and not worth per-peer state. st.mu must be held.
func (st *objectState) mergeLogLocked() {
	if st.sysMerged == nil {
		st.sysMerged = make([]int, st.coder.Generations())
	}
	for g, have := range st.sysMerged {
		log := st.coder.DecodeLog(g)
		for _, i := range log[have:] {
			st.sysLog = append(st.sysLog, int32(g*st.kPer)+i)
		}
		st.sysMerged[g] = len(log)
	}
}

// drawRowsLocked builds one peer's burst from the coder: the systematic
// first pass while it lasts, then repair — repeats of what the peer's
// frontier lacks (repairLocked), coded rows for the generations it says
// nothing about. Rows are recoded per target so each peer's burst
// round-robins across exactly the generations it still needs (the
// reports' generation-complete flags) and may be served: verified (gatedLocked), every run over it
// sent to the peer ahead (proven). A generation with a frontier
// in hand is not coded for blind: what this node has decoded of it goes
// out as repeats, and an LT row over the rest of the generation would
// mostly land on natives the peer has. The exception is a node free to
// recode (verified) that holds coded rows of the generation it has not
// peeled yet, and fewer natives than the peer lacks: those rows reach what
// its natives cannot. A generation with no frontier is not coded for while
// a native of it sent toward the peer is unsettled — repairLocked's gate:
// the next receipt or completion report says whether anything is owed, and
// a frontier-less peer (a cache) handed a pass's last natives would
// otherwise get coded rows behind them before it could report them.
//
// The systematic pass walks the peer's cursor along the object's
// decode-order log, emitting each native AT MOST once as a degree-1 row
// before any coded repair. It is the relay's cut-through path: a native
// decoded this tick ends the log and leaves this tick, while its
// generation is still filling. So the gate here is per native
// (drawNativeLocked): its generation unverified, the row goes out only
// once its run is in hand and the decoded payload matches its digest; a
// mismatch (belief propagation peeled a forged row) is passed over for
// good, and quarantines its generation at completion. The cursor indexes
// the log because an index-order cursor cannot cut through: it must skip
// every native not yet decoded — a peer subscribed before the relay
// completes then gets no plain row at all — or stall on it, head-of-line
// blocked by the first native upstream lost. A log cursor waits only at a
// native whose run this node does not hold or has not yet sent the peer:
// stepping past would leave it to frontier repair. Entries of generations
// the peer has, or that are quarantined, are passed over. st.mu must be
// held.
func (s *Session) drawRowsLocked(st *objectState, p *peerPlan) {
	skip := func(g int) bool {
		if p.has(g) || st.gatedLocked(g) || !proven(p.pass, (g+1)*st.kPer-1) {
			return true
		}
		if p.frontier == nil || p.frontier[g] == nil {
			return slices.ContainsFunc(p.unsettled, func(u sentNative) bool { return int(u.x)/st.kPer == g })
		}
		return st.coder.GenStored(g) == 0 || len(st.coder.DecodeLog(g)) >= frontierLacks(p.frontier[g], st.kPer)
	}
	for len(p.rows) < p.burst && p.sysCursor < len(st.sysLog) && s.drawNativeLocked(st, p, int(st.sysLog[p.sysCursor])) {
		p.sysCursor++
	}
	p.sysRows = len(p.rows)
	s.repairLocked(st, p)
	p.repRows = len(p.rows) - p.sysRows
	for len(p.rows) < p.burst {
		z, ok := st.coder.Recode(skip)
		if !ok {
			break
		}
		p.rows = append(p.rows, z)
	}
	for _, z := range p.rows {
		z.Object = st.id
	}
}

// drawNativeLocked adds native x to the peer's burst as a degree-1 row if
// it may leave: the peer lacks its generation, this node has decoded it,
// the run holding its digest is in hand and the pass has sent it to the
// peer, and — its generation unverified — the decoded payload matches that
// digest: the gate of the systematic pass and of every repeat alike. It
// reports false, drawing nothing, for a native that waits for its run: the
// systematic pass stops there, repair passes over it. The row is a packet
// off the push rounds' free list with the native's bytes copied in, here
// under st.mu: a move or a quarantine after the lock drops cannot change
// what is staged. st.mu must be held.
func (s *Session) drawNativeLocked(st *objectState, p *peerPlan, x int) (ready bool) {
	g := x / st.kPer
	if p.has(g) || st.quarantinedLocked(g) {
		return true
	}
	if !st.man.Holds(x) || !proven(p.pass, x) {
		return false
	}
	z := s.takeNativeRow(st.kPer, st.m)
	if st.coder.NativeRow(z, x) && (!st.gatedLocked(g) || st.nativeProvenLocked(x, z.Payload)) {
		p.native(x, z)
		return true
	}
	s.putNativeRow(z)
	return true
}

// maxFreeRows bounds the push rounds' free list of native rows: four
// windows, more than one peer's share of a paced round draws (a window, the
// probe's row besides); rows past it are left to the GC.
const maxFreeRows = 4 * adapt.MaxBurst

// takeNativeRow takes a packet off the push rounds' free list, shaped for
// kPer-bit vectors and m-byte payloads (one of another object's shape is
// reshaped), or allocates one when the list is empty.
func (s *Session) takeNativeRow(kPer, m int) *packet.Packet {
	n := len(s.freeRows)
	if n == 0 {
		return packet.New(kPer, m)
	}
	z := s.freeRows[n-1]
	s.freeRows[n-1], s.freeRows = nil, s.freeRows[:n-1]
	if z.Vec.Len() != kPer {
		z.Vec = bitvec.New(kPer)
	}
	if cap(z.Payload) < m {
		z.Payload = make([]byte, m)
	}
	return z
}

// putNativeRow returns a native row to the free list once nothing reads
// it any more.
func (s *Session) putNativeRow(z *packet.Packet) {
	if len(s.freeRows) < maxFreeRows {
		s.freeRows = append(s.freeRows, z)
	}
}

// repairLocked is the repair phase of one peer's burst (the paper's
// Algorithm 4, degree-1 branch, with the receiver's state on the wire): it
// repeats the natives the peer's frontier lacks and this node may send
// (drawNativeLocked: one waiting for its run is passed over), but none
// whose last send toward the peer the link still counts in flight — its
// fate is not in the frontier yet.
//
// The scan visits the frontier's bytes — eight natives each, generation
// after generation — in an order of this (sender, peer)'s own: from
// repairAt in steps of repairStep, odd, round the next power of two, which
// reaches every byte once before any twice. So a native repeated in vain
// comes up again only after every other one missing, and two senders
// serving one receiver, who see the same frontier, do not repeat the same
// natives in the same order — walking it the same way, the slower ends up
// in the faster one's wake, sending what that one has in flight.
// st.mu must be held.
func (s *Session) repairLocked(st *objectState, p *peerPlan) {
	if p.frontier == nil || len(p.rows) >= p.burst {
		return
	}
	inFlight := s.markLocked(st.k, p.unsettled)
	defer clear(inFlight)
	perGen := packet.FrontierLen(st.kPer)
	blocks := len(p.frontier) * perGen
	round := 1 << bits.Len(uint(blocks-1))
	for n := 0; n < round; n, p.repairAt = n+1, (p.repairAt+p.repairStep)&(round-1) {
		if p.repairAt >= blocks || p.frontier[p.repairAt/perGen] == nil {
			continue
		}
		g, j := p.repairAt/perGen, p.repairAt%perGen
		for missing := ^p.frontier[g][j]; missing != 0; missing &= missing - 1 {
			i := 8*j + bits.TrailingZeros8(missing)
			x := g*st.kPer + i
			if i >= st.kPer || inFlight[x>>6]>>(x&63)&1 != 0 {
				continue
			}
			if len(p.rows) == p.burst {
				return // the rest of this byte is where the next scan starts
			}
			s.drawNativeLocked(st, p, x)
		}
	}
}

// markLocked returns a k-bit set — the push rounds' scratch, to be handed
// back clear — with the natives of unsettled marked.
func (s *Session) markLocked(k int, unsettled []sentNative) []uint64 {
	s.markBuf = slices.Grow(s.markBuf[:0], (k+63)/64)[:(k+63)/64]
	for _, u := range unsettled {
		s.markBuf[u.x>>6] |= 1 << (u.x & 63)
	}
	return s.markBuf
}

// stageRows serializes a coder-drawn burst straight into coalescer slabs,
// each row stamped with its place on the peer's link. A native row goes
// back to the free list as soon as its bytes are in the slab.
func (s *Session) stageRows(p *peerPlan) {
	for i, z := range p.rows {
		frame := packet.AppendWire(append(s.coal.Stage(), packet.FrameData), z)
		if i < p.sysRows+p.repRows {
			s.putNativeRow(z)
		}
		if len(frame) > transport.MaxFrame {
			continue
		}
		s.commitRow(p, frame)
		switch {
		case i < p.sysRows:
			p.sys++
		case i < p.sysRows+p.repRows:
			p.rep++
		}
	}
}

// stageCached deals one peer's burst from the cached basis, along the
// peer's own cursor, around the generations it already covers and those
// of kPer natives whose runs the pass has yet to send it.
func (s *Session) stageCached(st *objectState, p *peerPlan, kPer int) {
	skip := func(g uint32) bool { return p.has(int(g)) || !proven(p.pass, (int(g)+1)*kPer-1) }
	for p.sent < p.burst {
		frame, ok := s.cache.AppendFrame(append(s.coal.Stage(), packet.FrameData), st.id, &p.cacheCursor, skip)
		if !ok || len(frame) > transport.MaxFrame {
			break
		}
		s.commitRow(p, frame)
	}
}

// commitRow stamps one staged DATA frame with its send sequence on the
// peer's link — the rows pushed before this round, then this round's, in
// the order the coalescer sends them — and commits it. The receiver turns
// the stamps into the departure count its receipts carry (rxTally).
func (s *Session) commitRow(p *peerPlan, frame []byte) {
	p.sent++
	packet.Restamp(frame[1:], packet.SeqStamp(uint64(p.sentBase)+uint64(p.sent)))
	s.coal.Commit(p.addr, frame)
}

// commitLocked writes one round's results back, the DATA frames sent at
// now, and returns the earliest ageing deadline over the links that sent
// any. Only peers still tracked are written to: re-creating one evicted or
// banned mid-push just to park a cursor would resurrect it. s.mu must be
// held.
func (s *Session) commitLocked(plans []objectPlan, now time.Time) (age time.Time) {
	for i := range plans {
		st := plans[i].st
		for j := range plans[i].peers {
			p := &plans[i].peers[j]
			st.sent += int64(p.sent)
			st.systematic += int64(p.sys)
			st.repeated += int64(p.rep)
			ps, ok := st.peers[p.addr]
			if !ok {
				continue
			}
			if ps.pass == p.passAt {
				ps.pass = p.pass
			}
			if len(p.proof) > 0 {
				ps.proofAt = now
				if ps.owed == p.owed {
					ps.owed = 0
				}
			}
			ps.cacheCursor = p.cacheCursor
			// Monotone: a concurrent sweep may have pushed further already.
			ps.sysCursor = max(ps.sysCursor, p.sysCursor)
			ps.unsettled, ps.repairAt = p.unsettled, p.repairAt
			if p.sent > 0 {
				// The DATA frames committed toward the peer are in flight on
				// its link from here on, dated now.
				ps.link.OnSend(p.sent, now)
				age = earliest(age, ps.link.Deadline())
			}
		}
	}
	return age
}

// targetsLocked returns the push targets for one object: every live
// subscriber, in address order, then the standing targets in configured
// order — the configured peers and, with the membership plane on, the
// current relay/cache-role neighbor selection (bounded by Fanout, so the
// sweep is O(active neighbors) however large the swarm's view of the
// world grows) — excluding peers that reported completion. s.mu must be
// held.
func (s *Session) targetsLocked(st *objectState) (out []transport.Addr) {
	for addr, ps := range st.peers {
		if ps.subscribed && !ps.done {
			out = append(out, addr)
		}
	}
	slices.Sort(out)
	subs := len(out)
	standing := s.peers
	if s.member != nil {
		standing = append(slices.Clone(s.peers), s.member.pushTargets()...)
	}
	st.mu.Lock()
	for _, addr := range standing {
		if _, sub := slices.BinarySearch(out[:subs], addr); sub || slices.Contains(out[subs:], addr) {
			continue
		}
		if ps, ok := st.peers[addr]; ok && ps.done {
			continue
		}
		if _, sol := st.solicited[addr]; sol && st.phase != phComplete {
			// This peer is our own upstream for an object we are still
			// fetching: if it wants our rows it asks for them (subscribed,
			// handled above — mesh peers fetching from each other do
			// exactly that). Unasked push-back up the edge we fetch over
			// only wastes frames. Once the object is complete, push-back
			// resumes: a finished fetcher re-seeding its upstream (an edge
			// cache, say) is useful cut-through.
			continue
		}
		out = append(out, addr)
	}
	st.mu.Unlock()
	return out
}
