package session

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"

	"ltnc/internal/packet"
	"ltnc/internal/transport"
)

// The control plane: the FEEDBACK handler (MANIFEST lives in integrity.go,
// MEMBER in member.go), run inline on the receive loop; the report's bytes
// are packet.Report's. Peer bookkeeping is guarded by s.mu.

// handleFrame dispatches one control frame (FEEDBACK, MANIFEST, MEMBER)
// inline on the receive loop and sends its replies after the session lock
// is released — a reply is a syscall on UDP and must not stall the
// session. Any other kind, the retired 0x02 and 0x03 among them, is
// dropped.
func (s *Session) handleFrame(f transport.Frame) {
	if len(f.Data) == 0 {
		return
	}
	// Any control frame is a sign of life for the membership plane
	// (deliberately not the DATA hot path: freshness does not need
	// per-frame granularity there, and the view lock must stay off it).
	s.memberAlive(f.From)
	var reply []byte
	switch f.Data[0] {
	case packet.FrameFeedback:
		s.handleFeedback(f.From, f.Data[1:])
	case packet.FrameManifest:
		reply = s.handleManifest(f.From, f.Data[1:])
	case packet.FrameMember:
		reply = s.handleMember(f.From, f.Data[1:])
	}
	if reply != nil {
		s.tr.Send(f.From, reply)
	}
}

// subscribeLocked subscribes from to object id, admitted as geometry-less
// input (a relay remembers the object, a plain or cache session drops an
// unknown one) within maxPeersPerObject. It may be a new client behind the
// address: its progress is forgotten — a stale generation-done mark would
// starve it — and an ended proof pass re-armed, or rows would go ahead of
// their proof. s.mu must be held.
func (s *Session) subscribeLocked(id packet.ObjectID, from transport.Addr) {
	st := s.admitLocked(id, from, geometry{}, false)
	if st == nil {
		return // banned peer, or unknown object: the subscriber will retry elsewhere
	}
	now := s.clk.Now()
	st.touch(now)
	if s.cache != nil {
		s.cache.Touch(id, now) // demand drives the eviction score
	}
	if _, known := st.peers[from]; !known && len(st.peers) >= maxPeersPerObject && !st.dropOnePeerLocked() {
		return // peer table full of live subscribers: drop the report
	}
	ps := st.peer(from)
	ps.heard, ps.subscribed, ps.done, ps.pass = now, true, false, max(ps.pass, 0)
	ps.forgetProgressLocked()
	s.wake() // a new target: un-park the push timer, open its window now
}

// dropOnePeerLocked evicts one entry from a full peer table: a peer that
// reported completion if any (its state is pure history — even a
// configured push peer, which simply re-enters the table on its next
// interaction), else the subscriber heard from least recently. It reports
// whether an entry was freed; a configured push peer that has NOT
// reported completion is never the victim — it is neither done nor a
// subscriber. Session.mu must be held.
func (st *objectState) dropOnePeerLocked() bool {
	var victim transport.Addr
	var vps *peerState
	for addr, ps := range st.peers {
		if (ps.done || ps.subscribed) && (vps == nil || evictBefore(ps, vps, addr < victim)) {
			victim, vps = addr, ps
		}
	}
	if vps != nil {
		delete(st.peers, victim)
	}
	return vps != nil
}

// evictBefore orders two eviction candidates: done first, then the one
// heard from less recently, then the address (lower says whether a's is
// the lower) — a total order, so the victim is not whichever the map
// yields first.
func evictBefore(a, b *peerState, lower bool) bool {
	if a.done != b.done {
		return a.done
	}
	if c := a.heard.Compare(b.heard); c != 0 && !a.done {
		return c < 0
	}
	return lower
}

// handleFeedback takes a report (packet.ParseReport) and drops any other
// frame, the retired kinds among them. The report is the subscription: one
// not flagged complete from a peer not in the object's table, or from one
// that said complete, subscribes it (subscribeLocked). Addresses are
// spoofable, so that is bounded by the object table (MaxObjects), by
// maxPeersPerObject entries a table (dropOnePeerLocked) and by the ban
// list; a stranger's complete report makes nothing, and no stranger's
// report folds: no row has gone to it for its counters to be read against.
// Any report refreshes a subscriber's idle clock. A complete report latches
// done and forgets the peer's progress, and folds nothing else. Otherwise
// the counters and the frontier fold into the peer's link
// (onReceiptLocked), generation complete marks gen done at the peer, and a
// need re-arms the run it names (onNeedLocked).
func (s *Session) handleFeedback(from transport.Addr, data []byte) {
	r, err := packet.ParseReport(data)
	if err != nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, b := s.banned[from]; b {
		return // a polluter's feedback steers nothing
	}
	st, ps := s.objects[r.Object], (*peerState)(nil)
	if st != nil {
		ps = st.peers[from]
	}
	if r.Flags&packet.ReportComplete == 0 && (ps == nil || ps.done) {
		s.subscribeLocked(r.Object, from)
	}
	if ps == nil {
		return
	}
	if ps.subscribed {
		ps.heard = s.clk.Now()
	}
	switch {
	case r.Flags&packet.ReportComplete != 0:
		ps.done = true
		ps.forgetProgressLocked()
	case s.onReceiptLocked(st, ps, from, &r):
		if r.Flags&packet.ReportGenComplete != 0 {
			ps.onGenCompleteLocked(int(st.gens.Load()), r.Gen)
		}
		if r.Flags&packet.ReportNeed != 0 {
			s.onNeedLocked(st, ps, r.Need)
		}
	}
}

// onNeedLocked is a report's need: the peer lacks run r of the manifest. A
// need is answered once the peer's link horizon has passed since a run
// last went to it — sooner, the frame or the receipt that named its lack
// may still be on the wire: the run is owed, sent ahead of the next
// round's pass. What the peer reported of its rows, its window and its
// frontier stand: a missing proof is a loss to repair like a missing row,
// not a new client. A need for a run this session does not hold, for one
// past the manifest's end or for one the pass is on its way to moves
// nothing, and a peer done with the object has none. So a flood of needs
// buys at most one run a horizon. Session.mu must be held.
func (s *Session) onNeedLocked(st *objectState, ps *peerState, r uint32) {
	if ps.done || ps.owed > 0 || s.clk.Since(ps.proofAt) < ps.link.Horizon() {
		return
	}
	st.mu.Lock()
	frames := st.manFrames
	st.mu.Unlock()
	if !holdsProof(int(r), frames) || ps.pass >= 0 && ps.pass <= int(r) {
		return
	}
	ps.owed = int(r) + 1
	s.wake()
}

// onGenCompleteLocked marks generation gen of a gens-generation object
// complete at the peer (a report's generation-complete flag): recoding
// toward it skips gen from the next round. Session.mu must be held.
func (ps *peerState) onGenCompleteLocked(gens int, gen uint32) {
	// Unsigned compare: int(gen) can wrap negative on 32-bit builds.
	if gens < 2 || gen >= uint32(gens) {
		return // no coder yet, or out-of-range generation: drop
	}
	if ps.gensDone == nil {
		ps.gensDone = make([]bool, gens)
	}
	if !ps.gensDone[gen] {
		ps.gensDone[gen] = true
		ps.gensDoneN++
	}
	if ps.frontier != nil {
		ps.frontier[gen] = nil
	}
}

// onReceiptLocked feeds a report's counters to the peer's link and wakes
// the push goroutine to fold it: the rows it acknowledges, or proves lost,
// have left the window. A frontier that is not the object's frontier
// length voids the frame: it reports whether the report stands.
// A frontier naming a generation and no native past its end clears the
// generation's done mark (a quarantine's re-arm), and is kept where rows
// are drawn from a coder (a cache deals what it holds, whatever the peer
// lacks); dropped, its counters fold as a short report's.
// Session.mu must be held.
func (s *Session) onReceiptLocked(st *objectState, ps *peerState, from transport.Addr, r *packet.Report) bool {
	if tail := r.Frontier; len(tail) > 0 {
		st.mu.Lock()
		kPer, coded := st.kPer, st.phase.decoding()
		st.mu.Unlock()
		if len(tail) != packet.FrontierLen(kPer) {
			return false
		}
		// Unsigned compare: int(gen) can wrap negative on 32-bit builds.
		gens, gen := int(st.gens.Load()), r.Gen
		if pad := len(tail)*8 - kPer; gen < uint32(gens) && tail[len(tail)-1]>>(8-pad) == 0 {
			if genDone(ps.gensDone, int(gen)) {
				ps.gensDone[gen], ps.gensDoneN = false, ps.gensDoneN-1
			}
			if coded {
				if ps.frontier == nil {
					ps.frontier = make([][]byte, gens)
					ps.repairAt, ps.repairStep = s.repairOrder(from)
				}
				ps.frontier[gen] = bytes.Clone(tail)
			}
		}
	}
	s.wake()
	ps.link.OnReport(r.Received, r.Innovative)
	ps.link.OnDeparted(r.Departed)
	return true
}

// repairOrder draws the order in which this session scans peer's frontiers
// for natives to repeat (repairLocked): where it starts and its stride,
// odd. Senders serving one receiver see the same frontier and must not walk
// it the same way. The seed alone does not tell them apart — sessions left
// on the default share it — so the addresses are mixed in.
func (s *Session) repairOrder(peer transport.Addr) (at, step int) {
	h := fnv.New64a()
	h.Write(binary.BigEndian.AppendUint64(nil, uint64(s.cfg.Seed)))
	h.Write([]byte(s.tr.LocalAddr() + "\x00" + peer))
	sum := h.Sum64()
	return int(sum >> 40), int(sum>>8&0xFFFFFF) | 1
}
