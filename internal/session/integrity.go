package session

import (
	"math/bits"
	"slices"
	"time"

	"ltnc/internal/bitvec"
	"ltnc/internal/integrity"
	"ltnc/internal/packet"
	"ltnc/internal/transport"
)

// The integrity plane (DESIGN.md §13): manifests, per-generation
// verification, quarantine and probes, bans. An object's ID commits to its
// geometry and its manifest's root (integrity.ObjectID): a META is checked
// on arrival (parseMeta), a manifest on adoption, and every native against
// the manifest, so nothing here hashes a whole object. Detection runs under
// st.mu on the decode path; its consequences collect in pollActions and are
// applied once every lock is dropped.

// pollActions collects the consequences of pollution detection that must
// run after the decode-plane lock is released: session-wide bans (they
// take Session.mu) and REQ frames that re-arm upstream senders for a
// quarantined generation's re-fetch (sends must not run under any lock).
type pollActions struct {
	bans  []transport.Addr
	sends []ingestReply
}

// apply executes the collected actions. Call with no locks held.
func (s *Session) applyPollActions(acts *pollActions) {
	if acts == nil || (len(acts.bans) == 0 && len(acts.sends) == 0) {
		return
	}
	s.banPeers(acts.bans)
	for _, r := range acts.sends {
		s.tr.Send(r.addr, r.frame)
	}
	if len(acts.sends) > 0 {
		s.wake() // a probe went out: a parked push loop must time it
	}
	acts.bans = acts.bans[:0]
	acts.sends = acts.sends[:0]
}

// banPeers convicts peers of pollution: every future frame from them is
// dropped at resolution, they leave the configured push set and every
// object's peer table, and Fetch stops asking them.
func (s *Session) banPeers(addrs []transport.Addr) {
	if len(addrs) == 0 {
		return
	}
	s.mu.Lock()
	for _, addr := range addrs {
		if _, dup := s.banned[addr]; dup || addr == "" {
			continue
		}
		s.banned[addr] = struct{}{}
		if i := slices.Index(s.peers, addr); i >= 0 {
			s.peers = slices.Delete(s.peers, i, i+1)
		}
		for _, st := range s.objects {
			delete(st.peers, addr)
		}
		s.logf("session: banned %s: it sent data that failed integrity verification", addr)
	}
	s.mu.Unlock()
	if s.member != nil {
		// Evict convictions from the membership view and neighbor sets;
		// the merge-time exclusion keeps gossip from re-admitting them.
		s.member.ban(addrs)
	}
}

// BannedPeers returns the peers this session has banned for pollution,
// in deterministic order.
func (s *Session) BannedPeers() []transport.Addr {
	s.mu.Lock()
	out := make([]transport.Addr, 0, len(s.banned))
	for addr := range s.banned {
		out = append(out, addr)
	}
	s.mu.Unlock()
	slices.Sort(out)
	return out
}

// soliciteLocked records addrs as the object's chosen upstreams. Only
// solicited peers can be convicted over this object's rows (see the
// solicited field). st.mu must be held.
func (st *objectState) soliciteLocked(addrs ...transport.Addr) {
	if st.solicited == nil {
		st.solicited = make(map[transport.Addr]struct{}, len(addrs))
	}
	for _, a := range addrs {
		st.solicited[a] = struct{}{}
	}
}

// solicitedPeer reports whether addr is a chosen upstream for this
// object. st.mu must be held.
func (st *objectState) solicitedPeer(addr transport.Addr) bool {
	_, ok := st.solicited[addr]
	return ok
}

// noteContribLocked records that one innovative row of generation g came
// from addr — the blame ledger a later verification failure settles.
func (st *objectState) noteContribLocked(g int, addr transport.Addr) {
	gg := &st.guard[g]
	if gg.contrib == nil {
		gg.contrib = make(map[transport.Addr]int)
	}
	gg.contrib[addr]++
}

// vouchLocked marks every generation verified: the content is local, and
// a source's natives are views of it. st.mu must be held.
func (st *objectState) vouchLocked() {
	for g := range st.guard {
		st.guard[g].state = genVerified
	}
}

// probeTimeout is how long a quarantined generation waits on its probe
// peer before moving to the next candidate — probe peers can be dead,
// banned meanwhile, or simply slow.
func (s *Session) probeTimeout() time.Duration {
	return max(100*s.cfg.Tick, 250*time.Millisecond)
}

// adoptManifestLocked installs a manifest that hashes to the object's root:
// the parsed form for verification, pre-built frames for re-serving it
// downstream; a filling or decoded object gets its buffer with it
// (placeLocked). st.mu must be held.
func (st *objectState) adoptManifestLocked(man *integrity.Manifest, raw []byte) {
	st.man, st.manFrames, st.manAsm = man, manifestFrames(st.id, raw), nil
	st.placeLocked()
}

// Per-native proof states (objectState.proof); the zero value is "not
// checked yet".
const (
	proofGood = 1 + iota
	proofBad
)

// nativeProvenLocked reports whether pay, the decoded payload of native x,
// matches the manifest's digest for it, hashing it the first time only. A
// decoded native never changes short of a ResetGen, which clears its
// generation's bits. st.mu must be held and the manifest be in hand.
func (st *objectState) nativeProvenLocked(x int, pay []byte) bool {
	if st.proof[x] == 0 {
		st.proof[x] = proofGood
		if st.man.Verify(x, pay) != nil {
			st.proof[x] = proofBad
		}
	}
	return st.proof[x] == proofGood
}

// manifestFrames splits one encoded manifest into ready-to-send MANIFEST
// frames.
func manifestFrames(id packet.ObjectID, raw []byte) [][]byte {
	frames := make([][]byte, 0, (len(raw)+packet.MaxManifestChunk-1)/packet.MaxManifestChunk)
	for off := 0; off < len(raw); off += packet.MaxManifestChunk {
		end := min(off+packet.MaxManifestChunk, len(raw))
		frame, err := packet.AppendManifestChunk(
			[]byte{frameManifest}, id, uint32(len(raw)), uint32(off), raw[off:end])
		if err != nil {
			return nil
		}
		frames = append(frames, frame)
	}
	return frames
}

// verifyGenLocked runs the freshly completed generation g through the
// manifest, if there is one yet: a generation verifies, or fails and is
// quarantined into acts. Without a manifest it stays open until one comes
// (settleLocked retro-verifies). st.mu must be held and the coder complete
// for g.
func (s *Session) verifyGenLocked(st *objectState, g int, acts *pollActions) {
	gg := &st.guard[g]
	if st.man == nil || gg.state == genVerified {
		return
	}
	natives, err := st.coder.GenData(g)
	if err != nil {
		return
	}
	base := g * st.kPer
	for i, nat := range natives {
		if !st.nativeProvenLocked(base+i, nat) {
			s.quarantineGenLocked(st, g, acts)
			return
		}
	}
	// Verified: the probed contributor, if any, delivered a clean refill,
	// and the blame ledger closes. Vigilant, the natives — in their slots of
	// the object buffer — stay as the audit reference: any further row
	// offered to this generation can now be checked byte-exactly.
	*gg = genGuard{state: genVerified}
	if st.vigilant {
		gg.natives, _ = st.coder.GenData(g)
	}
}

// quarantineGenLocked handles a generation whose decoded natives failed
// digest verification: blame every contributing peer (a solo contributor
// is convicted outright — all rows came from it, and exact linear algebra
// over true rows cannot produce false natives: the manifest is the one the
// ID commits to, so the proof is byte-exact), reset the generation's decode
// state, gate downstream recoding of it, and arm
// the probe that re-fetches it one contributor at a time. st.mu must be
// held.
func (s *Session) quarantineGenLocked(st *objectState, g int, acts *pollActions) {
	gg := &st.guard[g]
	contrib := gg.contrib
	for solo := range contrib {
		// Conviction requires solicitation: an unsolicited solo contributor
		// (a push-back peer recoding a buffer it cannot verify) is not
		// banned.
		if len(contrib) == 1 && st.solicitedPeer(solo) {
			acts.bans = append(acts.bans, solo)
		}
	}
	st.polluted++
	st.vigilant = true
	if st.suspicion == nil {
		st.suspicion = make(map[transport.Addr]int)
	}
	for addr, rows := range contrib {
		st.suspicion[addr] += rows
	}
	st.coder.ResetGen(g)
	st.placeGenLocked(g) // the fresh decoder refills the same slots
	// The generation's log starts over with its decoder, and what was
	// proven of the old natives says nothing about the new ones.
	if st.sysMerged != nil {
		st.sysMerged[g] = 0
	}
	clear(st.proof[g*st.kPer : (g+1)*st.kPer])
	// Probe order: most suspicious contributor first (rows contributed to
	// polluted generations of this object), address as the deterministic
	// tie-break. Re-arm every contributor with a REQ — an upstream that
	// heard our premature generation-complete feedback (or completion)
	// has stopped sending and must resume for the re-fetch.
	cands := make([]transport.Addr, 0, len(contrib))
	for addr := range contrib {
		cands = append(cands, addr)
	}
	slices.SortFunc(cands, func(a, b transport.Addr) int {
		if d := st.suspicion[b] - st.suspicion[a]; d != 0 {
			return d
		}
		return cmpAddr(a, b)
	})
	for _, addr := range cands {
		acts.sends = append(acts.sends, ingestReply{addr, encodeReq(st.id)})
	}
	// Decode state, ledger and audit reference are gone with the reset;
	// recoding the generation downstream is gated until it verifies.
	*gg = genGuard{state: genQuarantined, cands: cands}
	s.advanceProbeLocked(st, g, acts)
	s.logf("session: %v generation %d failed verification: quarantined (%d contributors, probing %s)",
		st.id, g, len(contrib), gg.probe)
}

func cmpAddr(a, b transport.Addr) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// advanceProbeLocked moves a quarantined generation to its next probe
// candidate, or to open mode when the candidate list is exhausted (every
// remaining contributor gets another chance — a fresh pollution will
// re-arm the probe with fresh suspicion). st.mu must be held.
func (s *Session) advanceProbeLocked(st *objectState, g int, acts *pollActions) {
	gg := &st.guard[g]
	if len(gg.cands) == 0 {
		gg.probe = ""
		return
	}
	gg.probe, gg.cands, gg.probeAt = gg.cands[0], gg.cands[1:], s.clk.Now()
	acts.sends = append(acts.sends, ingestReply{gg.probe, encodeReq(st.id)})
}

// auditFailsLocked checks a row offered to an already-verified generation
// against the proven natives: the payload must equal the XOR of the
// natives its code vector selects. Only runs in vigilant mode (pollution
// already seen on the object) — honest peers stop sending completed
// generations when they hear the kind-3 feedback, so the rows that keep
// arriving are exactly the ones worth convicting on. A failed audit is
// byte-exact proof the sender forged the row. st.mu must be held.
func (s *Session) auditFailsLocked(st *objectState, g int, in *inFrame) bool {
	gg := &st.guard[g]
	if !st.vigilant || gg.state != genVerified {
		return false
	}
	nats := gg.natives
	if nats == nil {
		// Verified before vigilant mode began: reconstruct the reference.
		var err error
		if nats, err = st.coder.GenData(g); err != nil {
			return false
		}
		gg.natives = nats
	}
	data := in.f.Data[1:]
	vec := bitvec.New(st.kPer)
	if vec.UnmarshalInto(in.wv.VecBytes(data)) != nil {
		return false
	}
	payload := in.wv.PayloadBytes(data)
	if len(payload) != st.m {
		return false
	}
	expect := make([]byte, st.m)
	for i := vec.NextSet(0); i >= 0 && i < st.kPer; i = vec.NextSet(i + 1) {
		nat := nats[i]
		for j := range expect {
			expect[j] ^= nat[j]
		}
	}
	for j := range expect {
		if expect[j] != payload[j] {
			return true
		}
	}
	return false
}

// handleManifest feeds one MANIFEST frame into the object's reassembly.
// Once the manifest is whole and hashes to the root the object's ID
// commits to, it is adopted: generations already complete are
// retro-verified (settleLocked quarantines any that fail), and the push
// rounds send it on to every peer from the next one (sendManifest). A whole
// manifest that does not hash to the root convicts its sender: an honest
// node sends only a manifest it adopted, or its own.
func (s *Session) handleManifest(from transport.Addr, data []byte) {
	mc, err := packet.ParseManifestChunk(data)
	if err != nil {
		return
	}
	s.mu.Lock()
	st := s.objects[mc.Object]
	if _, b := s.banned[from]; b {
		st = nil
	}
	s.mu.Unlock()
	if st == nil {
		return
	}
	var acts pollActions
	st.mu.Lock()
	adopted, forged := s.manifestChunkLocked(st, from, mc)
	if forged {
		s.logf("session: %v manifest from %s does not hash to the object's root", st.id, from)
		acts.bans = append(acts.bans, from)
	}
	if adopted {
		s.settleLocked(st, -1, &acts)
		st.touch(s.clk.Now())
	}
	st.mu.Unlock()
	s.applyPollActions(&acts)
	if adopted {
		s.wake() // every peer is owed the manifest: the next round starts on it
		s.notifyWatchers(st)
	}
}

// manifestAsm is one sender's copy of a manifest being reassembled from its
// MANIFEST chunks, in any order and any chunking: have marks the bytes in,
// left counts the rest, at is when its last chunk came. Every sender
// assembles its own copy, so a whole one that does not hash to the root is
// byte-exact proof against that sender, and one that never completes holds
// up nobody else's.
type manifestAsm struct {
	at   time.Time
	buf  []byte
	have []uint64
	left int
}

// maxManifestAsms bounds the copies of a manifest an object assembles at
// once from senders it did not solicit; each is a buffer the manifest's
// size. A solicited sender always gets one: the fetch's candidate set
// bounds those.
const maxManifestAsms = 4

// add copies one chunk in at off and reports whether the manifest is whole.
// A byte that came before is overwritten with what its sender says now.
func (a *manifestAsm) add(off int, data []byte) bool {
	copy(a.buf[off:], data)
	for i, end := off, off+len(data); i < end; {
		w, lo := i>>6, i&63
		hi := min(64, end-(i&^63))
		mask := ^uint64(0) >> (64 - (hi - lo)) << lo
		a.left -= bits.OnesCount64(mask &^ a.have[w])
		a.have[w] |= mask
		i = (w + 1) << 6
	}
	return a.left == 0
}

// manifestChunkLocked adds one chunk to its sender's copy of the object's
// manifest and reports whether that completed and adopted the manifest, or
// proved its sender a forger. Only an object whose root is known assembles one — the
// root comes with the size, in a META that verified — and only with the
// geometry to size it by; a caching object does too, so that a cache
// re-serves the manifest its fetchers cannot complete without. Chunks that
// come before the META are dropped: the sender repeats MANIFEST with its
// META resends. st.mu must be held.
func (s *Session) manifestChunkLocked(st *objectState, from transport.Addr, mc packet.ManifestChunk) (adopted, forged bool) {
	total := 8 + int64(st.k)*integrity.DigestSize
	if st.man != nil || st.size.Load() < 0 || (st.phase != phCaching && !st.phase.decoding()) || int64(mc.Total) != total {
		return false, false // have one, no root to check one against, or not this object's size
	}
	now := s.clk.Now()
	a := st.manAsm[from]
	if a == nil {
		if len(st.manAsm) >= maxManifestAsms && !st.solicitedPeer(from) && !st.dropStaleAsmLocked(now.Add(-s.metaResend())) {
			return false, false // every slot held by a sender still sending
		}
		if st.manAsm == nil {
			st.manAsm = make(map[transport.Addr]*manifestAsm)
		}
		a = &manifestAsm{buf: make([]byte, total), have: make([]uint64, (total+63)/64), left: int(total)}
		st.manAsm[from] = a
	}
	a.at = now
	if !a.add(int(mc.Off), mc.Data) {
		return false, false
	}
	delete(st.manAsm, from)
	if integrity.Root(a.buf) != st.root {
		return false, true
	}
	man, err := integrity.UnmarshalManifest(a.buf)
	if err != nil || man.K() != st.k || man.M() != st.m {
		return false, false // what the ID commits to, malformed by whoever made it: nothing to adopt
	}
	st.adoptManifestLocked(man, a.buf)
	return true, false
}

// dropStaleAsmLocked frees the assembly slot whose sender went quiet
// longest ago, if that was no later than cutoff, and reports whether it
// freed one. st.mu must be held.
func (st *objectState) dropStaleAsmLocked(cutoff time.Time) bool {
	var victim transport.Addr
	var va *manifestAsm
	for from, a := range st.manAsm {
		if !a.at.After(cutoff) && (va == nil || a.at.Before(va.at) || a.at.Equal(va.at) && from < victim) {
			victim, va = from, a
		}
	}
	if va != nil {
		delete(st.manAsm, victim)
	}
	return va != nil
}

// probeSweep advances stalled probes: a quarantined generation waiting on
// a probe peer that never answered (dead, banned meanwhile, or slow)
// moves to its next candidate, or back to open refill when the candidate
// list is exhausted. It returns when the earliest probe still unanswered
// times out — the zero time with none out — which is when it must run
// next: every timer round of the push loop, and before the loop parks.
func (s *Session) probeSweep() (next time.Time) {
	s.mu.Lock()
	var objs []*objectState
	for _, st := range s.objects {
		objs = append(objs, st)
	}
	s.mu.Unlock()
	now := s.clk.Now()
	timeout := s.probeTimeout()
	var acts pollActions
	for _, st := range objs {
		st.mu.Lock()
		if st.vigilant && st.phase != phEvicted {
			for g := range st.guard {
				gg := &st.guard[g]
				if gg.probe != "" && now.Sub(gg.probeAt) >= timeout {
					s.advanceProbeLocked(st, g, &acts)
				}
				if at := gg.probeAt.Add(timeout); gg.probe != "" && (next.IsZero() || at.Before(next)) {
					next = at
				}
			}
		}
		st.mu.Unlock()
	}
	s.applyPollActions(&acts)
	return next
}
