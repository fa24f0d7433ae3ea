package session

import (
	"slices"
	"time"

	"ltnc/internal/bitvec"
	"ltnc/internal/integrity"
	"ltnc/internal/packet"
	"ltnc/internal/transport"
)

// The integrity plane (DESIGN.md §13): manifests, per-generation
// verification, quarantine and probes, bans. Detection runs under st.mu
// on the decode path; its consequences collect in pollActions and are
// applied once every lock is dropped.

// pollActions collects the consequences of pollution detection that must
// run after the decode-plane lock is released: session-wide bans (they
// take Session.mu) and REQ frames that re-arm upstream senders for a
// quarantined generation's re-fetch (sends must not run under any lock).
type pollActions struct {
	bans   []transport.Addr
	unbans []transport.Addr
	sends  []ingestReply
}

// apply executes the collected actions. Call with no locks held. Unbans
// run before bans so a peer appearing in both (a forged-manifest sender
// that also solo-failed a refill) ends up banned.
func (s *Session) applyPollActions(acts *pollActions) {
	if acts == nil || (len(acts.bans) == 0 && len(acts.unbans) == 0 && len(acts.sends) == 0) {
		return
	}
	s.unbanPeers(acts.unbans)
	s.banPeers(acts.bans)
	for _, r := range acts.sends {
		s.tr.Send(r.addr, r.frame)
	}
	if len(acts.sends) > 0 {
		s.wake() // a probe went out: a parked push loop must time it
	}
	acts.bans = acts.bans[:0]
	acts.unbans = acts.unbans[:0]
	acts.sends = acts.sends[:0]
}

// unbanPeers lifts bans attributed to a manifest later proven forged:
// the "byte-exact proof" against those peers was exact only relative to
// digests that turned out to be lies. An unbanned peer must re-REQ to
// resubscribe; nothing else is restored.
func (s *Session) unbanPeers(addrs []transport.Addr) {
	if len(addrs) == 0 {
		return
	}
	s.mu.Lock()
	for _, addr := range addrs {
		if _, ok := s.banned[addr]; ok {
			delete(s.banned, addr)
			s.logf("session: unbanned %s: the manifest that blamed it was forged", addr)
		}
	}
	s.mu.Unlock()
}

// banPeers convicts peers of pollution: every future frame from them is
// dropped at resolution, they leave the configured push set and every
// object's peer and advertisement tables, and Fetch stops asking them.
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
			delete(st.cacheAds, addr)
		}
		s.logf("session: banned %s: contributed rows failed integrity verification", addr)
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

// vouchLocked marks every generation verified: the content is local, or
// assembled and content-ID-proven and the manifest agrees with it. Like
// any verified generation, each moves into the object buffer where there
// is one, which finds it in place: an assembled object's generations moved
// there at assembly, and a source's natives are views of the content that
// is its buffer. st.mu must be held.
func (st *objectState) vouchLocked() {
	for g := range st.guard {
		st.guard[g].state = genVerified
		if st.buf != nil {
			st.moveGenLocked(g)
		}
	}
}

// probeTimeout is how long a quarantined generation waits on its probe
// peer before moving to the next candidate — probe peers can be dead,
// banned meanwhile, or simply slow.
func (s *Session) probeTimeout() time.Duration {
	return max(100*s.cfg.Tick, 250*time.Millisecond)
}

// adoptManifestLocked installs a validated manifest on st: parsed form
// for verification, raw form and pre-built frames for re-serving
// downstream. st.mu must be held.
func (s *Session) adoptManifestLocked(st *objectState, man *integrity.Manifest, raw []byte, from transport.Addr) {
	st.man = man
	st.manRaw = raw
	st.manFrames = manifestFrames(st.id, raw)
	st.manFrom = from
	st.manBuf, st.manNext = nil, 0
}

// dropManifestLocked discards a manifest proven worthless (forged, or
// inconsistent with the object's geometry); every bit of verification
// state built on its word is void — every generation is open again,
// the recode gate on quarantined ones included. st.mu must be held.
func (st *objectState) dropManifestLocked() {
	st.man, st.manRaw, st.manFrames, st.manFrom = nil, nil, nil, ""
	st.manBuf, st.manNext = nil, 0
	for g := range st.guard {
		st.guard[g].state, st.guard[g].natives = genOpen, nil
	}
	clear(st.proof) // proofs made on a forged manifest's word are void
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
// manifest. true means "proceed as complete" (verified, or no manifest
// to check against yet — a late manifest retro-verifies); false means
// the generation failed and was quarantined into acts. st.mu must be
// held and the coder complete for g.
func (s *Session) verifyGenLocked(st *objectState, g int, acts *pollActions) bool {
	gg := &st.guard[g]
	if st.man == nil {
		// Nothing to verify against — but a completed refill still ends
		// this generation's probe isolation (the probe was armed by a
		// content-ID quarantine, which completion re-checks).
		gg.probe, gg.cands = "", nil
		return true
	}
	if gg.state == genVerified {
		return true
	}
	if st.man.K() != st.k || st.man.M() != st.m {
		// A manifest inconsistent with the object's actual geometry can
		// vouch for nothing: discard it and proceed unverified.
		st.dropManifestLocked()
		return true
	}
	natives, err := st.coder.GenData(g)
	if err != nil {
		return true
	}
	base := g * st.kPer
	for i, nat := range natives {
		if !st.nativeProvenLocked(base+i, nat) {
			// Not quarantined means the manifest, not the data, was the
			// forgery: the generation stands, unverified, and the
			// content-ID check at completion remains the backstop.
			return !s.quarantineGenLocked(st, g, true, acts)
		}
	}
	// Verified: the probed contributor, if any, delivered a clean refill,
	// and the blame ledger closes. The natives move into the object buffer
	// (allocated here for the first verified generation: a peer has had to
	// deliver an adopted manifest and a generation that matches it first),
	// and vigilant, the moved natives stay as the audit reference: any
	// further row offered to this generation can now be checked
	// byte-exactly.
	*gg = genGuard{state: genVerified, soloFailed: gg.soloFailed}
	st.moveGenLocked(g)
	if st.vigilant {
		gg.natives, _ = st.coder.GenData(g)
	}
	return true
}

// quarantineGenLocked handles a generation whose decoded natives failed
// digest verification: blame every contributing peer (a solo contributor
// is convicted outright — all rows came from it, and exact linear algebra
// over true rows cannot produce false natives), reset the generation's
// decode state, drop its cached coverage, gate downstream recoding of it,
// and arm the probe that re-fetches it one contributor at a time. It
// reports whether the generation was actually quarantined: when a SECOND
// distinct peer solo-fails the same generation the manifest itself is
// proven forged instead (independent senders cannot both be forging) —
// it is dropped, its sender banned, its victims unbanned, and the
// generation stands.
//
// convict enables the solo-contributor ban. It is set only when the
// failure is a manifest digest mismatch — localized, byte-exact evidence
// against exactly the rows this peer sent. The content-ID backstop
// (poisonedObjectLocked) quarantines with convict=false: its mismatch is
// global, so blame over any single generation's contributor would be
// guesswork. st.mu must be held.
func (s *Session) quarantineGenLocked(st *objectState, g int, convict bool, acts *pollActions) bool {
	gg := &st.guard[g]
	contrib := gg.contrib
	if convict && len(contrib) == 1 {
		var solo transport.Addr
		for addr := range contrib {
			solo = addr
		}
		// Conviction requires solicitation: an unsolicited solo
		// contributor (a push-back peer recoding a buffer it cannot
		// verify) is neither banned nor counted toward the forged-
		// manifest proof — an honest launderer solo-failing would
		// otherwise fake the "two independent forgers" signal.
		if st.solicitedPeer(solo) {
			if !slices.Contains(gg.soloFailed, solo) {
				if len(gg.soloFailed) > 0 {
					s.manifestForgedLocked(st, acts)
					return false
				}
				gg.soloFailed = append(gg.soloFailed, solo)
			}
			st.manBans = append(st.manBans, solo)
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
	// The generation's log starts over with its decoder, and what was
	// proven of the old natives says nothing about the new ones.
	if st.sysMerged != nil {
		st.sysMerged[g] = 0
	}
	clear(st.proof[g*st.kPer : (g+1)*st.kPer])
	if s.cache != nil {
		// A promoted cache object may still hold rows for this generation;
		// quarantined coverage must never be re-served (cache is a leaf in
		// the lock order).
		s.cache.DropGen(st.id, uint32(g))
	}
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
	*gg = genGuard{state: genQuarantined, cands: cands, soloFailed: gg.soloFailed}
	s.advanceProbeLocked(st, g, acts)
	s.logf("session: %v generation %d failed verification: quarantined (%d contributors, probing %s)",
		st.id, g, len(contrib), gg.probe)
	return true
}

// manifestForgedLocked reacts to byte-exact proof that the adopted
// manifest lies (two distinct peers solo-failed one generation, or the
// assembled content contradicted the ID with every generation verified):
// ban the manifest's sender, lift the bans issued on its word, drop it
// and every probe armed by it. st.mu must be held.
func (s *Session) manifestForgedLocked(st *objectState, acts *pollActions) {
	s.logf("session: %v manifest from %s proven forged: dropping it and lifting the bans it caused",
		st.id, st.manFrom)
	if st.manFrom != "" {
		acts.bans = append(acts.bans, st.manFrom)
	}
	acts.unbans = append(acts.unbans, st.manBans...)
	st.manBans = nil
	st.dropManifestLocked()
	for g := range st.guard {
		st.guard[g] = genGuard{contrib: st.guard[g].contrib}
	}
	st.polluted++
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

// poisonedObjectLocked handles a completed object whose assembled bytes
// do not re-derive its content ID. With a manifest that vouched for every
// generation the manifest itself is the forgery — drop it, blame its
// sender, quarantine everything; otherwise quarantine every unverified
// generation and re-fetch. st.mu must be held.
func (s *Session) poisonedObjectLocked(st *objectState, acts *pollActions) {
	st.vigilant = true
	open := func(gg genGuard) bool { return gg.state != genVerified }
	if st.man != nil && !slices.ContainsFunc(st.guard, open) {
		s.logf("session: %v assembled bytes contradict the content ID with every generation verified",
			st.id)
		s.manifestForgedLocked(st, acts)
	}
	st.polluted++
	for g := range st.guard {
		if open(st.guard[g]) {
			s.quarantineGenLocked(st, g, false, acts)
		}
	}
}

// handleManifest feeds one MANIFEST frame into the object's in-order
// chunk reassembly and adopts the manifest once complete: generations
// already complete are retro-verified (settleLocked quarantines any that
// fail). First manifest wins — replacing an adopted manifest would let an
// attacker un-verify clean state — until it is dropped as forged or
// inconsistent.
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
	adopted := s.manifestChunkLocked(st, from, mc)
	if adopted {
		s.settleLocked(st, -1, &acts)
		st.touch(s.clk.Now())
	}
	frames := st.manFrames
	st.mu.Unlock()
	s.applyPollActions(&acts)
	if !adopted {
		return
	}
	// Forward the freshly adopted manifest to current REQ subscribers at
	// once: they are mid-fetch and defenseless until they hold it — every
	// tick of delay is a window for a polluter to poison their decoders
	// (and for their recoded push-back to spread the poison further). META
	// goes first: a subscriber that REQ'd before this node was sized has no
	// coder yet, and coderless receivers drop MANIFEST frames. Adoption is
	// once per object, so this cannot storm.
	s.mu.Lock()
	var subs []transport.Addr
	for addr, ps := range st.peers {
		if _, b := s.banned[addr]; !b && ps.reqSub && !ps.done {
			subs = append(subs, addr)
		}
	}
	s.mu.Unlock()
	slices.SortFunc(subs, cmpAddr) // not in map order: what a session sends is a function of its seed
	var metaBuf []byte
	if st.size.Load() >= 0 {
		metaBuf = s.metaFrame(st)
	}
	for _, addr := range subs {
		if metaBuf != nil {
			s.tr.Send(addr, metaBuf)
		}
		for _, mf := range frames {
			s.tr.Send(addr, mf)
		}
	}
	s.notifyWatchers(st)
}

// manifestChunkLocked appends one chunk to the object's manifest assembly
// and reports whether that completed and adopted it. Only an object with a
// coder assembles one: a cache holds undecodable rows (nothing to verify),
// an announced object has no geometry to check a manifest against — the
// sender repeats MANIFEST with its META resends, so dropping is safe.
// st.mu must be held.
func (s *Session) manifestChunkLocked(st *objectState, from transport.Addr, mc packet.ManifestChunk) bool {
	if !st.phase.decoding() || st.man != nil || int64(mc.Total) != int64(8+st.k*integrity.DigestSize) {
		return false // no use for one, have one, or wrong size for this object's k
	}
	if mc.Off == 0 {
		st.manBuf, st.manNext = st.manBuf[:0], 0 // (re)start assembly
	}
	if int(mc.Off) != st.manNext {
		return false // out-of-order chunk: wait for a restart
	}
	if st.manBuf == nil {
		st.manBuf = make([]byte, 0, mc.Total)
	}
	st.manBuf = append(st.manBuf, mc.Data...)
	if st.manNext += len(mc.Data); st.manNext != int(mc.Total) {
		return false
	}
	raw := st.manBuf
	st.manBuf, st.manNext = nil, 0
	man, err := integrity.UnmarshalManifest(raw)
	if err != nil || man.K() != st.k || man.M() != st.m {
		return false
	}
	if st.phase == phComplete {
		// Already assembled and content-ID-proven: the decoded natives
		// outrank any manifest. One that disagrees with them is rejected
		// outright; one that agrees is adopted fully verified (for
		// re-serving and audits).
		if natives, err := st.coder.Data(); err != nil || man.VerifyAll(natives) != nil {
			return false
		}
		st.vouchLocked()
	}
	s.adoptManifestLocked(st, man, raw, from)
	return true
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
