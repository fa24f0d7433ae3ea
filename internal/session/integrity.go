package session

import (
	"errors"
	"maps"
	"slices"

	"ltnc/internal/bitvec"
	"ltnc/internal/integrity"
	"ltnc/internal/packet"
	"ltnc/internal/transport"
)

// The integrity plane (DESIGN.md §13): manifests, per-generation
// verification, quarantine and decode-provenance blame, bans. An object's
// ID commits to its geometry and its manifest's Merkle root
// (integrity.ObjectID): each MANIFEST frame carries that description and is
// checked on arrival, alone, and every native against its run of the
// manifest, so nothing here hashes a whole object.
// Detection runs under st.mu on the decode path; its consequences collect
// in pollActions and are applied once every lock is dropped.

// pollActions collects the consequences of pollution detection that must
// run after the decode-plane lock is released: session-wide bans (they
// take Session.mu) and the reports that re-arm upstream senders for a
// quarantined generation's re-fetch (sends must not run under any lock).
type pollActions struct {
	bans  []transport.Addr
	sends []ingestReply
}

// ingestReply is a report built under its object's lock, to be sent once
// every lock is dropped.
type ingestReply struct {
	addr  transport.Addr
	frame []byte
}

// apply executes the collected actions: the bans first, then every send
// but those to a banned peer. Call with no locks held.
func (s *Session) applyPollActions(acts *pollActions) {
	if acts == nil || (len(acts.bans) == 0 && len(acts.sends) == 0) {
		return
	}
	s.banPeers(acts.bans)
	s.mu.Lock()
	sends := slices.DeleteFunc(acts.sends, func(r ingestReply) bool { _, b := s.banned[r.addr]; return b })
	s.mu.Unlock()
	for _, r := range sends {
		s.tr.Send(r.addr, r.frame)
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

// soliciteLocked records addrs as the object's chosen upstreams (see the
// solicited field). st.mu must be held.
func (st *objectState) soliciteLocked(addrs ...transport.Addr) {
	if st.solicited == nil {
		st.solicited = make(map[transport.Addr]struct{}, len(addrs))
	}
	for _, a := range addrs {
		st.solicited[a] = struct{}{}
	}
}

// vouchLocked marks every generation verified: the content is local, and
// a source's natives are views of it. st.mu must be held.
func (st *objectState) vouchLocked() {
	for g := range st.guard {
		st.guard[g].state = genVerified
	}
}

// genHeldLocked reports whether every run holding a digest of generation
// g's natives is in hand: whether g can be verified, and so whether it is
// gated until it is (gatedLocked). st.mu must be held.
func (st *objectState) genHeldLocked(g int) bool {
	for x, end := g*st.kPer, (g+1)*st.kPer; x < end; x += integrity.RunLen - x%integrity.RunLen {
		if !st.man.Holds(x) {
			return false
		}
	}
	return true
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
// generation's bits. st.mu must be held and x's run in hand.
func (st *objectState) nativeProvenLocked(x int, pay []byte) bool {
	if st.proof[x] == 0 {
		st.proof[x] = proofGood
		if st.man.Verify(x, pay) != nil {
			st.proof[x] = proofBad
		}
	}
	return st.proof[x] == proofGood
}

// verifyGenLocked runs the freshly completed generation g through the
// manifest once its runs are in: it verifies, or fails and is quarantined
// into acts. Until then it stays open (settleLocked retro-verifies as runs
// arrive). Checked in decode order, the first native that fails is the
// verdict and names its forger (generation.Coder.Source). st.mu must be
// held and the coder complete for g.
func (s *Session) verifyGenLocked(st *objectState, g int, acts *pollActions) {
	gg := &st.guard[g]
	if gg.state == genVerified || !st.genHeldLocked(g) {
		return
	}
	natives, err := st.coder.GenData(g)
	if err != nil {
		return
	}
	base := g * st.kPer
	for _, x := range st.coder.DecodeLog(g) {
		if !st.nativeProvenLocked(base+int(x), natives[x]) {
			s.quarantineGenLocked(st, g, st.coder.Source(g, int(x)), acts)
			return
		}
	}
	// Verified. Vigilant, the natives — the decoder's own, in their slots of
	// the object buffer once it is placed — stay as the audit reference: any
	// further row offered to this generation can now be checked byte-exactly.
	*gg = genGuard{state: genVerified}
	if st.vigilant {
		gg.natives = natives
	}
}

// quarantineGenLocked handles a generation whose decoded natives failed
// digest verification, the first of them released by a row from the sender
// tagged src (−1: untagged). Every native decoded before it was true, so
// that row was false as it arrived: byte-exact proof, and its sender is
// banned, whoever it is: no decoder-backed node emits a row it has not
// proven (DESIGN.md §13 names the cache exception). The decode state is
// reset, downstream recoding gated, and every other upstream re-armed with
// a report about g: one that heard the premature generation-complete flag
// has stopped sending g, and g's frontier, carried now that g is open
// again, clears that mark. st.mu must be held.
func (s *Session) quarantineGenLocked(st *objectState, g int, src int32, acts *pollActions) {
	gg := &st.guard[g]
	var forger transport.Addr
	if src >= 0 {
		forger = st.senders[src]
		acts.bans = append(acts.bans, forger)
	}
	st.polluted++
	st.vigilant = true
	st.coder.ResetGen(g)
	st.placeGenLocked(g) // the fresh decoder refills the same slots
	// The generation's log starts over with its decoder, and what was
	// proven of the old natives says nothing about the new ones.
	if st.sysMerged != nil {
		st.sysMerged[g] = 0
	}
	clear(st.proof[g*st.kPer : (g+1)*st.kPer])
	// The audit reference goes with the reset.
	gg.state, gg.natives = genQuarantined, nil
	for _, addr := range slices.Sorted(maps.Keys(st.rx)) {
		if addr != forger {
			acts.sends = append(acts.sends, ingestReply{addr, st.reportLocked(addr, uint32(g), 0)})
		}
	}
	s.logf("session: %v generation %d failed verification: quarantined, first false native from %q", st.id, g, forger)
}

// auditFailsLocked checks a row offered to an already-verified generation
// against the proven natives: the payload must equal the XOR of the
// natives its code vector selects. Only runs in vigilant mode (pollution
// already seen on the object) — honest peers stop sending completed
// generations when a report flags them complete, so the rows that keep
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

// handleManifest checks one MANIFEST frame alone. Its description must
// hash to the object's ID, or the frame is dropped: nobody is banned for a
// frame that names another object. Any such frame is enough on its own: it
// admits the object, if it may be, and a DATA header that shaped the
// object otherwise was a forgery and is undone (reshapeLocked); it gives
// an object not rooted yet its size and root; then its run is hashed up to
// the root (manifestRunLocked). An adopted run retro-verifies the complete
// generations it covers (settleLocked), the last one commits the object's
// buffer (commitBufLocked), and the push rounds send it on to every peer
// (takeProof). A run that does not hash to the root convicts its sender:
// an honest node forwards only runs it adopted, or its own. Anyone else
// is answered with whatever the frame completed (settleLocked): a run to
// an object already complete — or, at a cache, fully covered — means the
// sender never heard so, or the peer table entry that heard it was
// dropped; the idempotent complete report (the sender's tally here, or
// zeros) closes the loop, exactly as the DATA path answers a row of a
// complete object.
func (s *Session) handleManifest(from transport.Addr, data []byte) []byte {
	mr, err := packet.ParseManifestChunk(data)
	if err != nil || integrity.ObjectID(mr.Size, int(mr.K), int(mr.Gens), int(mr.M), mr.Root) != mr.Object {
		return nil
	}
	geo := geometry{gens: int(mr.Gens), kPer: int(mr.K / mr.Gens), m: int(mr.M)}
	s.mu.Lock()
	st := s.admitLocked(mr.Object, from, geo, false)
	if st != nil {
		s.reshapeLocked(st, geo)
	}
	s.mu.Unlock()
	if st == nil {
		return nil
	}
	st.mu.Lock()
	if st.phase == phEvicted || !st.shapeIs(geo) {
		st.mu.Unlock()
		return nil // evicted since, or not the object's geometry (still announced: it has none): drop
	}
	st.touch(s.clk.Now())
	learned := st.size.Load() < 0
	if learned {
		st.root = mr.Root // before the size: a known size says the root is set
		st.size.Store(mr.Size)
	}
	adopted, forged := st.manifestRunLocked(mr, data)
	if adopted {
		s.commitBufLocked(st)
	}
	var acts pollActions
	var reply []byte
	if forged {
		s.logf("session: %v manifest run %d from %s does not hash to the object's root", st.id, mr.Run, from)
		acts.bans = append(acts.bans, from)
	} else if owed := s.settleLocked(st, -1, &acts); owed != 0 {
		reply = st.reportLocked(from, 0, owed)
	}
	st.mu.Unlock()
	s.applyPollActions(&acts)
	if learned || adopted {
		s.wake() // every peer is owed the run: the next round starts on it
		s.notifyWatchers(st)
	}
	return reply
}

// manifestRunLocked checks one manifest run, body its MANIFEST frame's, at
// a rooted object, and reports whether it was adopted or proved its sender
// a forger. A caching object takes one too, to re-serve it. A run out of
// bounds is dropped, a held one dropped unhashed, any other hashed up to
// the root: adopted, its frame kept, or proof against its one sender.
// st.mu must be held.
func (st *objectState) manifestRunLocked(mr packet.ManifestChunk, body []byte) (adopted, forged bool) {
	if st.phase != phCaching && !st.phase.decoding() {
		return false, false
	}
	if st.man == nil {
		if st.man, _ = integrity.Expect(st.k, st.m, st.root); st.man == nil {
			return false, false
		}
		st.manFrames = make([][]byte, st.man.Runs())
	}
	r := int(mr.Run)
	if st.man.HoldsRun(r) {
		return false, false
	}
	switch err := st.man.AdoptRun(r, mr.Digests, mr.Proof); {
	case errors.Is(err, integrity.ErrCorrupt):
		return false, true
	case err != nil:
		return false, false // a proof not as deep as the run's index implies
	}
	// Replaced wholesale, never written in place: a push round sends the
	// frames it snapshotted with no lock held.
	frames := slices.Clone(st.manFrames)
	frames[r] = append([]byte{packet.FrameManifest}, body...)
	st.manFrames = frames
	return true, false
}
