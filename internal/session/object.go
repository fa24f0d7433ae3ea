package session

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"ltnc/internal/bitvec"
	"ltnc/internal/generation"
	"ltnc/internal/integrity"
	"ltnc/internal/packet"
	"ltnc/internal/transport"
)

// The object lifecycle. Every object a session knows is in exactly one
// phase, and the functions of this file are the only code that creates an
// objectState, assigns its phase, coder, buffer or data, or closes done:
// admitLocked (outside input or a local call creates or sizes state),
// seedLocked (Serve), promoteLocked (a fetch at a cache), placeLocked (a
// manifest adopted), settleLocked (whatever may have completed something)
// and evictLocked. Every other file asks the phase.
// DESIGN.md §4 has the phase × event table.
//
//	announced ─┬─► caching ──(fetched here)──┐
//	           └─► filling ◄─────────────────┘
//	               filling ◄─(quarantine)─► decoded ─► complete
//	any ─► evicted;  announced | caching ─(Serve)─► complete
type phase uint8

const (
	// phAnnounced: the id and nothing else — a Watch, a BeginFetch, or a REQ
	// a relay heard before the object's first frame. The first admissible
	// geometry (DATA header or META) makes it filling: somebody here asked.
	phAnnounced phase = iota
	// phCaching: geometry fixed, rows held undecoded in Session.cache, no
	// coder (cache-mode sessions, objects learned from the network only).
	phCaching
	// phFilling: the coder exists and lacks rank, or holds a generation that
	// has yet to be accepted.
	phFilling
	// phDecoded: every generation decoded, not every one verified — the
	// manifest has not arrived to check them against.
	phDecoded
	// phComplete: every generation verified against the manifest the ID
	// commits to, the content assembled, done closed. Serve enters here.
	phComplete
	// phEvicted: out of Session.objects; a worker still holding the pointer
	// drops what it has for it.
	phEvicted
)

var phaseNames = [...]string{"announced", "caching", "filling", "decoded", "complete", "evicted"}

func (p phase) String() string { return phaseNames[p] }

// decoding reports whether an object in phase p has a coder.
func (p phase) decoding() bool { return p == phFilling || p == phDecoded || p == phComplete }

// geometry is an object's shape as a DATA header or a META states it; the
// zero value is "none stated" (a REQ, Watch, BeginFetch).
type geometry struct{ gens, kPer, m int }

// admissible is the bound on geometry a session gives state to: a sane
// generation split, gens·kPer ≤ maxK without the multiplication (both come
// off the wire, and the product overflows int on 32-bit builds), and DATA
// frames that fit a transport frame — the bound Serve applies to local
// content, so that no stream is ever sized by a header none could carry.
func (g geometry) admissible(maxK int) bool {
	return g.gens >= 1 && g.gens <= packet.MaxGenerations && g.kPer >= 1 && g.kPer <= maxK/g.gens &&
		g.m >= 0 && g.m <= transport.MaxFrame && g.wireSize() <= transport.MaxFrame
}

// wireSize is the session frame length of one DATA row of this geometry.
func (g geometry) wireSize() int {
	if g.gens > 1 {
		return 1 + packet.GenWireSize(g.kPer, g.m)
	}
	return 1 + packet.ObjectWireSize(g.kPer, g.m)
}

// Generation guard states (DESIGN.md §13).
const (
	genOpen        uint8 = iota // not checked against a manifest (yet)
	genVerified                 // decoded natives matched their digests
	genQuarantined              // failed verification, reset, refilling; nothing of it leaves
)

// genGuard is one generation's pollution-defense state (guarded by mu).
type genGuard struct {
	state uint8
	// contrib — rows each peer contributed since the last reset, the blame
	// ledger a failed verification settles; probe / probeAt / cands — the
	// one-contributor-at-a-time refill of a quarantined generation ("" =
	// open to all); natives — the verified natives, kept (vigilant mode) as
	// the reference for byte-exact row audits.
	contrib map[transport.Addr]int
	probe   transport.Addr
	probeAt time.Time
	cands   []transport.Addr
	natives [][]byte
}

// objectState splits into two lock domains. The decode plane — phase,
// coder, dimensions, assembled content, ingest counters — is guarded by the
// per-object mu, so shard workers decoding different objects never
// contend. The control plane — peers, pinning, waiter count, push
// counter — is guarded by Session.mu. size, gens and lastActive are
// atomics readable from either side. Lock order: Session.mu before
// objectState.mu, never the reverse.
type objectState struct {
	id packet.ObjectID

	mu    sync.Mutex
	phase phase
	k, m  int // total code length and payload size
	kPer  int // per-generation code length (k / gens)
	coder *generation.Coder
	// buf is the object buffer, k·m bytes, native x of generation g in slot
	// g·kPer + x, and data is its head once complete (DESIGN.md §4, "One
	// copy per object"). A filling or decoded object has one exactly while
	// it holds an adopted manifest (placeLocked): the natives decoded before
	// the manifest move into their slots at adoption, and every native
	// decoded after it is written into its slot as it peels. A source's is
	// its content, when that is exactly k·m bytes.
	buf      []byte
	data     []byte        // assembled content (phComplete): buf's head, or a source's content
	done     chan struct{} // closed on entering phComplete
	received int64
	aborted  int64

	// Pollution defense (decode plane, guarded by mu; DESIGN.md §13).
	// root is the manifest root the ID commits to, with the geometry and
	// the size (integrity.ObjectID), as a META that verified or Serve gave
	// it: written once, before size, and read only once size is known, so
	// size ≥ 0 says the object is rooted. man/manFrames hold the adopted
	// manifest (parsed, and pre-built MANIFEST frames for re-serving);
	// manAsm holds the copies being reassembled before adoption, one per
	// sender.
	root      [integrity.DigestSize]byte
	man       *integrity.Manifest
	manFrames [][]byte
	manAsm    map[transport.Addr]*manifestAsm
	// guard[g] is generation g's verification state, proof[x] the kept
	// verdict of checking decoded native x against its digest, so it can cut
	// through ahead of its generation and is hashed once (nativeProvenLocked);
	// both sized with the coder. suspicion — rows each peer contributed to
	// polluted generations of this object.
	guard     []genGuard
	proof     []uint8
	suspicion map[transport.Addr]int
	polluted  int64 // pollution events (quarantines)
	vigilant  bool  // pollution seen: audit rows offered to verified generations
	// sysLog is the object's decode-order log — global native indices as
	// they were decoded here, what the systematic pass walks — merged from
	// the coder's per-generation logs, sysMerged[g] entries of g's so far.
	sysLog    []int32
	sysMerged []int
	// rx tracks, per upstream peer, the rows this session accepted from it
	// for this object (feeds receipt reports, kinds 5 and 6).
	// Decode plane: ingest mutates it under mu. Bounded like the peer
	// table (maxPeersPerObject).
	rx map[transport.Addr]*rxTally
	// solicited holds the peers this session explicitly chose as upstreams
	// for the object (the Fetch candidate set). Conviction requires
	// solicitation: only solicited peers can be banned over this object's
	// rows. An unsolicited peer pushing rows at us may be an honest node
	// recoding a buffer it cannot yet verify (it holds no manifest), so its
	// forgeries-by-proxy are dropped or quarantined away — blame for them
	// belongs to whoever poisoned it, and that node's own defense settles
	// it. A polluter, by contrast, only ever lands rows on its victims
	// because they subscribed to it, so every polluter is solicited by
	// every victim and conviction is unimpeded.
	solicited map[transport.Addr]struct{}

	size       atomic.Int64 // -1 until a META that verified (or Serve) provides it, with root
	gens       atomic.Int32 // generation count G; 0 while announced
	lastActive atomic.Int64 // unix nanos

	// Guarded by Session.mu.
	pinned  bool
	waiters int // Fetch calls currently blocked on this object
	sent    int64
	// systematic counts DATA frames pushed as degree-1 native rows in the
	// systematic first pass, repeated those pushed again against a peer's
	// frontier.
	systematic int64
	repeated   int64
	peers      map[transport.Addr]*peerState
	watchers   map[int]func(ObjectStats) // progress subscriptions (Watch)

	// notifyMu serializes watcher deliveries for this object: it is held
	// across snapshot AND callback invocation, so snapshots reach each
	// watcher in monotone order (a Complete snapshot is never followed by
	// an older incomplete one). Lock order: notifyMu before Session.mu
	// before objectState.mu; never acquire it while holding either.
	notifyMu sync.Mutex
}

func (st *objectState) touch(now time.Time) { st.lastActive.Store(now.UnixNano()) }

func (st *objectState) peer(addr transport.Addr) *peerState {
	ps, ok := st.peers[addr]
	if !ok {
		ps = &peerState{}
		st.peers[addr] = ps
	}
	return ps
}

// shaped reports whether the object's geometry is fixed — it has left
// phAnnounced. Geometry never changes once fixed (short of a local Serve),
// so this needs no lock.
func (st *objectState) shaped() bool { return st.gens.Load() != 0 }

// shapeIs reports whether a frame's geometry is the object's; st.mu must be
// held. A frame that disagrees is dropped, whatever the phase.
func (st *objectState) shapeIs(geo geometry) bool {
	return geo.kPer == st.kPer && geo.m == st.m && geo.gens == int(st.gens.Load())
}

// admitLocked is the one place anything may create an object's state or
// fix its geometry: outside input (a DATA header, a META, a REQ — from is
// its sender, geo what it states) and the local calls (Serve, BeginFetch,
// Watch: local, no geometry). It returns the object's state, nil when the
// input is to be dropped. A state whose geometry is already fixed comes
// back as it is — the caller compares shapes under st.mu. Otherwise:
// nothing from a banned peer; geometry within bounds (admissible); an
// announced object takes the first such geometry and starts filling,
// whatever the session's role — it is announced because somebody here asked
// for it; an unknown object gets state only under MaxObjects, caching on a
// cache-mode session and filling on a relay when geometry came with it,
// announced on a relay that heard a REQ, nothing elsewhere; a local call
// always gets (announced) state. s.mu must be held.
func (s *Session) admitLocked(id packet.ObjectID, from transport.Addr, geo geometry, local bool) *objectState {
	if _, b := s.banned[from]; b {
		return nil
	}
	st, sized := s.objects[id], geo != geometry{}
	if st != nil && (!sized || st.shaped()) {
		return st
	}
	if sized && !geo.admissible(s.cfg.MaxK) {
		return nil
	}
	to := phAnnounced
	switch {
	case st != nil: // announced, and the first geometry is here
		to = phFilling
	case local:
	case len(s.objects) >= s.cfg.MaxObjects:
		return nil
	case s.cfg.Relay:
		if sized {
			to = phFilling
		}
	case s.cache != nil && sized:
		to = phCaching
	default:
		return nil
	}
	var coder *generation.Coder
	if to == phFilling {
		var err error
		if coder, err = s.newCoder(geo); err != nil {
			return nil
		}
	}
	if st == nil {
		st = &objectState{id: id, done: make(chan struct{}), peers: make(map[transport.Addr]*peerState)}
		st.size.Store(-1)
		st.touch(s.clk.Now())
		s.objects[id] = st
	}
	if to != phAnnounced {
		st.mu.Lock()
		st.shapeLocked(to, geo, coder)
		st.mu.Unlock()
		s.logf("session: %v %v from %s (k=%d G=%d m=%d)", to, id, from, st.k, geo.gens, geo.m)
	}
	return st
}

// shapeLocked fixes the object's geometry and, with a coder, arms its
// per-generation guards; st.mu must be held.
func (st *objectState) shapeLocked(to phase, geo geometry, coder *generation.Coder) {
	st.phase, st.coder = to, coder
	st.k, st.kPer, st.m = geo.gens*geo.kPer, geo.kPer, geo.m
	st.gens.Store(int32(geo.gens))
	if coder != nil {
		st.guard, st.proof = make([]genGuard, geo.gens), make([]uint8, st.k)
	}
}

// reshapeLocked is a META that verified meeting an object a DATA header
// shaped otherwise: caching stays caching, filling | decoded → filling, at
// the META's geometry, which is the one the ID commits to. The header was
// a forgery, and what was built on it goes — the cache entry, or the coder
// with its guards, proofs and decode log — and every peer's systematic
// pass starts over. With no root yet there was no manifest, so nothing had
// verified. DATA may shape an object before its META arrives because
// waiting for the META would cost a resend whenever one is lost. s.mu must
// be held.
func (s *Session) reshapeLocked(st *objectState, geo geometry) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.size.Load() >= 0 || !st.shaped() || st.shapeIs(geo) {
		return
	}
	var coder *generation.Coder
	switch st.phase {
	case phCaching:
		s.cache.Drop(st.id)
	case phFilling, phDecoded:
		var err error
		if coder, err = s.newCoder(geo); err != nil {
			return
		}
	default:
		return
	}
	s.logf("session: %v reshaped from k/G=%d G=%d m=%d to the META's k/G=%d G=%d m=%d",
		st.id, st.kPer, st.gens.Load(), st.m, geo.kPer, geo.gens, geo.m)
	to := phCaching
	if coder != nil {
		to = phFilling
	}
	st.shapeLocked(to, geo, coder)
	st.sysLog, st.sysMerged, st.manAsm, st.received = nil, nil, nil, 0
	for _, ps := range st.peers {
		ps.sysCursor = 0
		ps.forgetProgressLocked()
	}
}

// seedLocked is Serve's transition, announced | caching → complete: local
// content outranks whatever was cached of it — the cache entry is dropped
// and pushes come from the seeded coder, whose natives are views of
// content (lt.SplitAliased). The content is the object's data as it is,
// and its buffer too when it is exactly k·m bytes, every native already in
// its slot. Every generation is verified: the content is local, and the
// manifest derived from it is adopted. s.mu and st.mu must be held.
func (s *Session) seedLocked(st *objectState, src *served, coder *generation.Coder, content []byte) error {
	if st.phase != phAnnounced && st.phase != phCaching {
		return fmt.Errorf("session: object %v already present", st.id)
	}
	if st.phase == phCaching {
		s.cache.Drop(st.id)
	}
	st.shapeLocked(phComplete, src.geo, coder)
	st.root = src.root
	st.size.Store(int64(len(content)))
	st.data = content[:len(content):len(content)]
	if len(content) == st.k*st.m {
		st.buf = st.data
	}
	st.adoptManifestLocked(src.man, src.raw)
	st.vouchLocked()
	close(st.done)
	st.pinned = true
	return nil
}

// promoteLocked is a fetch arriving at a cache-mode object, caching →
// filling: the cached rows seed a fresh decoder — each innovative by
// construction, the cache stores a basis — the cache entry is dropped, and
// the object proceeds as an ordinary fetch for the rank still missing
// (settleLocked, next, finds out whether any is). It reports whether rows
// moved. st.mu must be held.
func (s *Session) promoteLocked(st *objectState) (progressed bool) {
	if st.phase != phCaching {
		return false
	}
	geo := geometry{int(st.gens.Load()), st.kPer, st.m}
	coder, err := s.newCoder(geo)
	if err != nil {
		return false
	}
	st.shapeLocked(phFilling, geo, coder)
	st.placeLocked()
	s.cache.Drain(st.id, func(g uint32, vec *bitvec.Vector, payload []byte) {
		gi := int(g)
		if gi >= geo.gens || coder.GenComplete(gi) {
			return
		}
		v := coder.AcquireVec(gi)
		v.CopyFrom(vec)
		if coder.IsRedundant(gi, v) {
			coder.ReleaseVec(gi, v)
			return
		}
		var row []byte
		if st.m > 0 {
			row = coder.AcquireRow(gi)
			copy(row, payload)
		}
		// No received++ here: each drained row was counted when it was
		// admitted to the cache.
		coder.ReceiveOwned(gi, v, row)
		progressed = true
	})
	st.touch(s.clk.Now())
	return progressed
}

// settleLocked brings the phase up to date after any event that can
// complete something — a row ingested, the size learned, a manifest
// adopted, a cache promoted — and returns the one reply owed to the sender
// of the frame behind it (owedLocked; g is that frame's generation, −1 for
// none). Every complete generation not yet verified meets the manifest, if
// there is one yet, and is accepted or quarantined (reset, with the
// consequences in acts); with all of them in, the object is decoded, and
// once every one has verified against the manifest the ID commits to it is
// complete and done closes: every native a Fetch returns was checked
// against an authenticated digest. st.mu must be held.
func (s *Session) settleLocked(st *objectState, g int, acts *pollActions) []byte {
	if st.phase == phFilling || st.phase == phDecoded {
		for gg := range st.guard {
			if st.guard[gg].state != genVerified && st.coder.GenComplete(gg) {
				s.verifyGenLocked(st, gg, acts)
			}
		}
		st.phase = phFilling
		if st.coder.Complete() {
			st.phase = phDecoded
			st.assembleLocked()
		}
	}
	return s.owedLocked(st, g)
}

// assembleLocked is settleLocked's last step, decoded → complete: once every
// generation has verified, the object buffer's head is the content: every
// native decoded into its slot. A verified generation means an adopted
// manifest, so the buffer, and that a META that verified gave the size.
func (st *objectState) assembleLocked() {
	size := st.size.Load()
	if size < 0 || size > int64(len(st.buf)) {
		return
	}
	for g := range st.guard {
		if st.guard[g].state != genVerified {
			return
		}
	}
	st.phase, st.data = phComplete, st.buf[:size:size]
	close(st.done)
}

// placeLocked gives a filling or decoded object that has adopted its
// manifest the object buffer, and places every generation's decoder in its
// slots (generation.Coder.Place): the natives decoded so far move in, once,
// and each one decoded from now on is written there as it peels. A
// receiver commits k·m bytes only to a manifest that hashes to the root
// the ID commits to. Nothing is allocated if k·m bytes overflow an int
// (32-bit builds): the natives stay in arena rows, and the object never
// assembles. st.mu must be held.
func (st *objectState) placeLocked() {
	if (st.phase != phFilling && st.phase != phDecoded) || st.man == nil || st.buf != nil ||
		int64(st.k)*int64(st.m) > math.MaxInt {
		return
	}
	st.buf = make([]byte, st.k*st.m)
	for g := range st.guard {
		st.placeGenLocked(g)
	}
}

// placeGenLocked places generation g's decoder in its slots of the object
// buffer, if there is one — again after a quarantine's ResetGen, whose
// fresh decoder decodes into the same slots. st.mu must be held.
func (st *objectState) placeGenLocked(g int) {
	if st.buf == nil {
		return
	}
	span := st.kPer * st.m
	st.coder.Place(g, st.buf[g*span:(g+1)*span:(g+1)*span])
}

// owedLocked is the one answer to "what does the sender of this frame need
// to hear about where the object stands": kind 2 once complete (or, at a
// cache, once every generation is held at full rank); to a DATA frame (g,
// its generation, is not −1), a REQ when decoded — the manifest is
// missing, and a REQ re-arms the sender's META and MANIFEST where kind 2
// would stop them and wedge the object there; kind 3 when the frame's
// generation is done and the object is not; nothing otherwise. st.mu must
// be held.
func (s *Session) owedLocked(st *objectState, g int) []byte {
	switch st.phase {
	case phCaching:
		if full, _ := s.cache.Coverage(st.id); !full {
			return nil
		}
	case phDecoded:
		if g < 0 {
			return nil // a META or a manifest: a REQ would only draw another META
		}
		return encodeReq(st.id)
	case phFilling:
		if g >= 0 && st.coder.GenComplete(g) {
			return genFeedbackFrame(st.id, g)
		}
		return nil
	case phAnnounced, phEvicted:
		return nil
	}
	return feedbackFrame(st.id, fbComplete)
}

// evictLocked takes the object out of the lifecycle: a shard worker that
// resolved this state before it left the table re-checks the phase after
// locking and drops its frames, so a decode can never split across an
// evicted and a relearned state. st.mu must be held.
func (st *objectState) evictLocked() { st.phase = phEvicted }
