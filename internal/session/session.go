// Package session multiplexes many concurrent content objects over one
// transport. Each object is identified by a 16-byte object ID carried in
// the v2/v3 packet header together with the coding generation; per object
// the session keeps a generation-structured LTNC decode state
// (generation.Coder — G independently coded generations, each with its
// own arena-backed decode engine) that recodes what it holds toward peers
// and subscribers. Generations are what let one session serve large
// objects: code vectors, decode state and recoding scans are all O(k/G),
// and every DATA header carries (generation id, G, k/G) so relays size
// their state from the stream itself.
//
// The paper's Section III-C-2 binary feedback — "the code vector travels
// first; a redundant packet is aborted on the header" — is local on
// datagram transports: the receiver checks the header's code vector
// against its decode state and drops a redundant payload without copying
// or decoding it. The sender learns of it from the receipt counters every
// receiver reports per upstream (kind 6 below: rows received, rows
// innovative), the one progress signal a sender has, and from the
// completion flags the same report carries. Idle object states are evicted so a long-running relay
// does not accumulate decode state for every object it ever carried.
//
// Every object is in exactly one phase (object.go; DESIGN.md §4 has the phase ×
// event table): announced → caching | filling → decoded → complete, and evicted
// from any. Announced is an id with no geometry yet: a Watch or BeginFetch
// registered it, or a relay heard a subscription ahead of the first DATA frame.
// On a plain session, a relay and a cache-mode session alike the first
// admissible DATA header or MANIFEST makes an announced object filling — it
// gets a decoder, because somebody here asked for it; only objects a cache-mode
// session first hears of from the network are caching (rows held undecoded, no
// decoder), and fetching one here promotes it to filling.
//
// Decoding is sharded: DATA frames are dispatched by object ID onto a
// worker pool, each worker draining its queue in batches and feeding whole
// bursts into the per-object decoder, so independent objects decode in
// parallel off the receive loop. Decode state is guarded per object; the
// session lock covers only the object table and peer bookkeeping. Packet
// payloads move from pooled transport buffers into the decoder's arena
// rows without intermediate allocation.
//
// Wire protocol (one session frame per transport frame; all integers
// big-endian):
//
//	DATA     0x01 | packet v2/v3 wire encoding (object ID, generation id
//	               and — v3 — the generation count inside)
//	    0x02, 0x03  retired (the REQ, whose jobs the report does, and the
//	               META, whose fields every MANIFEST frame carries): dropped
//	FEEDBACK 0x04 | report (packet.Report, kind 6): the receiver's one
//	               report — the object complete there, generation gen
//	               complete, or manifest run need lacking (its flags);
//	               its cumulative counters of the sender's rows, judged
//	               and innovative, and departed, the highest send
//	               sequence among them that came stamped (header byte 3),
//	               all fed to the sender's pacer (adapt.Link, DESIGN.md
//	               §16); and, while gen is filling there, gen's frontier,
//	               ⌈k/G ÷ 8⌉ bytes checked here against the geometry. One
//	               goes per 16 rows judged, when the worker's queue drains,
//	               and at a batch's end for what the batch found complete
//	               or lacking proof: at most one a batch per (object,
//	               upstream, generation). It is also the subscription
//	               (handleFeedback). Kinds 1–5 and 7 are retired: a
//	               session drops them.
//	MANIFEST 0x05 | manifest run (packet.ManifestChunk): objectID(16) |
//	               k(4) | m(4) | size(8) | gens(4) | root(32) | run(4) |
//	               n(2) | depth(1) | n digests | depth siblings (32 B
//	               each) — the object's description (gens=1 for a
//	               single-generation object; root the manifest's Merkle
//	               root), which must hash to the ID (integrity.ObjectID)
//	               or the frame is dropped, then up to 1,024 native
//	               digests (internal/integrity) with their Merkle proof,
//	               checked alone against the root; any one frame shapes,
//	               sizes and roots the object. 2 a round, and one a need
//	               names ahead of them
//	MEMBER   0x06 | partial-view exchange (packet.MemberEntry list): the
//	               PEX shuffle of the membership plane — peer addresses
//	               with age, capacity hint and relay/cache role; see
//	               member.go and Config.Bootstrap
//
// A receiver that completes one generation of a still-incomplete object
// flags it in its report, and the sender stops recoding that generation toward it
// — the per-generation analogue of the paper's binary feedback — while
// recoding round-robins across the generations the peer still needs.
//
// Pollution defense (DESIGN.md §13): an object's ID commits to its size,
// its geometry and the root of its integrity manifest (one SHA-256 digest
// per native), which rides MANIFEST frames, each with the object's
// description. A frame whose description does not hash to the ID is
// dropped on arrival, and a run is adopted only if it hashes to the root;
// a receiver that lacks one says so in its reports (the need), and the
// upstream re-sends it a round trip after it went, as it repeats a lost
// row. Once a
// receiver holds the manifest it verifies every generation the moment it
// completes, and an object completes only once every generation has
// verified, so nothing hashes a whole object; a digest mismatch
// quarantines the generation — decode state reset, downstream recoding of
// it gated, every upstream re-armed for the refill. Every row is decoded under its sender's tag, and
// a native takes its value from the one row that released it, so the first
// native in decode order that fails its digest names the sender of a row
// that was false as it arrived. A unit row is digest-checked on arrival,
// and once a generation is verified every further row offered to it is
// audited byte-exactly. Each of these proofs, like a manifest run that does
// not hash to the root, bans its sender session-wide, asked for or not: no
// decoder-backed node emits a row it has not proven (a cache deals rows it
// cannot prove; DESIGN.md §13). A sender that could not be tagged is not
// decoded from.
// Fetchers surface the events via ObjectStats (Polluted, GensVerified)
// and fail with ErrPolluted only when every candidate peer is banned;
// the content a Fetch returns is always byte-exact — every native of it
// was checked against the authenticated manifest.
//
// A session with Config.CacheBudget set is a partial cache (the coded
// edge-cache tier, internal/cache): it retains innovative coded rows of
// objects it learns from the network — never decoding them — under a
// byte budget, answers subscriptions for them by serving rows recoded from
// the cached basis, and sends the reports a decoder would (receipts,
// generation-complete, complete) so an origin stops streaming once the
// cache covers the object. A subscription to a cached object is answered
// as any other: by the proof pass, the runs it holds.
package session

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ltnc/internal/adapt"
	"ltnc/internal/cache"
	"ltnc/internal/generation"
	"ltnc/internal/integrity"
	"ltnc/internal/lt"
	"ltnc/internal/packet"
	"ltnc/internal/transport"
)

// maxUnsettled bounds peerState.unsettled: eight windows, far more degree-1
// rows than a link has in flight (adapt.MaxBurst, two more for the probe)
// at any one time.
const maxUnsettled = 8 * adapt.MaxBurst

// sentNative is one degree-1 row on its way to a peer: native x (content
// order), the at-th row pushed on the peer's link, counted modulo 2³².
type sentNative struct {
	at uint32
	x  int32
}

type peerState struct {
	heard      time.Time // a subscriber's last report (zero for configured peers)
	done       bool      // reported complete: stop pushing
	subscribed bool      // subscribed by a report (pruned when idle)
	// cacheCursor is this peer's position in the cache's serve rotation
	// (cache mode only). Per peer so concurrent fetchers each walk the
	// whole cached basis instead of aliasing onto disjoint slices of it.
	cacheCursor uint64
	// gensDone marks generations the peer reported complete (a report's
	// generation-complete flag): recoding toward it skips them. Lazily sized to the
	// object's G; gensDoneN counts the true entries.
	gensDone  []bool
	gensDoneN int
	// link turns this peer's receipt reports into the loss estimate and
	// the paced burst (DESIGN.md §16). sysCursor is the systematic first
	// pass position, unconditional for coder-backed objects: the next entry
	// of the object's decode-order log (objectState.sysLog) to push plainly.
	// At the end of the log the peer gets coded repair until the log grows.
	link      adapt.Link
	sysCursor int
	// Frontier repair (DESIGN.md §16). frontier[g] is generation g's
	// decoded-native bitmap as the peer's newest receipt naming g carried
	// it; nil for a generation no receipt has named or the peer reported
	// complete, so at most k bits, and dropped with gensDone. A stored
	// bitmap is never written again — a newer one replaces it — so a push
	// round reads its plan's copy of the headers with no lock held.
	// unsettled lists the degree-1 rows sent whose sends the link still
	// counts in flight, oldest first, at most maxUnsettled; only push rounds
	// write its elements. repairAt is where the next scan for natives to
	// repeat starts and repairStep its stride (repairLocked), drawn with the
	// first frontier.
	frontier             [][]byte
	unsettled            []sentNative
	repairAt, repairStep int
	// The proof pass (DESIGN.md §13) is the runs of the object's manifest,
	// in order. pass is the next run to send the peer (takeProof), −1 once
	// the last has gone: it starts at first contact, and a subscription
	// re-arms it once it has ended. No row goes to the peer ahead of the run that
	// proves it. owed is one more than the run a report's need re-armed (0:
	// none), sent ahead of the pass; proofAt is when a run last went to the
	// peer, what a need is timed against.
	pass, owed int
	proofAt    time.Time
}

// forgetProgressLocked drops the peer's reported progress: a new subscriber
// may be another client, and a done peer needs none. Session.mu must be held.
func (ps *peerState) forgetProgressLocked() {
	ps.gensDone, ps.gensDoneN = nil, 0
	ps.frontier, ps.unsettled = nil, nil
}

// rxTally is the receiver-side mirror of one upstream's pushes: the
// cumulative DATA rows judged from that peer for one object — innovative
// or redundant — how many were innovative, how many arrived since the last
// receipt went out, and — once a row of the upstream's came stamped — how
// many have departed (0 until then); tag is the upstream's index in
// objectState.senders, what the rows it sends are decoded under. It
// lives on the object's decode plane (guarded by objectState.mu, NOT
// Session.mu) because the ingest path that feeds it holds only the
// per-object lock.
type rxTally struct {
	tag        int32
	rows, inno uint32
	since      int
	// departed is the highest send sequence among the upstream's stamped
	// rows: per-object ingest is FIFO, so every row up to it has arrived or
	// is lost. A stamp holds seven bits of it (packet.SeqStamp), unwrapped
	// against the last. The count may only under-report — what the sender
	// writes off must not include a row the link may still deliver: the
	// first stamp anchors it at the least the sequence can be (a tally
	// created past the upstream's 127th row, or re-created, stays behind by
	// a multiple of 128, and the sender, whose rows settle ahead of it, is
	// back to ageing them), and a run of 128 or more lost rows unwraps short
	// by as much.
	departed uint32
	stamped  bool
}

// depart advances the departure count by one arriving row's stamp.
func (t *rxTally) depart(stamp byte) {
	if stamp&packet.StampFlag == 0 {
		return // the upstream does not stamp, or a verbatim forward
	}
	seq := uint32(stamp &^ packet.StampFlag)
	if !t.stamped {
		t.departed, t.stamped = seq, true
		return
	}
	t.departed += (seq - t.departed) & (packet.StampFlag - 1)
}

// inFrame is one DATA frame travelling from the receive loop to a decode
// worker: the owned transport frame plus its already-validated wire view.
type inFrame struct {
	f  transport.Frame
	wv packet.WireView
}

// Session multiplexes objects over one transport. Create with New, drive
// with Run (real time) or Step (a virtual clock), then Serve objects or
// Fetch them.
type Session struct {
	cfg Config
	tr  transport.Transport
	clk transport.Clock
	// cache is the partial-cache store when Config.CacheBudget > 0 (the
	// session runs in cache mode); nil otherwise. It has its own lock
	// and is only ever a leaf in the lock order.
	cache *cache.Cache

	mu        sync.Mutex
	objects   map[packet.ObjectID]*objectState
	peers     []transport.Addr // configured push peers
	nextWatch int              // watcher key counter
	// banned holds peers convicted of pollution (a forged manifest, a unit
	// or audited row, or the row that released a generation's first false
	// native — each byte-exact proof the peer sent forged data). Every
	// frame from a banned peer is dropped at resolution, it is removed from
	// push targets and fetch candidates, and its rows are refused cache
	// admission. Bans last the session.
	banned map[transport.Addr]struct{}

	// member is the epidemic membership plane (member.go) when
	// Config.Bootstrap is non-empty; nil otherwise. It has its own locks
	// and is a leaf in the lock order.
	member *membership

	nextRng atomic.Int64

	shards        []chan inFrame
	ingestDropped atomic.Int64

	// coal gathers one push round's DATA frames into per-peer batches so
	// the Linux fast path can ride sendmmsg/GSO. Owned by whoever runs the
	// push rounds (one goroutine); lazily built on first use.
	coal *transport.Coalescer
	// rowBuf is the push round's scratch for coder-drawn rows, one window
	// per peer of the object being emitted; owned like coal.
	rowBuf []*packet.Packet
	// markBuf is the push round's scratch bit set over one object's natives
	// (markLocked); owned like coal, clear between uses.
	markBuf []uint64
	// freeRows is the push rounds' free list of degree-1 row packets
	// (takeNativeRow): drawn natives are copied into them and they come
	// back once staged; owned like coal.
	freeRows []*packet.Packet
	// wakeC carries the coalescing wake signal to the push rounds; see wake.
	wakeC chan struct{}
	// fetches are the fetches in progress, whose resends the push
	// timer's housekeeping serves (fetch.go); guarded by mu.
	fetches []*Fetching
	// stepper is Step's state, owned by its caller as Run's goroutines own
	// theirs.
	stepper stepper
	// commits allocates object buffers: off the lock under Run, inline
	// otherwise (commitBufLocked).
	commits committer

	closed    chan struct{}
	closeOnce sync.Once
}

// New builds a session over cfg.Transport. Call Run to start it.
func New(cfg Config) (*Session, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	s := &Session{
		cfg:     cfg,
		tr:      cfg.Transport,
		clk:     cfg.Clock,
		objects: make(map[packet.ObjectID]*objectState),
		banned:  make(map[transport.Addr]struct{}),
		wakeC:   make(chan struct{}, 1),
		closed:  make(chan struct{}),
	}
	if cfg.CacheBudget > 0 {
		c, err := cache.New(cache.Config{Budget: cfg.CacheBudget})
		if err != nil {
			return nil, err
		}
		s.cache = c
	}
	if len(cfg.Bootstrap) > 0 {
		s.member = newMembership(&s.cfg, s.tr.LocalAddr())
	}
	return s, nil
}

func (s *Session) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// LocalAddr returns the transport address of the session.
func (s *Session) LocalAddr() transport.Addr { return s.tr.LocalAddr() }

// IngestDropped returns the number of DATA frames dropped at full decode
// worker queues (receiver overload).
func (s *Session) IngestDropped() int64 { return s.ingestDropped.Load() }

// AddPeer registers a standing push target: every locally known object is
// gossiped toward configured peers.
func (s *Session) AddPeer(addr transport.Addr) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range s.peers {
		if p == addr {
			return
		}
	}
	s.peers = append(s.peers, addr)
	s.wake()
}

// served is what Serve derives from content before it takes a lock: the
// geometry, the natives (views of content), the manifest, the ID they hash
// to (deriveServed), and the manifest's MANIFEST frames, one a run
// (buildFrames).
type served struct {
	geo     geometry
	natives [][]byte
	man     *integrity.Manifest
	id      packet.ObjectID
	frames  [][]byte
}

// deriveServed splits content into k natives across gens generations as
// Serve does, k rounded up to a multiple of gens, and digests them.
func deriveServed(content []byte, k, gens int) (*served, error) {
	if gens < 1 || gens > packet.MaxGenerations {
		return nil, fmt.Errorf("session: serve: %w: G = %d", generation.ErrBadGeneration, gens)
	}
	src := &served{geo: geometry{gens: gens, kPer: (max(k, gens) + gens - 1) / gens}}
	k = src.geo.kPer * gens
	var err error
	if src.natives, src.geo.m, err = lt.SplitAliased(content, k); err != nil {
		return nil, err
	}
	if src.geo.wireSize() > transport.MaxFrame {
		return nil, fmt.Errorf("session: k/G=%d yields %d-byte frames over the %d transport limit; raise k or G",
			src.geo.kPer, src.geo.wireSize(), transport.MaxFrame)
	}
	if src.man, err = integrity.NewManifest(src.natives); err != nil {
		return nil, err
	}
	src.id = integrity.ObjectID(int64(len(content)), k, gens, src.geo.m, src.man.Root())
	return src, nil
}

// buildFrames builds the MANIFEST frames Serve sends, one a run of the
// manifest of the size-byte content — 32 bytes a native, which ObjectID has
// no use for — each behind the object's description.
func (src *served) buildFrames(size int64) (err error) {
	src.frames = make([][]byte, src.man.Runs())
	mc := packet.ManifestChunk{Object: src.id, K: uint32(src.geo.gens * src.geo.kPer), M: uint32(src.geo.m),
		Gens: uint32(src.geo.gens), Size: size, Root: src.man.Root()}
	for r := range src.frames {
		mc.Run = uint32(r)
		mc.Digests, mc.Proof = src.man.RunProof(r)
		if src.frames[r], err = packet.AppendManifestChunk([]byte{packet.FrameManifest}, mc); err != nil {
			return err
		}
	}
	return nil
}

// ObjectID returns the ID Serve(content, k, gens) returns, without serving
// anything: the object's size and geometry and the root of its manifest,
// hashed (integrity.ObjectID). It costs what Serve's own derivation does,
// one SHA-256 pass over content, and builds none of the MANIFEST frames
// Serve sends.
func ObjectID(content []byte, k, gens int) (packet.ObjectID, error) {
	src, err := deriveServed(content, k, gens)
	if err != nil {
		return packet.ObjectID{}, err
	}
	return src.id, nil
}

// Serve splits content into k natives across gens independently coded
// generations, seeds a pinned source state and returns the object's ID
// (ObjectID: it commits to the geometry and the manifest). k is rounded up to
// the next multiple of gens so every generation has the same code length k/G
// (and so every wire header is O(k/G)). The object is pushed to configured
// peers and to any subscriber. Serving an object that is only announced here (a
// Watch or Fetch registered it before any network state arrived) or only cached
// completes it — pending fetches return at once, cached rows are dropped for
// the content itself; an object already decoding or serving is rejected.
//
// The session keeps content, not a copy: its natives are views of it, it
// is what a local Fetch of the object returns, and the session serves
// from it for as long as it holds the object. The caller must treat it as
// read-only from here on.
func (s *Session) Serve(content []byte, k, gens int) (packet.ObjectID, error) {
	// Everything that touches every byte happens before any lock is taken
	// — the manifest digests, the ID over their root, the MANIFEST frames —
	// so serving a large object does not stall the ingest of every other.
	// The natives are views of content itself (only a zero-padded tail is
	// copied): the coder recodes from them and the object's data is content.
	src, err := deriveServed(content, k, gens)
	if err == nil {
		err = src.buildFrames(int64(len(content)))
	}
	if err != nil {
		return packet.ObjectID{}, err
	}
	coder, err := s.newCoder(src.geo)
	if err != nil {
		return src.id, err
	}
	if err := coder.Seed(src.natives); err != nil {
		return src.id, err
	}
	s.mu.Lock()
	st := s.admitLocked(src.id, "", geometry{}, true)
	st.mu.Lock()
	err = s.seedLocked(st, src, coder, content)
	st.touch(s.clk.Now())
	st.mu.Unlock()
	s.mu.Unlock()
	if err != nil {
		return src.id, err
	}
	s.logf("session: serving %v (k=%d G=%d m=%d size=%d)", src.id, src.geo.kPer*gens, gens, src.geo.m, len(content))
	s.wake()
	s.notifyWatchers(st)
	return src.id, nil
}

// newCoder builds one per-object decode state — G generations, each an
// arena-backed LTNC node — with the session's node policy (seed-derived
// rng sub-streams, algorithm toggles).
func (s *Session) newCoder(geo geometry) (*generation.Coder, error) {
	return generation.New(generation.Options{
		Generations:            geo.gens,
		KPerGeneration:         geo.kPer,
		M:                      geo.m,
		Seed:                   s.cfg.Seed,
		Stream:                 int(s.nextRng.Add(1) - 1),
		DisableRefinement:      s.cfg.DisableRefinement,
		DisableRedundancyCheck: s.cfg.DisableRedundancyCheck,
	})
}

// aggressiveness is the paper's recoding gate, at the ≈ 1 % its own
// experiments settle on.
const aggressiveness = 0.01

// threshold is the received-packet count past which an object state may
// recode (K·0.01 + 1, as in the paper's aggressiveness gate).
func threshold(k int) int {
	return int(float64(k)*aggressiveness + 1)
}

// Run pumps the session in real time until ctx is cancelled or the
// session is closed: one goroutine receives and dispatches frames, a
// decode worker per shard drains and decodes DATA bursts, and one
// goroutine pushes recoded packets — woken by receipts and decodes, every
// Tick at the least — and evicts idle state. Step is the same session on
// one goroutine; a session is driven by one or the other. Run keeps real
// time: on any clock but transport.SystemClock it returns an error at once
// (a virtual clock's owner steps its sessions).
func (s *Session) Run(ctx context.Context) error {
	if s.clk != transport.SystemClock() {
		return errors.New("session: Run keeps real time; step a session on a virtual clock")
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	s.commits.start()
	s.shards = make([]chan inFrame, decodeWorkers())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.pushLoop(ctx)
	}()
	for i := range s.shards {
		ch := make(chan inFrame, ingestQueueLen)
		s.shards[i] = ch
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.ingestLoop(ctx, ch)
		}()
	}
	err := s.recvLoop(ctx)
	cancel()
	wg.Wait()
	s.commits.stop()
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return ctx.Err()
	}
	return err
}

// stepper is what Step keeps between calls: the push timer, which Run's
// push goroutine holds too, and the ingest workspace a decode worker holds.
type stepper struct {
	timer   *pushTimer // nil until the first Step
	batch   []inFrame
	scratch ingestScratch
}

// Step drives the session on the caller's goroutine, at the clock's
// current instant, through exactly what Run's goroutines would do with
// it: every frame the transport has queued is taken (transport.Poller) and
// ingested, then the push timer's rounds run. It returns the timer's next
// deadline; the session does nothing before then unless a frame arrives or
// it is called into. Whoever steps it (a virtual clock's owner:
// internal/simnet) calls Step again at either.
func (s *Session) Step() (next time.Time) {
	d := &s.stepper
	if d.timer == nil {
		d.timer = s.newPushTimer(s.clk.Now())
	}
	s.ingestReady(d)
	return s.rounds(d.timer, false)
}

// Close stops Run and closes the underlying transport.
func (s *Session) Close() error {
	var err error
	s.closeOnce.Do(func() {
		close(s.closed)
		err = s.tr.Close()
	})
	return err
}

// wake asks for a push round now instead of at the timer's next fire. The
// signal coalesces: a wake-up already pending will plan against whatever
// the caller just changed.
func (s *Session) wake() {
	select {
	case s.wakeC <- struct{}{}:
	default:
	}
}

// pushLoop is Run's push goroutine: the push timer's rounds on one
// time.Timer, set to the deadline they return and run early by a wake-up.
func (s *Session) pushLoop(ctx context.Context) {
	t := s.newPushTimer(s.clk.Now())
	timer := time.NewTimer(time.Until(t.at))
	defer timer.Stop()
	for {
		woken := false
		select {
		case <-ctx.Done():
			return
		case <-s.closed:
			return
		case <-s.wakeC:
			woken = true
		case <-timer.C:
		}
		timer.Reset(time.Until(s.rounds(t, woken)))
	}
}

// pushTimer is the push plane's one timer, whichever driver holds it: where
// it fires next and at what period from there, and the slow duties as
// deadlines on the session clock, so they keep their cadence whatever
// period the timer runs at.
type pushTimer struct {
	at                       time.Time     // the next fire
	period                   time.Duration // and the period from there
	age                      time.Time     // the next row in flight to age out; zero with none
	evictEvery, shuffleEvery time.Duration
	evictAt, shuffleAt       time.Time
	reqAt                    time.Time // earliest fetch subscription resend; zero with none due
	parked                   time.Time // the deadline the timer is parked at; zero: running at Tick
}

func (s *Session) newPushTimer(now time.Time) *pushTimer {
	t := &pushTimer{at: now.Add(s.cfg.Tick), period: s.cfg.Tick}
	// Evict roughly four times per idle timeout, at most once per tick
	// and at least once per second.
	t.evictEvery = min(time.Second, max(s.cfg.Tick, s.cfg.IdleTimeout/4))
	t.evictAt = now.Add(t.evictEvery)
	if s.member != nil {
		// Membership shuffles start at a per-session random phase so a
		// lockstep-started swarm does not stampede its bootstrap nodes in
		// synchronized rounds.
		t.shuffleEvery = max(s.cfg.Tick, s.cfg.ShufflePeriod)
		phase := s.member.phase(int(t.shuffleEvery / s.cfg.Tick))
		t.shuffleAt = now.Add(time.Duration(phase+1) * s.cfg.Tick)
	}
	return t
}

// rounds runs push rounds — housekeeping first when the timer's fire has
// come — for as long as a wake-up is pending (woken: the caller took one
// already) or a row in flight is due to age out, and returns the timer's
// next deadline (due). Each round reads the clock afresh: a virtual one
// stands still for all of them, and on the wall clock a stream of wake-ups
// cannot hold the timer's own rounds off.
func (s *Session) rounds(t *pushTimer, woken bool) time.Time {
	for ; ; woken = false {
		now := s.clk.Now()
		timed := !now.Before(t.at)
		if !woken {
			select {
			case <-s.wakeC: // a timer round serves the wake-up too
			default:
				if now.Before(t.due()) {
					return t.due()
				}
			}
		}
		if rearm := t.round(s, now, timed); rearm > 0 {
			t.at, t.period = now.Add(rearm), rearm
		} else if timed {
			t.at = laterThan(now, t.at, t.period) // like a ticker, missed fires are dropped
		}
	}
}

// round is one turn of the push plane — the timer's, a wake-up's or an
// ageing deadline's — and returns the period to re-arm the timer with,
// zero to leave it running. While push finds a target the period is Tick:
// the floor (adapt.Link grants a row a Tick to a peer whose receipts never
// come) and the beat the silence rule is read against. The rows in flight set one more deadline, the earliest of them
// to age out (push), and the timer is due at whichever comes first. There
// are deadlines only while rows are in flight, so with nothing owed to
// anyone the timer still parks until the next housekeeping deadline.
func (t *pushTimer) round(s *Session, now time.Time, timed bool) (rearm time.Duration) {
	if timed {
		t.run(s, now) // first: a shuffle may hand push new neighbors
	}
	live, age := s.push()
	t.age = age
	if !live && !timed {
		// About to park: a fetch's resend may have gone out since the last
		// timer round looked.
		t.reqAt = s.reqSweep()
	}
	var at time.Time
	if next := t.next(); !live && next.Sub(now) > s.cfg.Tick {
		at = next
	}
	if at == t.parked {
		return 0
	}
	if t.parked = at; at.IsZero() {
		return s.cfg.Tick
	}
	return at.Sub(now)
}

// run does what is due at now; fetch resends are checked every time.
func (t *pushTimer) run(s *Session, now time.Time) {
	t.reqAt = s.reqSweep()
	if t.shuffleEvery > 0 && !now.Before(t.shuffleAt) {
		s.memberShuffle()
		t.shuffleAt = laterThan(now, t.shuffleAt, t.shuffleEvery)
	}
	if !now.Before(t.evictAt) {
		s.evict()
		t.evictAt = laterThan(now, t.evictAt, t.evictEvery)
	}
}

// due returns when the timer is due next: its next fire, or the ageing
// deadline of a row in flight if that comes first.
func (t *pushTimer) due() time.Time { return earliest(t.at, t.age) }

// next returns the earliest deadline a parked timer must wake for.
func (t *pushTimer) next() time.Time {
	at := t.evictAt
	if !t.reqAt.IsZero() && t.reqAt.Before(at) {
		at = t.reqAt
	}
	if t.shuffleEvery > 0 && t.shuffleAt.Before(at) {
		at = t.shuffleAt
	}
	return at
}

// laterThan steps at forward by whole periods until it is after now.
func laterThan(now, at time.Time, every time.Duration) time.Time {
	return at.Add((now.Sub(at)/every + 1) * every)
}

// evict drops object state and subscribers that have been idle past the
// configured timeout, so long-running relays do not leak decode state.
func (s *Session) evict() {
	s.mu.Lock()
	defer s.mu.Unlock()
	cutoff := s.clk.Now().Add(-s.cfg.IdleTimeout).UnixNano()
	for id, st := range s.objects {
		for addr, ps := range st.peers {
			if ps.subscribed && ps.heard.UnixNano() < cutoff {
				delete(st.peers, addr)
			}
		}
		if st.pinned || st.waiters > 0 {
			continue
		}
		if st.lastActive.Load() < cutoff {
			delete(s.objects, id)
			st.mu.Lock() // s.mu before st.mu is the allowed order
			st.evictLocked()
			st.mu.Unlock()
			if s.cache != nil {
				// Cached rows ride on the object state's lifetime: cache
				// retention must not outlive (and so defeat) idle eviction.
				s.cache.Drop(id)
			}
			s.logf("session: evicted idle %v", id)
		}
	}
}
