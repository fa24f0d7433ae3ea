package session

import (
	"ltnc/internal/cache"
	"ltnc/internal/packet"
)

// Snapshots and progress subscriptions.

// ObjectStats is a point-in-time view of one object's session state.
type ObjectStats struct {
	ID   packet.ObjectID
	K, M int
	// Generations is the object's generation count G (1 for
	// single-generation objects, 0 while unknown); KPer is the
	// per-generation code length k/G — the length of every code vector
	// on the wire for this object.
	Generations int
	KPer        int
	Size        int64 // -1 until the first run of the manifest that arrives describes the object
	Decoded     int
	Complete    bool
	// GensComplete is how many generations are fully decoded;
	// GenDecoded holds the decoded-native count of each generation —
	// the per-generation progress Watch snapshots carry.
	GensComplete int
	GenDecoded   []int
	Pinned       bool
	// Cached marks a cache-mode object: the session holds coded rows for
	// it in the partial cache (no decode state); see Config.CacheBudget.
	Cached      bool
	Received    int64 // DATA frames fed into the decoder
	Aborted     int64 // redundant DATA dropped on the header
	Sent        int64 // recoded DATA frames pushed
	Subscribers int
	// HaveManifest reports whether every run of the object's integrity
	// manifest is held (served locally, or each run proven on arrival
	// against the object's ID);
	// GensVerified counts generations that passed digest verification.
	HaveManifest bool
	GensVerified int
	// Polluted counts pollution events on this object: generations that
	// completed, failed manifest verification and were quarantined. Each
	// event resets the failed
	// generation's decode progress, so Decoded/GensComplete may regress
	// across snapshots exactly when Polluted grows — the one sanctioned
	// exception to Watch's monotone-progress contract.
	Polluted int64
	// LossEst is the link-loss estimate for this object (DESIGN.md §16):
	// the mean of the per-peer estimator outputs across peers whose
	// receipt reports have been folded at least once; 0 before any report.
	// Systematic counts DATA frames this session pushed as degree-1 native
	// rows in the systematic first pass (every sender runs one), Repeated
	// those it pushed again as degree-1 rows because a peer's receipt showed
	// the native missing there; Sent − Systematic − Repeated is coded rows.
	LossEst    float64
	Systematic int64
	Repeated   int64
	// LostProven and LostAged sum, over the peers the object is pushed to,
	// the rows their links wrote off as lost (DESIGN.md §16): proven by a
	// receipt's departure count — a later row arrived — or aged out with
	// nothing to say so (and no receipt reporting them after all). On a
	// lossless link both stay near 0; under loss the proven share is how
	// much of it the sender learnt of a receipt after it happened.
	LostProven int64
	LostAged   int64
}

// Overhead returns received packets relative to K — the reception
// overhead the paper reports (1 + epsilon); 0 until K is known.
func (o ObjectStats) Overhead() float64 {
	if o.K == 0 {
		return 0
	}
	return float64(o.Received) / float64(o.K)
}

// Watch subscribes fn to object id's progress: it is invoked once
// immediately with a snapshot, then again on session goroutines whenever
// the object's decode state advances (innovative packets ingested,
// metadata learned, completion, local Serve). Snapshots reach fn in
// monotone order: once fn has seen a Complete snapshot it never sees an
// older one. One sanctioned exception: a pollution quarantine resets the
// failed generation's decode state, so Decoded, GensComplete and
// GenDecoded may regress between snapshots exactly when Polluted grows.
// Callbacks must be fast and must not block — they run on the
// decode workers' notification path, serialized per object — and must
// not call Watch synchronously for ANY object (two callbacks
// cross-watching each other's objects would deadlock the per-object
// notify locks; register from a goroutine instead — cancel is fine).
// Watching an unknown object announces it: the session holds its id and,
// on a plain session and a cache-mode one alike, gives it a decoder with
// the first DATA header or MANIFEST that arrives (a watched object is asked
// for: a cache-mode session decodes it instead of caching its rows);
// watchers do not pin it against idle eviction, and an evicted object
// stops notifying. The returned cancel unregisters fn (it never fires
// again after cancel returns, barring calls already in flight).
func (s *Session) Watch(id packet.ObjectID, fn func(ObjectStats)) (cancel func()) {
	s.mu.Lock()
	st := s.admitLocked(id, "", geometry{}, true)
	if st.watchers == nil {
		st.watchers = make(map[int]func(ObjectStats))
	}
	s.nextWatch++
	key := s.nextWatch
	st.watchers[key] = fn
	s.mu.Unlock()
	// The initial delivery runs under the object's notify lock like every
	// other: the snapshot is taken after the lock is won, so a concurrent
	// notifier cannot slip a fresher snapshot in front of a staler one.
	st.notifyMu.Lock()
	fn(s.stats(st))
	st.notifyMu.Unlock()
	return func() {
		s.mu.Lock()
		delete(st.watchers, key)
		s.mu.Unlock()
	}
}

// notifyWatchers snapshots st and invokes its watchers, serialized per
// object by st.notifyMu (see its doc for the ordering guarantee). Call
// with no locks held.
func (s *Session) notifyWatchers(st *objectState) {
	st.notifyMu.Lock()
	defer st.notifyMu.Unlock()
	s.mu.Lock()
	if len(st.watchers) == 0 {
		s.mu.Unlock()
		return
	}
	fns := make([]func(ObjectStats), 0, len(st.watchers))
	for _, fn := range st.watchers {
		fns = append(fns, fn)
	}
	stats := s.statsLocked(st)
	s.mu.Unlock()
	for _, fn := range fns {
		fn(stats)
	}
}

// CacheStats returns the partial cache's occupancy and policy counters,
// and whether the session runs in cache mode at all (Config.CacheBudget
// > 0).
func (s *Session) CacheStats() (cache.Stats, bool) {
	if s.cache == nil {
		return cache.Stats{}, false
	}
	return s.cache.Stats(), true
}

// stats snapshots one object; call with no locks held.
func (s *Session) stats(st *objectState) ObjectStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statsLocked(st)
}

// statsLocked snapshots one object; s.mu must be held (st.mu is taken
// briefly for the decode-plane counters).
func (s *Session) statsLocked(st *objectState) ObjectStats {
	st.mu.Lock()
	o := ObjectStats{
		ID:          st.id,
		K:           st.k,
		Generations: int(st.gens.Load()),
		KPer:        st.kPer,
		M:           st.m,
		Size:        st.size.Load(),
		Received:    st.received,
		Aborted:     st.aborted,
		Cached:      st.phase == phCaching,
	}
	if st.phase.decoding() {
		o.Decoded = st.coder.DecodedCount()
		o.Complete = st.phase == phComplete
		o.GensComplete = st.coder.CompleteCount()
		o.GenDecoded = st.coder.AppendGenDecoded(make([]int, 0, o.Generations))
	}
	o.HaveManifest = st.man.Complete()
	o.Polluted = st.polluted
	for g := range st.guard {
		if st.guard[g].state == genVerified {
			o.GensVerified++
		}
	}
	st.mu.Unlock()
	o.Pinned = st.pinned
	o.Sent = st.sent
	o.Systematic = st.systematic
	o.Repeated = st.repeated
	lossSum, lossN := 0.0, 0
	for _, ps := range st.peers {
		if ps.subscribed && !ps.done {
			o.Subscribers++
		}
		if ps.link.Reports() > 0 {
			lossSum += ps.link.Loss()
			lossN++
		}
		proven, aged := ps.link.Lost()
		o.LostProven += int64(proven)
		o.LostAged += int64(aged)
	}
	if lossN > 0 {
		o.LossEst = lossSum / float64(lossN)
	}
	return o
}

// Objects returns a snapshot of every object the session currently holds.
func (s *Session) Objects() []ObjectStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ObjectStats, 0, len(s.objects))
	for _, st := range s.objects {
		out = append(out, s.statsLocked(st))
	}
	return out
}

// Object returns the snapshot of one object and whether the session
// holds it — the O(1) form for pollers that track a single transfer.
func (s *Session) Object(id packet.ObjectID) (ObjectStats, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.objects[id]
	if !ok {
		return ObjectStats{}, false
	}
	return s.statsLocked(st), true
}
