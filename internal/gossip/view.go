package gossip

import (
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
)

// Role bits carried per view entry. They mirror the MEMBER wire codec's
// role bits (internal/packet) value for value, so the session layer can
// pass them through without translation.
const (
	// RoleRelay marks a peer that recodes and re-serves objects.
	RoleRelay uint8 = 1 << iota
	// RoleCache marks a peer holding a byte-budgeted partial cache.
	RoleCache
)

// maxFails is how many consecutive send failures a view entry survives
// before Demote drops it: one failure can be a transient queue overflow,
// three in a row is a dead or unreachable peer.
const maxFails = 3

// ViewEntry is one peer of a partial view, with the liveness and
// capacity state the membership plane scores it by.
type ViewEntry[P comparable] struct {
	Addr P
	// Age counts shuffle rounds since the entry was last known fresh —
	// zero when the peer itself was heard from, inherited from the
	// gossip otherwise. Tick increments it; old entries expire.
	Age int
	// Capacity is the peer's relative serving-capacity hint (0 =
	// unknown); neighbor selection prefers higher values.
	Capacity uint8
	// Role holds the Role* bits.
	Role uint8
	// Fails counts consecutive send failures to the peer.
	Fails int
}

// View is a bounded partial view of a swarm: the per-session state of
// the PEX membership plane. It holds at most its size bound of entries;
// merging gossip past the bound evicts the stalest entry, so resident
// per-peer state stays O(size) no matter how large the swarm grows.
// All methods are safe for concurrent use.
type View[P comparable] struct {
	mu      sync.Mutex
	size    int
	entries []ViewEntry[P]
	index   map[P]int
	rng     *rand.Rand
}

// NewView returns an empty view bounded to size entries, drawing
// sampling decisions from rng. A nil rng seeds from the operating
// system's entropy source, so independently constructed views do not
// share streams; deterministic callers pass an explicit rng. size must
// be ≥ 1.
func NewView[P comparable](size int, rng *rand.Rand) *View[P] {
	if size < 1 {
		panic(fmt.Sprintf("gossip: view size %d < 1", size))
	}
	if rng == nil {
		// A broken entropy source is unrecoverable; like the stdlib's
		// global rand, panic rather than degrade to a shared constant seed.
		var b [8]byte
		if _, err := crand.Read(b[:]); err != nil {
			panic(fmt.Sprintf("gossip: reading entropy: %v", err))
		}
		rng = rand.New(rand.NewSource(int64(binary.BigEndian.Uint64(b[:]))))
	}
	return &View[P]{
		size:  size,
		index: make(map[P]int, size),
		rng:   rng,
	}
}

// Cap returns the view's size bound.
func (v *View[P]) Cap() int { return v.size }

// Len returns the number of entries currently held; it never exceeds
// Cap.
func (v *View[P]) Len() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.entries)
}

// Contains reports whether p is in the view.
func (v *View[P]) Contains(p P) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	_, ok := v.index[p]
	return ok
}

// Addrs returns the addresses currently in the view.
func (v *View[P]) Addrs() []P {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]P, len(v.entries))
	for i, e := range v.entries {
		out[i] = e.Addr
	}
	return out
}

// Entries returns a snapshot copy of the view.
func (v *View[P]) Entries() []ViewEntry[P] {
	v.mu.Lock()
	defer v.mu.Unlock()
	return append([]ViewEntry[P](nil), v.entries...)
}

// Insert folds one entry into the view. A known peer is refreshed —
// the entry keeps the younger age and, when the news is at least as
// fresh as what it has, the gossiped capacity and role. An unknown peer
// is admitted, evicting the stalest current entry when the view is
// full; an incoming entry staler than everything resident is dropped
// instead, so old gossip cannot displace live peers.
func (v *View[P]) Insert(e ViewEntry[P]) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.insertLocked(e)
}

func (v *View[P]) insertLocked(e ViewEntry[P]) {
	if i, ok := v.index[e.Addr]; ok {
		have := &v.entries[i]
		if e.Age <= have.Age {
			have.Age = e.Age
			have.Capacity = e.Capacity
			have.Role = e.Role
		}
		return
	}
	if len(v.entries) >= v.size {
		j := v.stalestLocked()
		if v.entries[j].Age < e.Age {
			return
		}
		gone := v.entries[j].Addr
		last := len(v.entries) - 1
		v.entries[j] = v.entries[last]
		v.index[v.entries[j].Addr] = j
		v.entries = v.entries[:last]
		delete(v.index, gone)
	}
	v.index[e.Addr] = len(v.entries)
	v.entries = append(v.entries, e)
}

// stalestLocked returns the index of the entry with the highest age,
// breaking ties by failure count and then uniformly at random.
func (v *View[P]) stalestLocked() int {
	best, ties := 0, 1
	for i := 1; i < len(v.entries); i++ {
		a, b := v.entries[i], v.entries[best]
		switch {
		case a.Age > b.Age || (a.Age == b.Age && a.Fails > b.Fails):
			best, ties = i, 1
		case a.Age == b.Age && a.Fails == b.Fails:
			ties++
			if v.rng.Intn(ties) == 0 {
				best = i
			}
		}
	}
	return best
}

// Merge folds a received partial-view exchange into the view, skipping
// entries for which exclude returns true (self, banned peers). exclude
// may be nil and must not call back into the view.
func (v *View[P]) Merge(entries []ViewEntry[P], exclude func(P) bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, e := range entries {
		if exclude != nil && exclude(e.Addr) {
			continue
		}
		v.insertLocked(e)
	}
}

// Remove deletes a peer; it reports whether the peer was present.
func (v *View[P]) Remove(p P) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	i, ok := v.index[p]
	if !ok {
		return false
	}
	last := len(v.entries) - 1
	v.entries[i] = v.entries[last]
	v.index[v.entries[i].Addr] = i
	v.entries = v.entries[:last]
	delete(v.index, p)
	return true
}

// Fresh marks a peer as heard from right now: its age and failure count
// reset to zero. It reports whether the peer was in the view.
func (v *View[P]) Fresh(p P) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	i, ok := v.index[p]
	if !ok {
		return false
	}
	v.entries[i].Age = 0
	v.entries[i].Fails = 0
	return true
}

// Demote records a send failure to a peer and reports whether that
// removed it from the view (after maxFails consecutive failures).
func (v *View[P]) Demote(p P) (removed bool) {
	v.mu.Lock()
	i, ok := v.index[p]
	if !ok {
		v.mu.Unlock()
		return false
	}
	v.entries[i].Fails++
	if v.entries[i].Fails < maxFails {
		v.mu.Unlock()
		return false
	}
	v.mu.Unlock()
	return v.Remove(p)
}

// Tick advances the view by one shuffle round: every entry ages by one,
// and entries older than maxAge expire. It returns the expired
// addresses. This is the liveness scoring: a peer neither heard from nor
// gossiped about for maxAge rounds is presumed gone.
func (v *View[P]) Tick(maxAge int) (expired []P) {
	v.mu.Lock()
	defer v.mu.Unlock()
	kept := v.entries[:0]
	for _, e := range v.entries {
		e.Age++
		if e.Age > maxAge {
			delete(v.index, e.Addr)
			expired = append(expired, e.Addr)
			continue
		}
		kept = append(kept, e)
	}
	v.entries = kept
	for i, e := range v.entries {
		v.index[e.Addr] = i
	}
	return expired
}

// ShuffleTarget picks the peer to exchange views with this round: the
// stalest entry, Cyclon-style, so the peers we are least sure about are
// probed (and demoted on failure) first. ok is false on an empty view.
func (v *View[P]) ShuffleTarget() (p P, ok bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if len(v.entries) == 0 {
		return p, false
	}
	return v.entries[v.stalestLocked()].Addr, true
}

// Offer samples up to n entries uniformly for a shuffle exchange.
func (v *View[P]) Offer(n int) []ViewEntry[P] {
	v.mu.Lock()
	defer v.mu.Unlock()
	if n > len(v.entries) {
		n = len(v.entries)
	}
	out := make([]ViewEntry[P], 0, n)
	for _, j := range v.rng.Perm(len(v.entries))[:n] {
		out = append(out, v.entries[j])
	}
	return out
}

// Neighbors draws up to n distinct entries for the active neighbor set,
// weighted by capacity and role so well-provisioned relays and caches
// are preferred but every live entry keeps a nonzero chance — weighted
// sampling, not top-k, so a swarm does not herd onto the same few
// peers. Entries matching filter only (nil = all); consecutive send
// failures halve an entry's weight.
func (v *View[P]) Neighbors(n int, filter func(ViewEntry[P]) bool) []ViewEntry[P] {
	v.mu.Lock()
	defer v.mu.Unlock()
	pool := make([]ViewEntry[P], 0, len(v.entries))
	weights := make([]int, 0, len(v.entries))
	total := 0
	for _, e := range v.entries {
		if filter != nil && !filter(e) {
			continue
		}
		w := 1 + int(e.Capacity)
		if e.Role&RoleRelay != 0 {
			w += 64
		}
		if e.Role&RoleCache != 0 {
			w += 32
		}
		w >>= min(e.Fails, 8)
		if w < 1 {
			w = 1
		}
		pool = append(pool, e)
		weights = append(weights, w)
		total += w
	}
	if n > len(pool) {
		n = len(pool)
	}
	out := make([]ViewEntry[P], 0, n)
	for len(out) < n {
		r := v.rng.Intn(total)
		for i, w := range weights {
			if w == 0 {
				continue
			}
			if r < w {
				out = append(out, pool[i])
				total -= w
				weights[i] = 0
				break
			}
			r -= w
		}
	}
	return out
}

// String summarizes the view for logs.
func (v *View[P]) String() string {
	return fmt.Sprintf("gossip.View(%d/%d peers)", v.Len(), v.size)
}
