// Package cache implements the coded edge-cache tier: a byte-budgeted
// store of innovative coded packets for objects a node is not fetching
// and never decodes.
//
// The paper's central property — any innovative packet is useful to any
// receiver — means a cache can offload an origin without holding the
// object: it keeps a partial GF(2) basis per coding generation and
// serves those rows back out (see AppendFrame). Rows are stored in
// forward-eliminated form — each stored row is the incoming packet
// recoded against the rows before it — so every stored row is
// innovative with respect to the others and the rank of a generation is
// simply its stored-row count. The rows stay LT-shaped enough for the
// belief-propagation decoder downstream: serving dense random
// re-combinations instead would defeat peeling entirely (a
// degree-kPer/2 packet never peels), so the serve path deals rows, not
// fresh mixes, and leaves per-peer diversity to the caller's cursor.
//
// Admission is an incremental rank check: a row is admitted iff it
// increases the rank of its generation (the innovation check), and only
// while the global byte budget has room. A per-generation pivot index
// starts the check at the first stored row that can touch the incoming
// one, so a unit row is judged in one lookup. Eviction removes whole
// generations — partial generations serve fetchers just as well per row,
// and whole-generation eviction keeps the accounting and the steering
// feedback (a report's generation-complete flag) honest — scored by demand
// recency × innovation density, with a no-thrash guard: a generation is
// only evicted for a strictly hotter incoming one.
//
// A Cache is safe for concurrent use; the session layer calls it from
// both the decode plane (admission) and the control plane (subscription demand,
// serving, eviction).
package cache

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"ltnc/internal/bitvec"
	"ltnc/internal/packet"
)

// Config parameterizes a Cache.
type Config struct {
	// Budget bounds the total bytes the cache may hold, accounted as
	// RowCost per stored row plus EntryOverhead per cached object. It
	// must be positive.
	Budget int64
}

// Accounting constants: what one stored row and one cached object cost
// against the budget beyond their raw vector and payload bytes, so the
// budget tracks real memory, not just payload bytes. RowOverhead stands
// for a row's Go-side bookkeeping: its row header, its pivot-list entry
// and its slot in the generation's pivot index (genStore.pos, a 4-byte
// entry per bit of kPer, made with the generation's first row). It is a
// flat charge, not a measured size: changing it moves every budget
// decision. EntryOverhead stands for the entry struct and its
// per-generation table.
const (
	RowOverhead   = 16
	EntryOverhead = 128
)

// RowCost returns the budget charge for one stored row of a generation
// with per-generation code length kPer and payload size m.
func RowCost(kPer, m int) int64 {
	return int64((kPer+7)/8+m) + RowOverhead
}

// Verdict classifies the outcome of one Admit call.
type Verdict uint8

const (
	// Stored: the row was innovative and is now cached.
	Stored Verdict = iota
	// Redundant: the row is in the span of the generation's cached rows.
	Redundant
	// NoRoom: the row was innovative but the budget is exhausted and no
	// strictly colder generation could be evicted for it.
	NoRoom
	// Mismatch: the row's geometry (generations, kPer, m) disagrees with
	// what the cache already holds for the object.
	Mismatch
)

// String names the verdict for logs and tests.
func (v Verdict) String() string {
	switch v {
	case Stored:
		return "stored"
	case Redundant:
		return "redundant"
	case NoRoom:
		return "no-room"
	case Mismatch:
		return "mismatch"
	default:
		return fmt.Sprintf("verdict(%d)", uint8(v))
	}
}

// AdmitResult reports what one Admit did and where the generation and
// object stand afterwards, so the session can send the same feedback a
// real decoder would (receipt counters, generation-complete, complete).
type AdmitResult struct {
	Verdict Verdict
	// GenRank is the generation's rank after the call.
	GenRank int
	// GenFull reports rank == kPer for the row's generation.
	GenFull bool
	// ObjFull reports every generation of the object at full rank.
	ObjFull bool
}

// Stats is a snapshot of the cache's occupancy and policy counters.
type Stats struct {
	Budget int64 `json:"budget"`
	Used   int64 `json:"used"`
	// Objects and Generations count cached entries with at least one
	// stored row; GenerationsFull those at full rank.
	Objects         int `json:"objects"`
	Generations     int `json:"generations"`
	GenerationsFull int `json:"generations_full"`
	Rows            int `json:"rows"`
	// Policy counters since construction.
	Admitted           int64 `json:"admitted"`
	RejectedRedundant  int64 `json:"rejected_redundant"`
	RejectedNoRoom     int64 `json:"rejected_no_room"`
	EvictedRows        int64 `json:"evicted_rows"`
	EvictedGenerations int64 `json:"evicted_generations"`
	ServedFrames       int64 `json:"served_frames"`
}

// row is one stored coded packet in forward-eliminated form: vec's
// lowest set bit is the row's pivot, distinct per row within a
// generation.
type row struct {
	vec     *bitvec.Vector
	payload []byte
}

// genStore holds the cached basis of one generation. rows are kept in
// pivot-insertion order; pivots[i] is rows[i].vec.LowestSet(). pos is the
// pivot index: pos[b] is 1 + the insertion position of the row pivoted on
// bit b, 0 for a bit no stored row is pivoted on; it is made with the
// generation's first stored row and dropped with its last.
type genStore struct {
	rows   []row
	pivots []int
	pos    []int32
}

// first returns the insertion position of the earliest stored row whose
// pivot v holds, or the rank if there is none. Forward elimination of v
// can start there: every row before it tests a bit v does not hold, and v
// is untouched until that row. It costs one lookup per set bit of v,
// stopping early at position 0.
func (gs *genStore) first(v *bitvec.Vector) int {
	start := len(gs.rows)
	for b := v.LowestSet(); b >= 0 && start > 0; b = v.NextSet(b + 1) {
		if i := int(gs.pos[b]) - 1; i >= 0 && i < start {
			start = i
		}
	}
	return start
}

// entry is one cached object: fixed geometry plus per-generation bases.
// All rows share the entry's arena (kPer-bit vectors, m-byte payloads).
type entry struct {
	id    packet.ObjectID
	gens  uint32 // generation count (1 = unstructured object)
	kPer  int
	m     int
	arena *bitvec.Arena
	g     []genStore
	// lastDemand is the last time a subscription touched the object (entry
	// creation counts as demand, so a freshly admitted object is not the
	// universal first victim).
	lastDemand time.Time
	fullGens   int
	rowCount   int
}

func (e *entry) genFull(g int) bool { return len(e.g[g].rows) == e.kPer }

// score is the eviction key of one generation: demand recency ×
// innovation density. Hotter and denser generations score higher and are
// evicted later. now-lastDemand ages the recency term hyperbolically so
// the score stays positive and comparable across objects.
func (e *entry) score(g int, now time.Time) float64 {
	age := now.Sub(e.lastDemand)
	if age < 0 {
		age = 0
	}
	recency := 1.0 / (1.0 + age.Seconds())
	density := float64(len(e.g[g].rows)) / float64(e.kPer)
	if density == 0 {
		// An empty generation holds no bytes; give the incoming row's
		// first admission into it a nonzero score so it can displace
		// genuinely cold data.
		density = 0.5 / float64(e.kPer)
	}
	return recency * density
}

// Cache is the byte-budgeted partial-cache store. Construct with New.
type Cache struct {
	mu      sync.Mutex
	budget  int64
	used    int64
	objects map[packet.ObjectID]*entry

	admitted          int64
	rejectedRedundant int64
	rejectedNoRoom    int64
	evictedRows       int64
	evictedGens       int64
	served            int64
}

// New builds a cache with the given configuration.
func New(cfg Config) (*Cache, error) {
	if cfg.Budget <= 0 {
		return nil, fmt.Errorf("cache: budget %d must be positive", cfg.Budget)
	}
	return &Cache{
		budget:  cfg.Budget,
		objects: make(map[packet.ObjectID]*entry),
	}, nil
}

// Admit offers one coded row to the cache: object id, geometry
// (generation count normalized so 0 and 1 both mean unstructured,
// per-generation code length kPer, payload size m), the row's generation,
// its code-vector bytes in wire encoding and its payload. now is the
// caller's clock reading, used for eviction scoring. The vector and
// payload bytes are copied; the caller keeps ownership.
//
// The innovation check forward-eliminates the row against the stored
// basis from the earliest stored row whose pivot the row holds (the
// generation's pivot index, genStore.first): one lookup per set bit of the
// row, then one bit test per stored row from there on. A unit row, which
// at most one stored row can touch, costs one lookup instead of a scan
// over the rank, so warming a generation from a systematic pass is linear
// in kPer, not quadratic. The index charges nothing beyond RowOverhead.
func (c *Cache) Admit(id packet.ObjectID, gens uint32, kPer, m int, gen uint32, vecBytes, payload []byte, now time.Time) AdmitResult {
	if gens == 0 {
		gens = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.objects[id]
	if e == nil {
		if kPer <= 0 || m < 0 || gens > packet.MaxGenerations {
			return AdmitResult{Verdict: Mismatch}
		}
		e = &entry{
			id:         id,
			gens:       gens,
			kPer:       kPer,
			m:          m,
			arena:      bitvec.NewArena(kPer, m),
			g:          make([]genStore, gens),
			lastDemand: now,
		}
	} else if e.gens != gens || e.kPer != kPer || e.m != m {
		return AdmitResult{Verdict: Mismatch}
	}
	if gen >= e.gens || len(payload) != e.m {
		return AdmitResult{Verdict: Mismatch}
	}
	gs := &e.g[gen]
	res := AdmitResult{GenRank: len(gs.rows)}
	if e.genFull(int(gen)) {
		res.Verdict = Redundant
		res.GenFull, res.ObjFull = true, e.fullGens == int(e.gens)
		c.rejectedRedundant++
		return res
	}

	// Incremental rank check: copy the row into arena buffers and
	// forward-eliminate it against the stored basis. A zero vector after
	// elimination means the row is in the span — redundant.
	v := e.arena.Vec()
	if err := v.UnmarshalInto(vecBytes); err != nil || v.IsZero() {
		e.arena.PutVec(v)
		res.Verdict = Redundant
		c.rejectedRedundant++
		return res
	}
	p := e.arena.Row()
	copy(p, payload)
	for i := gs.first(v); i < len(gs.rows); i++ {
		if v.Get(gs.pivots[i]) {
			v.Xor(gs.rows[i].vec)
			if e.m > 0 {
				bitvec.XorBytes(p, gs.rows[i].payload)
			}
		}
	}
	if v.IsZero() {
		e.arena.PutVec(v)
		e.arena.PutRow(p)
		res.Verdict = Redundant
		c.rejectedRedundant++
		return res
	}

	// Innovative. Make room under the budget, evicting only strictly
	// colder generations (the no-thrash guard).
	cost := RowCost(e.kPer, e.m)
	need := cost
	if _, known := c.objects[id]; !known {
		need += EntryOverhead
	}
	if !c.makeRoomLocked(e, int(gen), need, now) {
		e.arena.PutVec(v)
		e.arena.PutRow(p)
		res.Verdict = NoRoom
		c.rejectedNoRoom++
		return res
	}
	if _, known := c.objects[id]; !known {
		c.objects[id] = e
		c.used += EntryOverhead
	}
	if gs.pos == nil {
		gs.pos = make([]int32, e.kPer)
	}
	piv := v.LowestSet()
	gs.rows = append(gs.rows, row{vec: v, payload: p})
	gs.pivots = append(gs.pivots, piv)
	gs.pos[piv] = int32(len(gs.rows))
	e.rowCount++
	c.used += cost
	c.admitted++
	res.Verdict = Stored
	res.GenRank = len(gs.rows)
	if e.genFull(int(gen)) {
		e.fullGens++
		res.GenFull = true
	}
	res.ObjFull = e.fullGens == int(e.gens)
	return res
}

// makeRoomLocked frees space for `need` more bytes by evicting whole
// generations strictly colder than the incoming generation (keep, keepGen).
// It reports whether the budget now has room. c.mu must be held.
func (c *Cache) makeRoomLocked(keep *entry, keepGen int, need int64, now time.Time) bool {
	for c.used+need > c.budget {
		incoming := keep.score(keepGen, now)
		var victim *entry
		victimGen := -1
		best := incoming
		for _, e := range c.objects {
			for g := range e.g {
				if len(e.g[g].rows) == 0 || (e == keep && g == keepGen) {
					continue
				}
				// A tie goes to the lowest object id, then the lowest
				// generation: the victim must not follow the map's
				// iteration order, which Go randomises.
				s := e.score(g, now)
				if s < best || s == best && victim != nil && bytes.Compare(e.id[:], victim.id[:]) < 0 {
					best, victim, victimGen = s, e, g
				}
			}
		}
		if victim == nil {
			return false
		}
		c.evictGenLocked(victim, victimGen)
	}
	return true
}

// evictGenLocked frees every row of one generation and drops the entry
// if it holds no rows at all afterwards. c.mu must be held.
func (c *Cache) evictGenLocked(e *entry, g int) {
	gs := &e.g[g]
	if e.genFull(g) {
		e.fullGens--
	}
	n := len(gs.rows)
	for _, r := range gs.rows {
		e.arena.PutVec(r.vec)
		e.arena.PutRow(r.payload)
	}
	gs.rows, gs.pivots, gs.pos = nil, nil, nil
	e.rowCount -= n
	c.used -= int64(n) * RowCost(e.kPer, e.m)
	c.evictedRows += int64(n)
	c.evictedGens++
	if e.rowCount == 0 {
		delete(c.objects, e.id)
		c.used -= EntryOverhead
	}
}

// Touch records fetch demand for an object (a subscription arrived), refreshing
// its eviction recency. Unknown objects are ignored.
func (c *Cache) Touch(id packet.ObjectID, now time.Time) {
	c.mu.Lock()
	if e := c.objects[id]; e != nil {
		if now.After(e.lastDemand) {
			e.lastDemand = now
		}
	}
	c.mu.Unlock()
}

// Drop removes an object from the cache (session idle eviction), freeing
// its budget share. It reports the bytes freed.
func (c *Cache) Drop(id packet.ObjectID) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.objects[id]
	if e == nil {
		return 0
	}
	before := c.used
	for g := range e.g {
		if len(e.g[g].rows) > 0 {
			c.evictGenLocked(e, g)
		}
	}
	// evictGenLocked deletes the entry with its last row.
	return before - c.used
}

// Coverage reports whether the cache holds the object at all and whether
// it holds every generation of it at full rank.
func (c *Cache) Coverage(id packet.ObjectID) (full, held bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.objects[id]
	if e == nil {
		return false, false
	}
	return e.fullGens == int(e.gens), true
}

// AppendFrame appends one DATA frame for the object to dst and reports
// whether a frame was produced. The frame carries one stored row — a
// packet already recoded against the rows admitted before it — chosen by
// the caller-owned cursor: generations rotate per frame and successive
// cursor values walk every row of every generation before repeating, so
// a peer served from its own cursor sees the whole basis. The cursor
// MUST be per receiver: a cursor shared by p lockstep peers deals each
// one the same 1/p slice of the basis forever, and none of them ever
// reaches full rank. (Serving fresh dense GF(2) mixes instead of rows
// would dodge the aliasing but starve the belief-propagation decoder
// downstream, which only peels low-degree packets.) skip excludes
// generations the receiver already covers (reported complete).
func (c *Cache) AppendFrame(dst []byte, id packet.ObjectID, cursor *uint64, skip func(gen uint32) bool) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.objects[id]
	if e == nil || e.rowCount == 0 {
		return dst, false
	}
	gens := uint64(e.gens)
	for probed := uint64(0); probed < gens; probed++ {
		cur := *cursor
		*cursor++
		g := cur % gens
		gs := &e.g[g]
		if len(gs.rows) == 0 || (skip != nil && skip(uint32(g))) {
			continue
		}
		// cur/gens advances once per full rotation: rotation r serves row
		// r mod rank of each generation, covering the basis in rank
		// rotations.
		row := &gs.rows[(cur/gens)%uint64(len(gs.rows))]
		pkt := packet.Packet{
			Vec:        row.vec,
			Payload:    row.payload,
			Generation: uint32(g),
			Object:     id,
		}
		if e.gens >= 2 {
			pkt.Generations = e.gens
		}
		dst = packet.AppendWire(dst, &pkt)
		c.served++
		return dst, true
	}
	return dst, false
}

// Drain hands every stored row of an object to fn (in generation then
// pivot-insertion order) and removes the object from the cache. The row
// buffers are only valid during the call. It is the promote-on-fetch
// hook: a session that starts fetching a cached object seeds its decoder
// from the rows — each innovative by construction — then owns the object
// as a normal fetch.
func (c *Cache) Drain(id packet.ObjectID, fn func(gen uint32, vec *bitvec.Vector, payload []byte)) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.objects[id]
	if e == nil {
		return 0
	}
	// A drain is a handoff, not an eviction: free the rows directly so
	// the eviction counters keep meaning what their names say.
	n := 0
	for g := range e.g {
		gs := &e.g[g]
		for _, r := range gs.rows {
			fn(uint32(g), r.vec, r.payload)
			e.arena.PutVec(r.vec)
			e.arena.PutRow(r.payload)
			n++
		}
		gs.rows, gs.pivots, gs.pos = nil, nil, nil
	}
	c.used -= int64(n)*RowCost(e.kPer, e.m) + EntryOverhead
	delete(c.objects, id)
	return n
}

// Stats returns a snapshot of occupancy and policy counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Stats{
		Budget:             c.budget,
		Used:               c.used,
		Objects:            len(c.objects),
		Admitted:           c.admitted,
		RejectedRedundant:  c.rejectedRedundant,
		RejectedNoRoom:     c.rejectedNoRoom,
		EvictedRows:        c.evictedRows,
		EvictedGenerations: c.evictedGens,
		ServedFrames:       c.served,
	}
	for _, e := range c.objects {
		s.Rows += e.rowCount
		s.GenerationsFull += e.fullGens
		for g := range e.g {
			if len(e.g[g].rows) > 0 {
				s.Generations++
			}
		}
	}
	return s
}
