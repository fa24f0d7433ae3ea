package lt

import (
	"errors"
	"fmt"
	"unsafe"

	"ltnc/internal/bitvec"
	"ltnc/internal/opcount"
	"ltnc/internal/packet"
)

// ErrIncomplete is returned when decoded content is requested before all k
// natives are recovered.
var ErrIncomplete = errors.New("lt: decode incomplete")

// Hooks let a caller observe every mutation of the Tanner graph. The LTNC
// recoder (internal/core) uses them to keep its complementary data
// structures — the degree index, the connected components of native
// packets and the degree-3 availability index — synchronized with the
// decoding process, exactly as Table I of the paper prescribes.
//
// Hook contract: PacketStored announces a packet under a degree;
// DegreeChanged updates it; PacketRemoved always reports the last degree
// previously announced for the id, so an index keyed by degree can evict
// without searching. All hooks are optional.
type Hooks struct {
	// PacketStored fires when a packet enters the graph with the given
	// (post-reduction) degree.
	PacketStored func(id, degree int)
	// DegreeChanged fires when a stored packet's degree drops due to
	// peeling and the packet remains stored.
	DegreeChanged func(id, oldDegree, newDegree int)
	// PacketRemoved fires when a stored packet leaves the graph (consumed
	// at degree 1, or pruned as redundant). lastDegree is the degree last
	// announced via PacketStored/DegreeChanged.
	PacketRemoved func(id, lastDegree int)
	// Decoded fires when native packet x is recovered.
	Decoded func(x int)
	// DegreeTwo fires when an encoded packet of degree 2 becomes available
	// — received directly "or obtained by belief propagation during the
	// process of decoding" (Section III-B-3). payload is borrowed: it is
	// valid only for the duration of the call (nil when payloads are
	// disabled) and hooks that retain it must copy. Most degree-2 events
	// merge nothing downstream, so the decoder does not copy eagerly.
	DegreeTwo func(x, y int, payload []byte)
	// CheckRedundant, if non-nil, is consulted for packets of degree ≤ 3
	// on reception and whenever a stored packet's degree drops to ≤ 3; a
	// true return discards the packet (Algorithm 3 is plugged in here).
	CheckRedundant func(vec *bitvec.Vector) bool
}

// redundancyCheckMaxDegree bounds the degrees submitted to CheckRedundant,
// "applied only to encoded packets of degree less than or equal to 3"
// (Section III-C-1).
const redundancyCheckMaxDegree = 3

// InsertResult reports what Insert did with a packet.
type InsertResult struct {
	// Stored is true if the packet was added to the Tanner graph (it may
	// still be consumed later by peeling).
	Stored bool
	// Redundant is true if the packet was discarded as non-innovative:
	// it reduced to degree 0, or the redundancy detector rejected it.
	Redundant bool
	// NewlyDecoded is the number of native packets recovered as a direct
	// consequence of this insertion (peeling cascade included).
	NewlyDecoded int
}

type stored struct {
	vec     *bitvec.Vector
	payload []byte
	deg     int
}

// pending is one cascade work item: a decoded native and its payload.
type pending struct {
	x       int
	payload []byte
}

// Decoder is a belief-propagation LT decoder over a Tanner graph. It is
// not safe for concurrent use; in the concurrent runtime each node owns
// one decoder.
type Decoder struct {
	k            int
	m            int
	decoded      []bool
	data         [][]byte
	decodedCount int

	packets []*stored
	free    []int
	adj     [][]int
	nStored int

	received   int
	redundant  int // incoming packets dropped (zero-degree or detector)
	pruned     int // stored packets later removed by the detector
	duplicated int // natives re-derived by independent peeling paths

	// arena recycles code vectors and payload rows between stored packets:
	// the buffers of a dropped or pruned packet back the next insertion
	// instead of being garbage-collected (zero-allocation hot path).
	arena *bitvec.Arena
	// dst, once placed, is where the natives live: native x in
	// dst[x·m:(x+1)·m] (Place).
	dst []byte
	// freeStored, queueScratch and adjFree recycle the stored-packet
	// boxes, the cascade work queue and retired adjacency buckets for the
	// same reason.
	freeStored   []*stored
	queueScratch []pending
	adjFree      [][]int

	counter *opcount.Counter
	hooks   Hooks
}

// NewDecoder returns a decoder for k native packets of m bytes each
// (m = 0 disables payloads for control-plane simulations), over an arena of
// its own. counter may be nil.
func NewDecoder(k, m int, counter *opcount.Counter, hooks Hooks) (*Decoder, error) {
	return NewDecoderIn(bitvec.NewArena(k, m), counter, hooks)
}

// NewDecoderIn is NewDecoder over the caller's arena, whose vector length
// is k and row length m. Decoders sharing one arena — the generations of
// one object — hand each other the rows they free, so they must be used
// from one goroutine at a time.
func NewDecoderIn(arena *bitvec.Arena, counter *opcount.Counter, hooks Hooks) (*Decoder, error) {
	k, m := arena.N(), arena.M()
	if k < 1 {
		return nil, fmt.Errorf("lt: k = %d < 1", k)
	}
	if m < 0 {
		return nil, fmt.Errorf("lt: m = %d < 0", m)
	}
	return &Decoder{
		k:       k,
		m:       m,
		decoded: make([]bool, k),
		data:    make([][]byte, k),
		adj:     make([][]int, k),
		arena:   arena,
		counter: counter,
		hooks:   hooks,
	}, nil
}

// Arena exposes the decoder's buffer arena so callers on the receive hot
// path can parse wire bytes straight into recycled buffers and hand them
// to InsertOwned without any intermediate copy. Buffers acquired here are
// owned by the caller until passed back via InsertOwned or Put*.
func (d *Decoder) Arena() *bitvec.Arena { return d.arena }

// K returns the code length.
func (d *Decoder) K() int { return d.k }

// M returns the payload size.
func (d *Decoder) M() int { return d.m }

// DecodedCount returns the number of natives recovered so far.
func (d *Decoder) DecodedCount() int { return d.decodedCount }

// Complete reports whether all k natives are recovered.
func (d *Decoder) Complete() bool { return d.decodedCount == d.k }

// Received returns the number of packets inserted so far.
func (d *Decoder) Received() int { return d.received }

// RedundantDropped returns the number of incoming packets dropped as
// non-innovative.
func (d *Decoder) RedundantDropped() int { return d.redundant }

// PrunedStored returns the number of stored packets later removed by the
// redundancy detector as their degree dropped.
func (d *Decoder) PrunedStored() int { return d.pruned }

// StoredCount returns the number of packets currently in the Tanner graph.
func (d *Decoder) StoredCount() int { return d.nStored }

// IsDecoded reports whether native x is recovered.
func (d *Decoder) IsDecoded(x int) bool { return d.decoded[x] }

// NativeData returns the payload of native x, or nil if x is not decoded
// (or payloads are disabled): its slot of the placed buffer, if there is
// one (Place).
func (d *Decoder) NativeData(x int) []byte {
	if !d.decoded[x] {
		return nil
	}
	return d.data[x]
}

// Data returns all native payloads once decoding is complete; before
// completion it fails with an error wrapping ErrIncomplete.
func (d *Decoder) Data() ([][]byte, error) {
	if !d.Complete() {
		return nil, fmt.Errorf("%w: decoded %d of %d natives", ErrIncomplete, d.decodedCount, d.k)
	}
	return d.data, nil
}

// Place makes dst, k slots of m bytes, the decoder's native buffer: every
// native decoded so far moves into its slot, native x to dst[x·m:(x+1)·m],
// handing the row it leaves back to the arena, and every native decoded
// from now on is written into its slot as it peels. It may be called
// before, during or after decoding, and again: a native already in its
// slot is neither copied nor recycled, so natives seeded as views of dst
// stay as they are (a decoder's other rows are its own to recycle). No row
// inside dst ever reaches the arena. It reports false, with nothing
// placed, if dst is not k·m bytes. A NativeData slice taken before the
// call is stale after it.
func (d *Decoder) Place(dst []byte) bool {
	if len(dst) != d.k*d.m {
		return false
	}
	dst = dst[:len(dst):len(dst)]
	for x, row := range d.data {
		if d.decoded[x] && d.m > 0 {
			d.data[x] = d.intoSlot(dst, x, row)
		}
	}
	d.dst = dst
	return true
}

// RowFor returns the row a degree-1 packet of native x is to be received
// into (InsertOwned): x's slot of the placed buffer while x is undecoded,
// so that the native lands where it belongs with no copy, and an arena row
// otherwise — unplaced, payloads disabled, or x decoded, where the row is
// redundant and goes back to the arena. A caller that fills a slot must
// insert it as the unit row of x at once.
func (d *Decoder) RowFor(x int) []byte {
	if d.dst == nil || d.m == 0 || d.decoded[x] {
		return d.arena.Row()
	}
	return d.dst[x*d.m : (x+1)*d.m : (x+1)*d.m]
}

// intoSlot moves native x's row into its slot of dst and returns the slot;
// the row, unless it is that slot already, goes back to the arena.
func (d *Decoder) intoSlot(dst []byte, x int, row []byte) []byte {
	slot := dst[x*d.m : (x+1)*d.m : (x+1)*d.m]
	if len(row) > 0 && &row[0] == &slot[0] {
		return slot
	}
	clear(slot[copy(slot, row):])
	d.putRow(row)
	return slot
}

// putRow hands a row back to the arena unless it lies inside the placed
// buffer: a slot is the native's for good, and an arena row handed out
// again is overwritten.
func (d *Decoder) putRow(r []byte) {
	if len(r) > 0 && len(d.dst) > 0 {
		p, lo := uintptr(unsafe.Pointer(&r[0])), uintptr(unsafe.Pointer(&d.dst[0]))
		if p >= lo && p-lo < uintptr(len(d.dst)) {
			return
		}
	}
	d.arena.PutRow(r)
}

// StoredPacket returns the current (reduced) vector and payload of stored
// packet id. The returned values are live views owned by the decoder:
// callers must not mutate them and must not retain them across Insert
// calls.
func (d *Decoder) StoredPacket(id int) (vec *bitvec.Vector, payload []byte, ok bool) {
	if id < 0 || id >= len(d.packets) || d.packets[id] == nil {
		return nil, nil, false
	}
	s := d.packets[id]
	return s.vec, s.payload, true
}

// ForEachStored calls fn for every stored packet until fn returns false.
func (d *Decoder) ForEachStored(fn func(id int, vec *bitvec.Vector, payload []byte) bool) {
	for id, s := range d.packets {
		if s == nil {
			continue
		}
		if !fn(id, s.vec, s.payload) {
			return
		}
	}
}

// Insert feeds one received packet to the decoder: reduces it by already
// decoded natives, runs the redundancy detector on low degrees, stores it
// or triggers the peeling cascade. The packet is copied (into recycled
// arena buffers); the caller keeps ownership of p.
func (d *Decoder) Insert(p *packet.Packet) InsertResult {
	if p.K() != d.k {
		panic(fmt.Sprintf("lt: packet k=%d inserted in decoder k=%d", p.K(), d.k))
	}
	vec := d.arena.Vec()
	vec.CopyFrom(p.Vec)
	var payload []byte
	if d.m > 0 && len(p.Payload) > 0 {
		if len(p.Payload) == d.m {
			payload = d.arena.Row()
			copy(payload, p.Payload)
		} else {
			// Off-size payloads (tests, hand-built packets) bypass the
			// arena: its rows are exactly m bytes and handed out dirty.
			payload = append([]byte(nil), p.Payload...)
		}
	}
	return d.insertOwned(vec, payload)
}

// InsertOwned is Insert for callers that hand over buffer ownership: vec
// (and payload, which may be nil) must be shaped like the decoder's arena
// buffers — typically acquired from Arena() and filled from wire bytes —
// and must not be used after the call. This is the zero-copy receive path:
// wire → arena buffer → Tanner graph, with no per-packet allocation.
func (d *Decoder) InsertOwned(vec *bitvec.Vector, payload []byte) InsertResult {
	if vec.Len() != d.k {
		panic(fmt.Sprintf("lt: packet k=%d inserted in decoder k=%d", vec.Len(), d.k))
	}
	if payload != nil && len(payload) != d.m {
		panic(fmt.Sprintf("lt: payload of %d bytes inserted in decoder m=%d", len(payload), d.m))
	}
	return d.insertOwned(vec, payload)
}

// BatchResult aggregates the outcome of a batched ingest.
type BatchResult struct {
	Stored       int
	Redundant    int
	NewlyDecoded int
}

// InsertBatch drains a batch of received packets through the decoder in
// arrival order. The decode outcome (recovered natives, stored packets,
// counters) is identical to calling Insert packet-at-a-time — belief
// propagation is inherently sequential because each insertion can decode
// natives that change the reduction of the next packet, so unlike
// gf2.Matrix.InsertBatch there is no deferred-elimination shortcut here.
// It exists as the one-call form for batch consumers that hold no
// per-packet protocol state; the session's ingest keeps per-packet calls
// (the paper's header-abort feedback is decided packet by packet) and
// batches at the locking and buffer layer instead.
func (d *Decoder) InsertBatch(ps []*packet.Packet) BatchResult {
	var r BatchResult
	for _, p := range ps {
		res := d.Insert(p)
		if res.Stored {
			r.Stored++
		}
		if res.Redundant {
			r.Redundant++
		}
		r.NewlyDecoded += res.NewlyDecoded
	}
	return r
}

// insertOwned runs the insertion pipeline on decoder-owned buffers.
func (d *Decoder) insertOwned(vec *bitvec.Vector, payload []byte) InsertResult {
	d.received++

	// Reduce by decoded natives ("every encoded packet y involving x is
	// xor-ed with x and the edge is deleted").
	d.counter.Add(opcount.DecodeControl, opcount.WordOps(d.k, 1))
	for x := vec.LowestSet(); x >= 0; x = vec.NextSet(x + 1) {
		if !d.decoded[x] {
			continue
		}
		vec.Clear(x)
		d.counter.Add(opcount.DecodeControl, 1)
		if payload != nil && d.data[x] != nil {
			d.counter.Add(opcount.DecodeData, bitvec.XorBytes(payload, d.data[x]))
		}
	}

	deg := vec.PopCount()
	d.counter.Add(opcount.DecodeControl, opcount.WordOps(d.k, 1))
	switch {
	case deg == 0:
		d.redundant++
		d.arena.PutVec(vec)
		d.putRow(payload)
		return InsertResult{Redundant: true}
	case deg == 1:
		x := vec.LowestSet()
		d.arena.PutVec(vec)
		n := d.runCascade(x, payload)
		return InsertResult{NewlyDecoded: n}
	}

	if d.hooks.CheckRedundant != nil && deg <= redundancyCheckMaxDegree && d.hooks.CheckRedundant(vec) {
		d.redundant++
		d.arena.PutVec(vec)
		d.putRow(payload)
		return InsertResult{Redundant: true}
	}

	id := d.store(vec, payload, deg)
	if deg == 2 {
		d.emitDegreeTwo(vec, payload)
	}
	_ = id
	return InsertResult{Stored: true}
}

func (d *Decoder) store(vec *bitvec.Vector, payload []byte, deg int) int {
	if len(d.freeStored) == 0 {
		// Replenish the box pool a slab at a time (cf. the arena's chunked
		// vectors): growing the stored set costs one allocation per slab,
		// not one per packet.
		slab := make([]stored, 16)
		for i := range slab {
			d.freeStored = append(d.freeStored, &slab[i])
		}
	}
	n := len(d.freeStored)
	s := d.freeStored[n-1]
	d.freeStored[n-1] = nil
	d.freeStored = d.freeStored[:n-1]
	s.vec, s.payload, s.deg = vec, payload, deg
	var id int
	if n := len(d.free); n > 0 {
		id = d.free[n-1]
		d.free = d.free[:n-1]
		d.packets[id] = s
	} else {
		id = len(d.packets)
		d.packets = append(d.packets, s)
	}
	d.nStored++
	for x := vec.LowestSet(); x >= 0; x = vec.NextSet(x + 1) {
		b := d.adj[x]
		if cap(b) == 0 {
			// First edge at x: reuse a bucket retired by a decoded native.
			// On a dry free list, carve a chunk of buckets from one slab —
			// large k touches thousands of natives for the first time in
			// quick succession, and a per-bucket make() there dominated the
			// ingest allocation profile.
			if len(d.adjFree) == 0 {
				const bucketCap, chunk = 16, 16
				slab := make([]int, bucketCap*chunk)
				for i := 0; i < chunk; i++ {
					d.adjFree = append(d.adjFree, slab[i*bucketCap:i*bucketCap:(i+1)*bucketCap])
				}
			}
			n := len(d.adjFree)
			b = d.adjFree[n-1]
			d.adjFree[n-1] = nil
			d.adjFree = d.adjFree[:n-1]
		}
		d.adj[x] = append(b, id)
	}
	d.counter.Add(opcount.DecodeControl, deg)
	if d.hooks.PacketStored != nil {
		d.hooks.PacketStored(id, deg)
	}
	return id
}

func (d *Decoder) remove(id, lastDegree int) {
	s := d.packets[id]
	d.packets[id] = nil
	d.free = append(d.free, id)
	d.nStored--
	if d.hooks.PacketRemoved != nil {
		d.hooks.PacketRemoved(id, lastDegree)
	}
	s.vec, s.payload = nil, nil
	d.freeStored = append(d.freeStored, s)
}

func (d *Decoder) emitDegreeTwo(vec *bitvec.Vector, payload []byte) {
	if d.hooks.DegreeTwo == nil {
		return
	}
	x := vec.LowestSet()
	y := vec.NextSet(x + 1)
	d.hooks.DegreeTwo(x, y, payload)
}

// runCascade decodes native x0 (carrying payload) and propagates: every
// stored packet containing a freshly decoded native is XORed with it; a
// packet reduced to degree 1 is consumed and decodes another native.
// Returns the number of natives decoded.
func (d *Decoder) runCascade(x0 int, payload []byte) int {
	queue := append(d.queueScratch[:0], pending{x0, payload})
	defer func() { d.queueScratch = queue[:0] }()
	newly := 0

	for i := 0; i < len(queue); i++ {
		it := queue[i]
		if d.decoded[it.x] {
			d.duplicated++
			d.putRow(it.payload)
			continue
		}
		d.decoded[it.x] = true
		if d.dst != nil && d.m > 0 {
			it.payload = d.intoSlot(d.dst, it.x, it.payload)
		}
		d.data[it.x] = it.payload
		d.decodedCount++
		newly++
		if d.hooks.Decoded != nil {
			d.hooks.Decoded(it.x)
		}

		edges := d.adj[it.x]
		d.adj[it.x] = nil
		for _, id := range edges {
			s := d.packets[id]
			if s == nil || !s.vec.Get(it.x) {
				continue // stale edge
			}
			old := s.deg
			s.vec.Clear(it.x)
			s.deg--
			d.counter.Add(opcount.DecodeControl, 1)
			if s.payload != nil && it.payload != nil {
				d.counter.Add(opcount.DecodeData, bitvec.XorBytes(s.payload, it.payload))
			}

			switch {
			case s.deg == 1:
				y := s.vec.LowestSet()
				vec, pl := s.vec, s.payload
				d.remove(id, old)
				d.arena.PutVec(vec)
				queue = append(queue, pending{y, pl})
			default:
				if d.hooks.CheckRedundant != nil && s.deg <= redundancyCheckMaxDegree &&
					d.hooks.CheckRedundant(s.vec) {
					// "The redundancy mechanism of LTNC prevents such
					// useless operations" — drop the packet before it costs
					// more XORs (Section III-C-1).
					vec, pl := s.vec, s.payload
					d.pruned++
					d.remove(id, old)
					d.arena.PutVec(vec)
					d.putRow(pl)
					continue
				}
				if d.hooks.DegreeChanged != nil {
					d.hooks.DegreeChanged(id, old, s.deg)
				}
				if s.deg == 2 {
					d.emitDegreeTwo(s.vec, s.payload)
				}
			}
		}
		if cap(edges) > 0 {
			// x is decoded, so its bucket never fills again: recycle it for
			// a native still collecting edges. Safe immediately — nothing
			// stores packets (and hence grabs buckets) during a cascade.
			d.adjFree = append(d.adjFree, edges[:0])
		}
	}
	return newly
}
