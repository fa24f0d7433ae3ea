package bitvec

// Arena is a free-list of fixed-shape decode scratch: n-bit vectors and
// m-byte payload rows. The decode hot path clones every incoming code
// vector and payload before reducing them; with an arena those buffers
// cycle between "owned by a stored packet" and "free" instead of being
// allocated per packet and garbage-collected. An Arena is not safe for
// concurrent use — each decoder owns one, matching the one-goroutine-per-
// object sharding of the session layer.
type Arena struct {
	n, m   int
	vecs   []*Vector
	rows   [][]byte
	handed int // rows Row has handed out
}

// NewArena returns an arena handing out n-bit vectors and m-byte rows
// (m = 0 disables rows).
func NewArena(n, m int) *Arena {
	return &Arena{n: n, m: m}
}

// N returns the vector length in bits.
func (a *Arena) N() int { return a.n }

// M returns the row length in bytes.
func (a *Arena) M() int { return a.m }

// arenaChunk is how many vectors or rows the arena materializes per slab
// allocation when its free list runs dry.
const arenaChunk = 16

// Vec returns an n-bit vector with unspecified contents — callers fully
// overwrite it (CopyFrom, UnmarshalInto), so the arena does not pay a
// clear per recycle. A miss carves a whole chunk of vectors out of two
// slab allocations instead of allocating per vector, so even the
// state-growth phase of a decode costs ~2 allocations per 16 stored
// packets.
func (a *Arena) Vec() *Vector {
	if len(a.vecs) == 0 {
		wpv := (a.n + wordBits - 1) / wordBits
		words := make([]uint64, arenaChunk*wpv)
		structs := make([]Vector, arenaChunk)
		for i := range structs {
			structs[i] = Vector{n: a.n, words: words[i*wpv : (i+1)*wpv : (i+1)*wpv]}
			a.vecs = append(a.vecs, &structs[i])
		}
	}
	l := len(a.vecs)
	v := a.vecs[l-1]
	a.vecs[l-1] = nil
	a.vecs = a.vecs[:l-1]
	return v
}

// PutVec releases v back to the arena. v must have been handed out by an
// arena of the same length (or be a fresh New(n) vector) and must not be
// used after the call. Contents are not cleared; Vec hands out dirty
// buffers.
func (a *Arena) PutVec(v *Vector) {
	if v == nil {
		return
	}
	if v.n != a.n {
		panic("bitvec: arena vector length mismatch")
	}
	a.vecs = append(a.vecs, v)
}

// Row returns an m-byte row with unspecified contents (nil when m == 0);
// callers fully overwrite it. Like Vec, a miss carves a chunk of rows
// from one slab allocation.
func (a *Arena) Row() []byte {
	if a.m == 0 {
		return nil
	}
	if len(a.rows) == 0 {
		slab := make([]byte, arenaChunk*a.m)
		for i := 0; i < arenaChunk; i++ {
			a.rows = append(a.rows, slab[i*a.m:(i+1)*a.m:(i+1)*a.m])
		}
	}
	l := len(a.rows)
	r := a.rows[l-1]
	a.rows[l-1] = nil
	a.rows = a.rows[:l-1]
	a.handed++
	return r
}

// PutRow releases r back to the arena; nil and foreign-sized rows are
// ignored (a foreign size means the row was not arena-shaped to begin
// with, e.g. payloads of a control-plane-only decoder). Contents are not
// cleared; Row hands out dirty buffers.
func (a *Arena) PutRow(r []byte) {
	if r == nil || len(r) != a.m || a.m == 0 {
		return
	}
	a.rows = append(a.rows, r)
}

// FreeCounts reports the number of pooled vectors and rows (test hook).
func (a *Arena) FreeCounts() (vecs, rows int) { return len(a.vecs), len(a.rows) }

// RowsHanded reports how many rows Row has handed out so far (test hook).
func (a *Arena) RowsHanded() int { return a.handed }
