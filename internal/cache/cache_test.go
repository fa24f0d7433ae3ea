package cache

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"ltnc/internal/bitvec"
	"ltnc/internal/packet"
)

var t0 = time.Unix(1_700_000_000, 0)

func oid(b byte) packet.ObjectID {
	var id packet.ObjectID
	id[0] = b
	id[15] = ^b
	return id
}

// randRow builds a random nonzero kPer-bit vector (wire bytes) and a
// payload whose first bytes echo the vector, so payload consistency is
// checkable after elimination.
func randRow(rng *rand.Rand, kPer, m int) (vec []byte, payload []byte) {
	v := bitvec.New(kPer)
	for v.IsZero() {
		for i := 0; i < kPer; i++ {
			if rng.Intn(2) == 1 {
				v.Set(i)
			}
		}
	}
	payload = make([]byte, m)
	rng.Read(payload)
	return v.AppendBinary(nil), payload
}

func mustCache(t *testing.T, budget int64) *Cache {
	t.Helper()
	c, err := New(Config{Budget: budget})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

// TestAdmitOnlyRankIncreasing is the admission property test: over many
// random offered rows, a row is Stored iff it increases the generation's
// rank computed independently by a reference GF(2) eliminator, and the
// cache's reported rank always matches the reference.
func TestAdmitOnlyRankIncreasing(t *testing.T) {
	const kPer, m = 24, 8
	rng := rand.New(rand.NewSource(42))
	c := mustCache(t, 1<<20)
	id := oid(1)

	// Reference eliminator: plain forward elimination over clones.
	var ref []*bitvec.Vector
	refRank := func(vb []byte) (innovative bool) {
		v := bitvec.New(kPer)
		if err := v.UnmarshalInto(vb); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		for _, r := range ref {
			if v.Get(r.LowestSet()) {
				v.Xor(r)
			}
		}
		if v.IsZero() {
			return false
		}
		ref = append(ref, v)
		return true
	}

	for i := 0; i < 500; i++ {
		vb, pl := randRow(rng, kPer, m)
		wantInnovative := refRank(vb)
		res := c.Admit(id, 1, kPer, m, 0, vb, pl, t0)
		switch {
		case wantInnovative && res.Verdict != Stored:
			t.Fatalf("row %d: innovative row got %v", i, res.Verdict)
		case !wantInnovative && res.Verdict != Redundant:
			t.Fatalf("row %d: redundant row got %v", i, res.Verdict)
		}
		if res.GenRank != len(ref) {
			t.Fatalf("row %d: rank %d, reference %d", i, res.GenRank, len(ref))
		}
		if res.GenFull != (len(ref) == kPer) {
			t.Fatalf("row %d: GenFull=%v at rank %d/%d", i, res.GenFull, len(ref), kPer)
		}
	}
	if len(ref) != kPer {
		t.Fatalf("reference rank %d never reached kPer=%d; weak test", len(ref), kPer)
	}
	st := c.Stats()
	if st.Rows != kPer || st.GenerationsFull != 1 {
		t.Fatalf("stats after full rank: %+v", st)
	}
	// Once full, everything is redundant.
	vb, pl := randRow(rng, kPer, m)
	if res := c.Admit(id, 1, kPer, m, 0, vb, pl, t0); res.Verdict != Redundant || !res.ObjFull {
		t.Fatalf("admit into full generation: %+v", res)
	}
}

// TestBudgetExactlyRespected is the eviction property test: across a
// random workload of admissions over several objects and generations,
// Used never exceeds Budget, Used always equals the recomputed cost of
// the live rows and entries, and evictions remove whole generations.
func TestBudgetExactlyRespected(t *testing.T) {
	const kPer, m, gens = 16, 32, 4
	cost := RowCost(kPer, m)
	// Room for ~3 full generations plus entry overhead — forces eviction.
	budget := 3*int64(kPer)*cost + 2*EntryOverhead
	c := mustCache(t, budget)
	rng := rand.New(rand.NewSource(7))

	now := t0
	for i := 0; i < 2000; i++ {
		id := oid(byte(rng.Intn(3)))
		gen := uint32(rng.Intn(gens))
		vb, pl := randRow(rng, kPer, m)
		now = now.Add(time.Duration(rng.Intn(250)) * time.Millisecond)
		if rng.Intn(10) == 0 {
			c.Touch(id, now)
		}
		res := c.Admit(id, gens, kPer, m, gen, vb, pl, now)
		st := c.Stats()
		if st.Used > st.Budget {
			t.Fatalf("step %d: used %d > budget %d (verdict %v)", i, st.Used, st.Budget, res.Verdict)
		}
		if want := int64(st.Rows)*cost + int64(st.Objects)*EntryOverhead; st.Used != want {
			t.Fatalf("step %d: used %d, recomputed %d (%+v)", i, st.Used, want, st)
		}
	}
	st := c.Stats()
	if st.EvictedGenerations == 0 {
		t.Fatalf("workload never evicted; weak test: %+v", st)
	}
	if st.EvictedRows == 0 || st.RejectedRedundant == 0 {
		t.Fatalf("expected mixed outcomes: %+v", st)
	}

	// Drop returns exactly the freed bytes and empties the object.
	for b := byte(0); b < 3; b++ {
		id := oid(b)
		before := c.Stats().Used
		freed := c.Drop(id)
		after := c.Stats().Used
		if before-after != freed {
			t.Fatalf("Drop(%d): freed %d but used went %d -> %d", b, freed, before, after)
		}
		if _, ok := c.Coverage(id); ok && freed > 0 {
			t.Fatalf("Drop(%d): object still covered", b)
		}
	}
	if used := c.Stats().Used; used != 0 {
		t.Fatalf("used %d after dropping everything", used)
	}
}

// TestNoThrashGuard: an incoming row for a cold generation cannot evict
// a strictly hotter one — it is rejected NoRoom instead.
func TestNoThrashGuard(t *testing.T) {
	const kPer, m = 8, 16
	cost := RowCost(kPer, m)
	// Budget for one object entry plus kPer rows: the hot object fills
	// the cache exactly.
	c := mustCache(t, int64(kPer)*cost+EntryOverhead)
	rng := rand.New(rand.NewSource(3))

	hot := oid(1)
	for i := 0; i < kPer; i++ {
		vb := bitvec.Single(kPer, i).AppendBinary(nil)
		pl := make([]byte, m)
		if res := c.Admit(hot, 1, kPer, m, 0, vb, pl, t0); res.Verdict != Stored {
			t.Fatalf("hot row %d: %v", i, res.Verdict)
		}
		if full, ok := c.Coverage(hot); !ok || full != (i == kPer-1) {
			t.Fatalf("hot row %d: coverage full=%v ok=%v", i, full, ok)
		}
	}
	c.Touch(hot, t0.Add(time.Hour)) // hot demand, much later

	// An object offered before the hot object's latest demand scores
	// colder (staler recency, lower density) and must not displace it.
	cold := oid(2)
	vb, pl := randRow(rng, kPer, m)
	res := c.Admit(cold, 1, kPer, m, 0, vb, pl, t0.Add(time.Minute))
	if res.Verdict != NoRoom {
		t.Fatalf("cold row should not displace hot generation: %v", res.Verdict)
	}
	if full, ok := c.Coverage(hot); !ok || !full || c.Stats().Rows != kPer {
		t.Fatalf("hot object damaged: full=%v rows=%d ok=%v", full, c.Stats().Rows, ok)
	}

	// The reverse displaces: make the cold object the demanded one.
	c.Drop(hot)
	for i := 0; i < kPer; i++ {
		vb := bitvec.Single(kPer, i).AppendBinary(nil)
		if res := c.Admit(cold, 1, kPer, m, 0, vb, make([]byte, m), t0); res.Verdict != Stored {
			t.Fatalf("cold refill row %d: %v", i, res.Verdict)
		}
	}
	vb2, pl2 := randRow(rng, kPer, m)
	res = c.Admit(hot, 1, kPer, m, 0, vb2, pl2, t0.Add(2*time.Hour))
	if res.Verdict != Stored {
		t.Fatalf("hot row should displace stale generation: %v", res.Verdict)
	}
}

// TestEvictionTieGoesToLowestID: of two generations that score the same,
// the one of the lower object id is evicted, whatever order the cache's
// object map iterates in.
func TestEvictionTieGoesToLowestID(t *testing.T) {
	const kPer, m = 8, 16
	cost := RowCost(kPer, m)
	low, high, hot := oid(2), oid(3), oid(9)
	for run := 0; run < 50; run++ {
		c := mustCache(t, 2*(cost+EntryOverhead))
		for _, id := range []packet.ObjectID{high, low} {
			vb := bitvec.Single(kPer, 0).AppendBinary(nil)
			if res := c.Admit(id, 1, kPer, m, 0, vb, make([]byte, m), t0); res.Verdict != Stored {
				t.Fatalf("run %d: seed row: %v", run, res.Verdict)
			}
		}
		vb := bitvec.Single(kPer, 0).AppendBinary(nil)
		if res := c.Admit(hot, 1, kPer, m, 0, vb, make([]byte, m), t0.Add(time.Hour)); res.Verdict != Stored {
			t.Fatalf("run %d: hot row: %v", run, res.Verdict)
		}
		if _, held := c.Coverage(low); held {
			t.Fatalf("run %d: the higher id was evicted on a tie", run)
		}
		if _, held := c.Coverage(high); !held {
			t.Fatalf("run %d: both tied objects were evicted", run)
		}
	}
}

// TestServeCursorWalk: AppendFrame deals stored rows under a
// caller-owned cursor — a fresh cursor walks every pivot of every
// generation in one rotation set, two interleaved cursors each still see
// the whole basis (the aliasing regression: a shared rotation would deal
// each peer half the rows forever), payloads ride with their rows, and
// the skip callback steers generations.
func TestServeCursorWalk(t *testing.T) {
	const kPer, m, gens = 6, 4, 2
	c := mustCache(t, 1<<20)
	id := oid(9)
	rng := rand.New(rand.NewSource(11))
	// Unit-vector basis with known payloads: a served row with pivot i
	// must carry payload[i] untouched.
	payloads := make(map[uint32][][]byte)
	for g := uint32(0); g < gens; g++ {
		for i := 0; i < kPer; i++ {
			vb := bitvec.Single(kPer, i).AppendBinary(nil)
			pl := make([]byte, m)
			rng.Read(pl)
			payloads[g] = append(payloads[g], pl)
			if res := c.Admit(id, gens, kPer, m, g, vb, pl, t0); res.Verdict != Stored {
				t.Fatalf("gen %d row %d: %v", g, i, res.Verdict)
			}
		}
	}

	// draw serves one frame on the given cursor and records the pivot.
	draw := func(t *testing.T, cur *uint64, seen map[uint32]map[int]bool) {
		t.Helper()
		frame, ok := c.AppendFrame(nil, id, cur, nil)
		if !ok {
			t.Fatal("no frame from a full cache")
		}
		p, err := packet.Unmarshal(frame)
		if err != nil {
			t.Fatal(err)
		}
		if p.Object != id || p.Generations != gens || p.K() != kPer || len(p.Payload) != m {
			t.Fatalf("bad geometry %v", p)
		}
		piv := p.Vec.LowestSet()
		if !bytes.Equal(p.Payload, payloads[p.Generation][piv]) {
			t.Fatalf("gen %d pivot %d: served payload does not match the admitted row", p.Generation, piv)
		}
		if seen[p.Generation] == nil {
			seen[p.Generation] = map[int]bool{}
		}
		seen[p.Generation][piv] = true
	}
	full := func(seen map[uint32]map[int]bool) bool {
		for g := uint32(0); g < gens; g++ {
			if len(seen[g]) != kPer {
				return false
			}
		}
		return true
	}

	// A single fresh cursor covers every pivot of every generation in
	// exactly one walk of the basis.
	var solo uint64
	seen := map[uint32]map[int]bool{}
	for i := 0; i < gens*kPer; i++ {
		draw(t, &solo, seen)
	}
	if !full(seen) {
		t.Fatalf("one cursor walk missed pivots: %v", seen)
	}

	// Two peers served in lockstep from their own cursors both cover the
	// whole basis — the regression that a shared rotation fails.
	var curA, curB uint64
	seenA, seenB := map[uint32]map[int]bool{}, map[uint32]map[int]bool{}
	for i := 0; i < gens*kPer; i++ {
		draw(t, &curA, seenA)
		draw(t, &curB, seenB)
	}
	if !full(seenA) || !full(seenB) {
		t.Fatalf("interleaved cursors aliased: A=%v B=%v", seenA, seenB)
	}

	// Skip steers away from covered generations (and advances the cursor
	// past them, so the walk keeps covering the rest).
	var curS uint64
	seenS := map[uint32]map[int]bool{}
	for i := 0; i < gens*kPer; i++ {
		frame, ok := c.AppendFrame(nil, id, &curS, func(g uint32) bool { return g == 0 })
		if !ok {
			t.Fatalf("skip frame %d: no frame", i)
		}
		p, err := packet.Unmarshal(frame)
		if err != nil {
			t.Fatalf("skip frame %d: %v", i, err)
		}
		if p.Generation != 1 {
			t.Fatalf("skip frame %d: generation %d, want 1", i, p.Generation)
		}
		if seenS[p.Generation] == nil {
			seenS[p.Generation] = map[int]bool{}
		}
		seenS[p.Generation][p.Vec.LowestSet()] = true
	}
	if len(seenS[1]) != kPer {
		t.Fatalf("skip walk covered %d/%d pivots of the open generation", len(seenS[1]), kPer)
	}
	var curAll uint64
	if _, ok := c.AppendFrame(nil, id, &curAll, func(uint32) bool { return true }); ok {
		t.Fatal("frame produced with every generation skipped")
	}
}

// TestDrainHandsOffAllRows: Drain yields every stored row exactly once
// and leaves the cache empty of the object with exact accounting.
func TestDrainHandsOffAllRows(t *testing.T) {
	const kPer, m = 12, 8
	c := mustCache(t, 1<<20)
	id := oid(5)
	for i := 0; i < kPer; i++ {
		vb := bitvec.Single(kPer, i).AppendBinary(nil)
		pl := make([]byte, m)
		pl[0] = byte(i)
		if res := c.Admit(id, 1, kPer, m, 0, vb, pl, t0); res.Verdict != Stored {
			t.Fatalf("row %d: %v", i, res.Verdict)
		}
	}
	got := 0
	n := c.Drain(id, func(gen uint32, vec *bitvec.Vector, payload []byte) {
		if gen != 0 || vec.PopCount() == 0 || len(payload) != m {
			t.Fatalf("bad drained row gen=%d vec=%v", gen, vec)
		}
		got++
	})
	if n != kPer || got != kPer {
		t.Fatalf("drained %d/%d rows (callback saw %d)", n, kPer, got)
	}
	st := c.Stats()
	if st.Used != 0 || st.Objects != 0 {
		t.Fatalf("cache not empty after drain: %+v", st)
	}
	if st.EvictedRows != 0 || st.EvictedGenerations != 0 {
		t.Fatalf("drain counted as eviction: %+v", st)
	}
}

// TestGeometryMismatchRejected: conflicting geometry never corrupts an
// entry.
func TestGeometryMismatchRejected(t *testing.T) {
	const kPer, m = 8, 8
	c := mustCache(t, 1<<20)
	id := oid(7)
	vb := bitvec.Single(kPer, 0).AppendBinary(nil)
	if res := c.Admit(id, 2, kPer, m, 0, vb, make([]byte, m), t0); res.Verdict != Stored {
		t.Fatalf("seed row: %v", res.Verdict)
	}
	cases := []struct {
		gens uint32
		kPer int
		m    int
		gen  uint32
	}{
		{3, kPer, m, 0},     // generation count changed
		{2, kPer * 2, m, 0}, // code length changed
		{2, kPer, m + 1, 0}, // payload size changed
		{2, kPer, m, 5},     // generation out of range
	}
	for i, tc := range cases {
		v := bitvec.Single(tc.kPer, 0).AppendBinary(nil)
		if res := c.Admit(id, tc.gens, tc.kPer, tc.m, tc.gen, v, make([]byte, tc.m), t0); res.Verdict != Mismatch {
			t.Fatalf("case %d: verdict %v, want Mismatch", i, res.Verdict)
		}
	}
}
