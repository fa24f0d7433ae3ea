package cache

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"ltnc/internal/bitvec"
	"ltnc/internal/packet"
)

// fullScanAdmit is Admit with the plain forward-elimination loop, which
// tests the incoming row against every stored pivot in insertion order:
// the reference the pivot index must match bit for bit. Its generations
// never build an index, and the shared eviction and drain paths do not
// need one.
func fullScanAdmit(c *Cache, id packet.ObjectID, gens uint32, kPer, m int, gen uint32, vecBytes, payload []byte, now time.Time) AdmitResult {
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
	v := e.arena.Vec()
	if err := v.UnmarshalInto(vecBytes); err != nil || v.IsZero() {
		e.arena.PutVec(v)
		res.Verdict = Redundant
		c.rejectedRedundant++
		return res
	}
	p := e.arena.Row()
	copy(p, payload)
	for i, piv := range gs.pivots {
		if v.Get(piv) {
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
	gs.rows = append(gs.rows, row{vec: v, payload: p})
	gs.pivots = append(gs.pivots, v.LowestSet())
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

// diffObject is one object of a differential stream, with the natives of
// each generation offered so far in systematic order.
type diffObject struct {
	id      packet.ObjectID
	gens    uint32
	kPer, m int
	next    []int
}

// drained renders every row Drain hands out, in order.
func drained(c *Cache, id packet.ObjectID) string {
	var b bytes.Buffer
	n := c.Drain(id, func(gen uint32, vec *bitvec.Vector, payload []byte) {
		fmt.Fprintf(&b, "%d %x %x\n", gen, vec.AppendBinary(nil), payload)
	})
	fmt.Fprintf(&b, "%d rows", n)
	return b.String()
}

// TestAdmitMatchesFullScan drives seeded streams through Admit and through
// fullScanAdmit, into two caches of one tight budget, and requires the
// same verdict and rank for every row, the same counters after every step
// and the same drained rows (generation, vector, payload, order) at the
// end. A stream mixes systematic-order and random unit rows, duplicates of
// earlier rows, sparse and dense rows, over objects of several generations
// (one with empty payloads), with demand and clock moves that steer
// eviction and an occasional Drop.
func TestAdmitMatchesFullScan(t *testing.T) {
	var verdicts [Mismatch + 1]int
	var evicted int64
	for seed := int64(1); seed <= 300; seed++ {
		v, ev := diffStream(t, seed)
		for i, n := range v {
			verdicts[i] += n
		}
		evicted += ev
	}
	// A stream that never stores, rejects or evicts checks nothing.
	if verdicts[Stored] == 0 || verdicts[Redundant] == 0 || verdicts[NoRoom] == 0 || evicted == 0 {
		t.Fatalf("weak streams: verdicts %v, %d generations evicted", verdicts, evicted)
	}
}

func diffStream(t *testing.T, seed int64) (verdicts [Mismatch + 1]int, evicted int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	objs := []*diffObject{
		{id: oid(1), gens: 2, kPer: 64, m: 8},
		{id: oid(2), gens: 1, kPer: 40, m: 0},
		{id: oid(3), gens: 3, kPer: 24, m: 4},
	}
	var all int64
	for _, o := range objs {
		o.next = make([]int, o.gens)
		all += int64(o.gens)*int64(o.kPer)*RowCost(o.kPer, o.m) + EntryOverhead
	}
	budget := all * 2 / 5
	got, want := mustCache(t, budget), mustCache(t, budget)

	type offer struct {
		o        *diffObject
		gen      uint32
		vec, pay []byte
	}
	var history []offer
	now := t0
	for step := 0; step < 600; step++ {
		o := objs[rng.Intn(len(objs))]
		gen := uint32(rng.Intn(int(o.gens)))
		v := bitvec.New(o.kPer)
		switch op := rng.Intn(100); {
		case op < 30: // the systematic pass: the generation's next native
			v.Set(o.next[gen] % o.kPer)
			o.next[gen]++
		case op < 45: // a unit row out of order
			v.Set(rng.Intn(o.kPer))
		case op < 60 && len(history) > 0: // a duplicate of an earlier row
			h := history[rng.Intn(len(history))]
			o, gen, v = h.o, h.gen, bitvec.New(h.o.kPer)
			if err := v.UnmarshalInto(h.vec); err != nil {
				t.Fatal(err)
			}
		case op < 75: // a sparse, LT-shaped row
			for d := 2 + rng.Intn(3); d > 0; d-- {
				v.Set(rng.Intn(o.kPer))
			}
		case op < 90: // a dense row
			for i := 0; i < o.kPer; i++ {
				if rng.Intn(2) == 1 {
					v.Set(i)
				}
			}
		case op < 95: // demand for an object
			got.Touch(o.id, now)
			want.Touch(o.id, now)
			continue
		case op < 99: // the clock moves, ageing every object's demand
			now = now.Add(time.Duration(rng.Intn(500)) * time.Millisecond)
			continue
		default:
			if g, w := got.Drop(o.id), want.Drop(o.id); g != w {
				t.Fatalf("seed %d step %d: Drop freed %d bytes, full scan %d", seed, step, g, w)
			}
			continue
		}
		if v.IsZero() {
			v.Set(0)
		}
		pay := make([]byte, o.m)
		rng.Read(pay)
		vec := v.AppendBinary(nil)
		history = append(history, offer{o, gen, vec, pay})

		g := got.Admit(o.id, o.gens, o.kPer, o.m, gen, vec, pay, now)
		w := fullScanAdmit(want, o.id, o.gens, o.kPer, o.m, gen, vec, pay, now)
		if g != w {
			t.Fatalf("seed %d step %d: object %d gen %d row %v: Admit %+v, full scan %+v",
				seed, step, o.id[0], gen, v, g, w)
		}
		verdicts[g.Verdict]++
		if gs, ws := got.Stats(), want.Stats(); gs != ws {
			t.Fatalf("seed %d step %d: stats %+v, full scan %+v", seed, step, gs, ws)
		}
	}
	for _, o := range objs {
		if g, w := drained(got, o.id), drained(want, o.id); g != w {
			t.Fatalf("seed %d: object %d drained\n%s\nfull scan drained\n%s", seed, o.id[0], g, w)
		}
	}
	if st := got.Stats(); st.Used != 0 || st.Objects != 0 {
		t.Fatalf("seed %d: cache not empty after the final drain: %+v", seed, st)
	}
	return verdicts, got.Stats().EvictedGenerations
}

// BenchmarkAdmitSystematicPass warms one k = 1,024 generation the way an
// origin's systematic pass does — every unit row in order — then offers
// the pass again, and reports the cost of one Admit call.
func BenchmarkAdmitSystematicPass(b *testing.B) {
	const k, m = 1024, 1024
	id := oid(1)
	rows := make([][]byte, k)
	for i := range rows {
		rows[i] = bitvec.Single(k, i).AppendBinary(nil)
	}
	payload := make([]byte, m)
	budget := int64(k)*RowCost(k, m) + EntryOverhead
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		c, err := New(Config{Budget: budget})
		if err != nil {
			b.Fatal(err)
		}
		for _, want := range []Verdict{Stored, Redundant} {
			for i, vb := range rows {
				if res := c.Admit(id, 1, k, m, 0, vb, payload, t0); res.Verdict != want {
					b.Fatalf("row %d: %v, want %v", i, res.Verdict, want)
				}
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*2*k), "ns/row")
}
