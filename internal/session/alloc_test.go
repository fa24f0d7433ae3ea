package session

import (
	"bytes"
	"testing"
	"time"

	"ltnc/internal/core"
	"ltnc/internal/packet"
	"ltnc/internal/transport"
	"ltnc/internal/xrand"
)

// TestIngestAllocBudget pins the steady-state allocation cost of the
// session's decode hot path: a whole ingested batch — wire view already
// parsed, per-object state resolved, vectors and payloads moved through
// the decoder's arena — must stay within a small fixed budget per packet.
func TestIngestAllocBudget(t *testing.T) {
	// Large k so the object stays mid-decode for the whole measurement:
	// the budget pins the live ingest path (resolve, arena transfer,
	// belief propagation), not the cheap everything-is-redundant tail
	// after completion.
	const (
		k = 4096
		m = 64
	)
	sw, err := transport.NewSwitch(transport.SwitchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sw.Attach("ingest")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Transport: tr, Relay: true, Tick: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// A source node recodes an endless packet stream for one object.
	natives := make([][]byte, k)
	for i := range natives {
		natives[i] = make([]byte, m)
	}
	src, err := core.NewNode(core.Options{K: k, M: m, Rng: xrand.NewChild(5, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Seed(natives); err != nil {
		t.Fatal(err)
	}
	id := packet.NewObjectID([]byte("alloc object"))

	const batchSize = 32
	makeBatch := func() []inFrame {
		batch := make([]inFrame, 0, batchSize)
		for len(batch) < batchSize {
			z, ok := src.Recode()
			if !ok {
				t.Fatal("recode failed")
			}
			z.Object = id
			wire, err := packet.Marshal(z)
			if err != nil {
				t.Fatal(err)
			}
			frame := append([]byte{packet.FrameData}, wire...)
			wv, err := packet.ParseWire(frame[1:])
			if err != nil {
				t.Fatal(err)
			}
			batch = append(batch, inFrame{f: transport.NewFrame("peer", frame, nil), wv: wv})
		}
		return batch
	}

	// Warm up: learn the object and let the arenas and buckets grow.
	for i := 0; i < 8; i++ {
		s.ingestBatch(makeBatch(), &ingestScratch{}, false)
	}

	// Steady state: generating the batch is excluded by building it first.
	// AllocsPerRun(N) invokes the function N+1 times, and each ingested
	// frame is released (consumed), so every run needs a fresh batch.
	batches := make([][]inFrame, 21)
	for i := range batches {
		batches[i] = makeBatch()
	}
	next := 0
	scratch := &ingestScratch{}
	allocs := testing.AllocsPerRun(len(batches)-1, func() {
		s.ingestBatch(batches[next], scratch, false)
		next++
	})
	perPacket := allocs / batchSize
	// The object must still be decoding, or the run measured the wrong
	// path.
	objs := s.Objects()
	if len(objs) != 1 || objs[0].Complete {
		t.Fatalf("measurement left the live-decode regime: %+v", objs)
	}
	// Budget: resolver slice + decoder state growth (stored boxes, arena
	// chunks, index buckets) amortized over the batch. The pre-batching
	// path costs about 10 allocations per packet: see the allocs/op of
	// BenchmarkDecodeIngestScalar (about 1,040 to decode k = 64 from 98
	// frames, against 264 for BenchmarkDecodeIngestBatched).
	if perPacket > 2.0 {
		t.Errorf("session ingest allocates %.2f per packet, budget 2.0", perPacket)
	}
	t.Logf("session ingest: %.2f allocs/packet over %d-packet batches", perPacket, batchSize)
}

// discardTransport drops every frame it is asked to send, so that what a
// push round allocates is the push path's own.
type discardTransport struct{ *recTransport }

func (discardTransport) Send(transport.Addr, []byte) error { return nil }

// TestPushRowAllocBudget pins what a warmed push round costs per row on the
// degree-1 paths: nothing, for systematic rows and for repeats against a
// frontier alike. Each row is a packet off the push rounds' free list that
// stageRows hands back once its bytes are in the coalescer; drawn through
// packet.Native instead it cost four allocations (the packet, its vector
// and the vector's words, its payload). The round's fixed costs — the
// coalescer's per-peer batch, the plan — are the same at every burst, so
// the budget is the difference between a large round and a small one. The
// large round is the free list's own bound, maxFreeRows, not anything the
// pacer grants: rows past what the list keeps are the GC's by design.
func TestPushRowAllocBudget(t *testing.T) {
	const gens, kPer, m = 4, 1024, 64
	s, _, _ := pushSession(t, "src", func(c *Config) { c.Transport = discardTransport{newRecTransport("src")} })
	id, err := s.Serve(testContent(gens*kPer*m, 95), gens*kPer, gens)
	if err != nil {
		t.Fatal(err)
	}
	st := s.objects[id]
	s.coal = transport.NewCoalescer(s.tr, 0)
	unsettled := make([]sentNative, 0, maxUnsettled)
	frontier := make([][]byte, gens) // every native missing: the peer reports nothing decoded
	for g := range frontier {
		frontier[g] = make([]byte, packet.FrontierLen(kPer))
	}
	cursor := 0
	round := func(rows int, repeat bool) {
		// The peer's proof pass is over: every run has gone ahead of its rows.
		p := peerPlan{addr: "sink", burst: rows, sysCursor: cursor, unsettled: unsettled[:0], repairStep: 1, pass: -1}
		switch {
		case repeat:
			p.sysCursor, p.frontier = st.k, frontier
		case cursor+2*rows > st.k:
			cursor = 0 // start the pass over: every round draws rows natives
		default:
			cursor += rows
		}
		op := objectPlan{st: st, peers: []peerPlan{p}}
		s.emit(&op)
		s.coal.Flush()
		if p := op.peers[0]; p.sent != rows || p.sys+p.rep != rows || (p.rep == rows) != repeat {
			t.Fatalf("a round of %d rows sent %d: %d systematic, %d repeats", rows, p.sent, p.sys, p.rep)
		}
	}
	for _, repeat := range []bool{false, true} {
		for range 4 { // warm: the free list, the coalescer's slab and batch, rowBuf
			round(maxFreeRows, repeat)
		}
		small := testing.AllocsPerRun(50, func() { round(32, repeat) })
		large := testing.AllocsPerRun(50, func() { round(maxFreeRows, repeat) })
		if perRow := (large - small) / float64(maxFreeRows-32); perRow > 0 {
			t.Errorf("repeats %v: %.2f allocations per row (%v a round of 32, %v a round of %d), want none",
				repeat, perRow, small, large, maxFreeRows)
		}
	}
}

// TestUnitRowsTakeNoArenaRows: with the manifest in, a unit row is received
// straight into its slot of the object buffer, so a G = 1 object fed only
// unit rows — each native twice, the second copy redundant — takes no
// payload row from its arena: none handed out, and the free list as it
// was. The count is exact, and the same on every run.
func TestUnitRowsTakeNoArenaRows(t *testing.T) {
	const k, m = 64, 32
	content := testContent(k*m, 97)
	d := servedDesc(t, content, k, 1)
	id := d.Object
	for run := range 3 {
		f, _, _ := pushSession(t, "fetcher", nil)
		fetch, err := f.BeginFetch(id, "src")
		if err != nil {
			t.Fatal(err)
		}
		injectBurst(f, "src", manifestRuns(t, d, content))
		arena := f.objects[id].coder.Arena()
		_, free := arena.FreeCounts()
		handed := arena.RowsHanded()
		for x := range k {
			row := handRow(t, id, content, 1, k, 0, false, x)
			injectBurst(f, "src", [][]byte{row, row})
		}
		data, _, err, ok := fetch.Result()
		if !ok || err != nil || !bytes.Equal(data, content) {
			t.Fatalf("run %d: fetch ok=%v err=%v, bytes equal %v", run, ok, err, bytes.Equal(data, content))
		}
		if _, after := arena.FreeCounts(); arena.RowsHanded() != handed || after != free {
			t.Fatalf("run %d: the unit rows took %d rows from the arena, and its free list went %d → %d; want none taken, unchanged",
				run, arena.RowsHanded()-handed, free, after)
		}
		fetch.End()
	}
}
