package session

import (
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
			frame := append([]byte{frameData}, wire...)
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
	// path cost >10 allocations per packet on this shape (see
	// BENCH_decode.json).
	if perPacket > 2.0 {
		t.Errorf("session ingest allocates %.2f per packet, budget 2.0", perPacket)
	}
	t.Logf("session ingest: %.2f allocs/packet over %d-packet batches", perPacket, batchSize)
}
