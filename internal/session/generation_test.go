package session

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"testing"
	"time"

	"ltnc/internal/generation"
	"ltnc/internal/packet"
	"ltnc/internal/transport"
)

// TestGenerationTransfer moves a generation-coded object source → fetch
// over the in-memory switch and checks the generation plumbing end to
// end: k is rounded onto the generation grid, every generation completes,
// the content reassembles byte-identically and the stats report
// per-generation progress.
func TestGenerationTransfer(t *testing.T) {
	const (
		size = 64 * 1024
		k    = 126 // deliberately not a multiple of G: Serve rounds up to 128
		gens = 4
	)
	sw, err := transport.NewSwitch(transport.SwitchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	content := testContent(size, 31)
	src := startSession(t, attach(t, sw, "src"), nil)
	dst := startSession(t, attach(t, sw, "dst"), nil)

	id, err := src.Serve(content, k, gens)
	if err != nil {
		t.Fatal(err)
	}
	srcStats, ok := src.Object(id)
	if !ok || srcStats.K != 128 || srcStats.KPer != 32 || srcStats.Generations != gens {
		t.Fatalf("source geometry wrong: %+v", srcStats)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	got, stats, err := dst.Fetch(ctx, id, "src")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatalf("content mismatch: %d bytes fetched", len(got))
	}
	if stats.Generations != gens || stats.GensComplete != gens {
		t.Fatalf("generation progress wrong: %+v", stats)
	}
	if len(stats.GenDecoded) != gens {
		t.Fatalf("GenDecoded has %d entries, want %d", len(stats.GenDecoded), gens)
	}
	for g, d := range stats.GenDecoded {
		if d != stats.KPer {
			t.Fatalf("generation %d decoded %d/%d", g, d, stats.KPer)
		}
	}
}

// TestGenFeedbackSteersPush: after a peer reports generation 0 complete
// (a report's flag), every subsequent push toward it must carry other
// generations only — whatever is left of the completed generation's
// systematic pass is passed over, and its redundancy stream never starts.
// The peer acknowledges every round, so receipts open the window as they
// would on the wire.
func TestGenFeedbackSteersPush(t *testing.T) {
	const (
		k    = 64
		gens = 2
	)
	sw, err := transport.NewSwitch(transport.SwitchConfig{QueueDepth: 256})
	if err != nil {
		t.Fatal(err)
	}
	srcTr := attach(t, sw, "src")
	peerTr := attach(t, sw, "peer")
	s, err := New(Config{Transport: srcTr, Tick: time.Hour, Seed: 7}) // manual pushes only
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.AddPeer("peer")
	id, err := s.Serve(testContent(4096, 8), k, gens)
	if err != nil {
		t.Fatal(err)
	}

	drain := func() []packet.Header {
		var hs []packet.Header
		for {
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			f, err := peerTr.Recv(ctx)
			cancel()
			if err != nil {
				return hs
			}
			if len(f.Data) > 0 && f.Data[0] == packet.FrameData {
				if h, err := packet.ReadHeader(bytes.NewReader(f.Data[1:])); err == nil {
					hs = append(hs, h)
				}
			}
			f.Release()
		}
	}
	// acked pushes one round and has the peer acknowledge every row sent so
	// far, returning the rows the round sent.
	acked := func() int {
		before := s.objects[id].sent
		s.push()
		n := uint32(s.objects[id].sent)
		s.handleFrame(transport.NewFrame("peer", receiptFrame(id, 1, n, n), nil))
		return int(int64(n) - before)
	}

	// Before feedback: the systematic pass walks generation 0 first, in
	// order, the start window's worth in this push.
	acked()
	for i, h := range drain() {
		if h.Generation != 0 || h.Vec.PopCount() != 1 || h.Vec.LowestSet() != i {
			t.Fatalf("row %d of the pass: generation %d, vector %v; want native %d of generation 0", i, h.Generation, h.Vec, i)
		}
	}

	// Peer reports generation 0 complete, most of its pass unsent, every
	// row sent so far acknowledged.
	n := uint32(s.objects[id].sent)
	s.handleFrame(transport.NewFrame("peer", reportFrame(packet.Report{Object: id, Flags: packet.ReportGenComplete, Received: n, Innovative: n}), nil))

	seen := map[uint32]int{}
	sent := 0
	for i := 0; i < 16; i++ {
		sent += acked()
	}
	coded := 0
	for _, h := range drain() {
		seen[h.Generation]++
		if h.Vec.PopCount() > 1 {
			coded++
		}
	}
	if seen[0] != 0 {
		t.Fatalf("generation 0 still pushed after completion feedback: %v", seen)
	}
	if seen[1] != sent {
		t.Fatalf("generation 1 got %d rows of %d after feedback for generation 0: %v", seen[1], sent, seen)
	}
	if coded == 0 {
		t.Fatalf("no coded repair followed generation 1's %d-row pass in %d rows", k/gens, seen[1])
	}
}

// TestMetaGenerationMismatchDropped: a MANIFEST frame whose description's
// generation count disagrees with the local decode state must be dropped,
// a malformed count must never create state, and neither does the retired
// META.
func TestMetaGenerationMismatchDropped(t *testing.T) {
	sw, err := transport.NewSwitch(transport.SwitchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	tr := attach(t, sw, "relay")
	s, err := New(Config{Transport: tr, Relay: true, Tick: time.Hour, MaxK: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Ragged split (k not divisible by G) never creates state, whatever ID
	// it hashes to.
	_, ragged := fakeObject("ragged", 100, 16, 1600, 3)
	s.handleFrame(transport.NewFrame("peer", ragged, nil))
	if len(s.Objects()) != 0 {
		t.Fatal("ragged generation split created state")
	}
	// A valid description learns the object with G=4.
	id, good := fakeObject("gen meta object", 128, 16, 2048, 4)
	desc := func(k, m int, size int64, gens int) []byte {
		return descFor(id, k, m, size, gens, sha256.Sum256([]byte("gen meta object")))
	}
	s.handleFrame(transport.NewFrame("peer", good, nil))
	objs := s.Objects()
	if len(objs) != 1 || objs[0].Generations != 4 || objs[0].KPer != 32 {
		t.Fatalf("description mislearned: %+v", objs)
	}
	// Conflicting count for the same object: dropped, state unchanged.
	s.handleFrame(transport.NewFrame("peer", desc(128, 16, 2048, 2), nil))
	objs = s.Objects()
	if len(objs) != 1 || objs[0].Generations != 4 {
		t.Fatalf("G mismatch mutated state: %+v", objs)
	}
	// The retired META, both its lengths, creates no state; G = 1 is a
	// count like any other.
	id2, single := fakeObject("single generation meta object", 16, 8, 128, 1)
	meta := retiredMeta(packet.ManifestChunk{Object: id2, K: 16, M: 8, Size: 128, Gens: 1,
		Root: sha256.Sum256([]byte("single generation meta object"))})
	for _, fr := range [][]byte{meta, meta[:37]} {
		s.handleFrame(transport.NewFrame("peer", fr, nil))
	}
	if len(s.Objects()) != 1 {
		t.Fatalf("the retired META created state: %+v", s.Objects())
	}
	s.handleFrame(transport.NewFrame("peer", single, nil))
	found := false
	for _, o := range s.Objects() {
		if o.ID == id2 {
			found = true
			if o.Generations != 1 || o.KPer != 16 {
				t.Fatalf("single-generation description mislearned: %+v", o)
			}
		}
	}
	if !found {
		t.Fatal("single-generation description did not create state")
	}
}

// TestBadGenerationDataDropped: DATA frames whose generation id or count
// disagree with the object's coder are dropped without touching the
// decode state — the session-side face of ErrBadGeneration.
func TestBadGenerationDataDropped(t *testing.T) {
	const (
		k    = 32
		gens = 2
		kPer = 16
	)
	s, err := New(Config{Transport: newRecTransport("relay"), Relay: true, Tick: time.Hour, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// A source coder recodes genuine frames we can then corrupt.
	src, err := generation.New(generation.Options{Generations: gens, KPerGeneration: kPer, M: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	natives := make([][]byte, k)
	for i := range natives {
		natives[i] = []byte{byte(i), 0, 0, 0}
	}
	if err := src.Seed(natives); err != nil {
		t.Fatal(err)
	}
	id := packet.NewObjectID([]byte("bad gen object"))
	inject := func(mut func(*packet.Packet)) {
		z, ok := src.Recode(nil)
		if !ok {
			t.Fatal("recode failed")
		}
		z.Object = id
		if mut != nil {
			mut(z)
		}
		wire, err := packet.Marshal(z)
		if err != nil {
			t.Fatal(err)
		}
		injectFrame(s, "peer", append([]byte{packet.FrameData}, wire...))
	}

	inject(nil) // learn the object with the true geometry
	objs := s.Objects()
	if len(objs) != 1 || objs[0].Generations != gens || objs[0].Received != 1 {
		t.Fatalf("object not learned: %+v", objs)
	}
	// Claimed count 4 disagrees with local G=2: dropped.
	inject(func(z *packet.Packet) { z.Generations = 4 })
	// Gen-absent frame for a structured object: dropped.
	inject(func(z *packet.Packet) { z.Generations = 0; z.Generation = 0 })
	if o, _ := s.Object(id); o.Received != 1 {
		t.Fatalf("mismatched-geometry frames were decoded: %+v", o)
	}

	// And the error the coder raises for these is the typed sentinel.
	st := s.objects[id]
	st.mu.Lock()
	err = st.coder.Check(4, 0, kPer)
	st.mu.Unlock()
	if !errors.Is(err, generation.ErrBadGeneration) || !errors.Is(err, packet.ErrBadPacket) {
		t.Fatalf("Check err = %v, want ErrBadGeneration wrapping ErrBadPacket", err)
	}
}

// TestWatchMonotoneAcrossGenerations subscribes a watcher before any
// packet arrives and asserts every snapshot is monotone in Decoded,
// GensComplete and per-generation decoded counts while a 4-generation
// object completes out of whatever order the switch delivers.
func TestWatchMonotoneAcrossGenerations(t *testing.T) {
	const (
		size = 32 * 1024
		k    = 64
		gens = 4
	)
	sw, err := transport.NewSwitch(transport.SwitchConfig{
		LossRate: 0.05,
		Jitter:   300 * time.Microsecond,
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	content := testContent(size, 77)
	src := startSession(t, attach(t, sw, "src"), nil)
	dst := startSession(t, attach(t, sw, "dst"), nil)

	id := servedDesc(t, content, k, gens).Object
	type snap struct {
		decoded, gensComplete int
		genDecoded            []int
	}
	snaps := make(chan snap, 4096)
	cancel := dst.Watch(id, func(o ObjectStats) {
		select {
		case snaps <- snap{o.Decoded, o.GensComplete, o.GenDecoded}:
		default:
		}
	})
	defer cancel()

	if _, err := src.Serve(content, k, gens); err != nil {
		t.Fatal(err)
	}
	ctx, cancelFetch := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancelFetch()
	got, _, err := dst.Fetch(ctx, id, "src")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("content mismatch under loss and reorder")
	}

	var prev snap
	n := 0
	for {
		var cur snap
		select {
		case cur = <-snaps:
		default:
			if n == 0 {
				t.Fatal("watcher saw no snapshots")
			}
			return
		}
		n++
		if cur.decoded < prev.decoded || cur.gensComplete < prev.gensComplete {
			t.Fatalf("snapshot regressed: %+v after %+v", cur, prev)
		}
		for g := range cur.genDecoded {
			if g < len(prev.genDecoded) && cur.genDecoded[g] < prev.genDecoded[g] {
				t.Fatalf("generation %d regressed: %v after %v", g, cur.genDecoded, prev.genDecoded)
			}
		}
		prev = cur
	}
}
