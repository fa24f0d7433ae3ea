package session

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"ltnc/internal/packet"
	"ltnc/internal/transport"
)

// TestCacheServesFetcher is the edge-cache tier end to end: the origin
// pushes to a budgeted cache session, the cache absorbs full rank
// without ever decoding and stops the origin with completion feedback,
// and a fetcher that only knows the cache gets byte-identical content.
func TestCacheServesFetcher(t *testing.T) {
	sw, err := transport.NewSwitch(transport.SwitchConfig{QueueDepth: 1024, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	src := startSession(t, attach(t, sw, "origin"), nil)
	cacheSess := startSession(t, attach(t, sw, "cache"), func(c *Config) {
		c.CacheBudget = 256 * 1024
	})
	client := startSession(t, attach(t, sw, "client"), nil)

	content := testContent(64*1024, 7)
	id, err := src.Serve(content, 128, 4)
	if err != nil {
		t.Fatal(err)
	}
	src.AddPeer("cache")

	// The cache reaches full rank for every generation purely from the
	// push stream (no subscription, no decode).
	deadline := time.Now().Add(20 * time.Second)
	for {
		cs, ok := cacheSess.CacheStats()
		if !ok {
			t.Fatal("cache session reports no cache")
		}
		if cs.GenerationsFull == 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cache never filled: %+v", cs)
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	got, stats, err := client.Fetch(ctx, id, "cache")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatalf("content mismatch: %d bytes fetched, %d served", len(got), len(content))
	}
	t.Logf("fetched %d bytes via cache, overhead %.3f", len(got), stats.Overhead())

	// The cache held the object the whole time without decoding a native.
	var cached *ObjectStats
	for _, o := range cacheSess.Objects() {
		if o.ID == id {
			o := o
			cached = &o
		}
	}
	if cached == nil {
		t.Fatal("cache session does not hold the object")
	}
	if !cached.Cached || cached.Generations != 4 {
		t.Fatalf("object not in cache mode with its 4 generations: %+v", cached)
	}
	if cached.Decoded != 0 {
		t.Fatalf("cache decoded %d natives; a partial cache must never decode", cached.Decoded)
	}
	cs, _ := cacheSess.CacheStats()
	if cs.ServedFrames == 0 {
		t.Fatal("cache served no frames")
	}
	if cs.Rows != 128 {
		t.Fatalf("cache holds %d rows, want full rank 128", cs.Rows)
	}
}

// TestCacheIdleEvictionPartial: an idle, partially-cached object (the
// budget forced NoRoom before full rank) is evicted like any other idle
// state, and its cache bytes are returned to the budget — cache
// retention must not defeat idle eviction.
func TestCacheIdleEvictionPartial(t *testing.T) {
	sw, err := transport.NewSwitch(transport.SwitchConfig{QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	// Budget fits the entry overhead plus 4 of the object's 8 rows.
	const rowCost = 1 + 4 + 16 // ceil(8/8) vec + m=4 payload + RowOverhead
	cacheSess := startSession(t, attach(t, sw, "cache"), func(c *Config) {
		c.CacheBudget = 128 + 4*rowCost
		c.Tick = time.Millisecond
		c.IdleTimeout = 50 * time.Millisecond
	})
	probe := attach(t, sw, "probe")
	defer probe.Close()

	id := packet.NewObjectID([]byte("partial idle"))
	for i := 0; i < 6; i++ {
		p := packet.Native(8, i, []byte{byte(i), 1, 2, 3})
		p.Object = id
		wire, err := packet.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := probe.Send("cache", append([]byte{packet.FrameData}, wire...)); err != nil {
			t.Fatal(err)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		cs, _ := cacheSess.CacheStats()
		if cs.Rows == 4 && cs.RejectedNoRoom > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cache never partially filled: %+v", cs)
		}
		time.Sleep(time.Millisecond)
	}
	for len(cacheSess.Objects()) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("partially-cached object not evicted; holds %+v", cacheSess.Objects())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if cs, _ := cacheSess.CacheStats(); cs.Used != 0 {
		t.Fatalf("eviction leaked cache bytes: used = %d", cs.Used)
	}
}

// TestCachePromoteOnFetch: a session fetching an object it already holds
// as a full partial cache promotes the cached rows into a decoder and
// completes without needing a single fresh packet.
func TestCachePromoteOnFetch(t *testing.T) {
	sw, err := transport.NewSwitch(transport.SwitchConfig{QueueDepth: 1024, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	src := startSession(t, attach(t, sw, "origin"), nil)
	cacheSess := startSession(t, attach(t, sw, "cache"), func(c *Config) {
		c.CacheBudget = 256 * 1024
	})

	content := testContent(32*1024, 3)
	id, err := src.Serve(content, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	src.AddPeer("cache")

	// Wait for full coverage and a known size (the origin's manifest run).
	deadline := time.Now().Add(20 * time.Second)
	for {
		cs, _ := cacheSess.CacheStats()
		sized := false
		for _, o := range cacheSess.Objects() {
			if o.ID == id && o.Size >= 0 {
				sized = true
			}
		}
		if cs.GenerationsFull == 2 && sized {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cache never filled with size known: %+v", cs)
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	got, stats, err := cacheSess.Fetch(ctx, id, "origin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("promoted fetch returned wrong content")
	}
	if stats.Cached {
		t.Fatal("object still marked cached after promotion")
	}
	if stats.Decoded != 64 {
		t.Fatalf("decoded %d natives after promotion, want 64", stats.Decoded)
	}
	// The cache entry was drained into the decoder.
	if cs, _ := cacheSess.CacheStats(); cs.Objects != 0 {
		t.Fatalf("cache still holds %d objects after promotion", cs.Objects)
	}
}

// TestPeerTableBounded: the per-object peer table stops growing at
// maxPeersPerObject — a flood of subscription reports from distinct
// (spoofable) addresses must not allocate unbounded push/steering state —
// and what may subscribe no one does not: a stranger's complete report, a
// banned peer's report, and a report for an object a plain session does
// not hold.
func TestPeerTableBounded(t *testing.T) {
	sw, err := transport.NewSwitch(transport.SwitchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	src := startSession(t, attach(t, sw, "origin"), func(c *Config) {
		c.Tick = time.Hour // passive: no pushes interfere
	})
	id, err := src.Serve(testContent(1024, 5), 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	report := func(addr transport.Addr, frame []byte) *peerState {
		src.handleFeedback(addr, frame[1:])
		src.mu.Lock()
		defer src.mu.Unlock()
		if st := src.objects[id]; st != nil {
			return st.peers[addr]
		}
		return nil
	}
	for i := 0; i < maxPeersPerObject+50; i++ {
		if ps := report(transport.Addr(fmt.Sprintf("p%d", i)), subReport(id)); ps == nil || !ps.subscribed {
			t.Fatalf("subscription %d subscribed no one", i)
		}
	}
	src.mu.Lock()
	n := len(src.objects[id].peers)
	src.mu.Unlock()
	if n > maxPeersPerObject {
		t.Fatalf("peer table grew to %d entries, bound is %d", n, maxPeersPerObject)
	}
	if n < maxPeersPerObject {
		t.Fatalf("peer table holds %d entries; eviction dropped more than one per subscription", n)
	}
	src.mu.Lock()
	src.banned["mallory"] = struct{}{}
	src.mu.Unlock()
	if ps := report("stranger", completeReport(id)); ps != nil {
		t.Errorf("a stranger's complete report made a peer entry: %+v", ps)
	}
	if ps := report("mallory", subReport(id)); ps != nil {
		t.Errorf("a banned peer's report subscribed it: %+v", ps)
	}
	other := packet.NewObjectID([]byte("nobody here holds it"))
	src.handleFeedback("stranger", subReport(other)[1:])
	if _, held := src.Object(other); held {
		t.Error("a plain session took state for an unknown object from a report")
	}
}

// TestCacheReqDrawsOnlyMeta: a subscription to a cache-mode session for an
// object it holds, described, is answered by nothing, and so is the next
// push round: the cache holds no run of the manifest, the object's
// description alone proves nothing (there is no META to send any more), and
// its rows wait for a run. Once the run is adopted, the round after sends it
// ahead of every row. The cached object reports its generation count like
// any shaped object.
func TestCacheReqDrawsOnlyMeta(t *testing.T) {
	const gens, kPer, m = 2, 8, 16
	content := testContent(gens*kPer*m, 41)
	d := servedDesc(t, content, gens*kPer, gens)
	id := d.Object
	s, rec, _ := pushSession(t, "cache", func(cfg *Config) { cfg.CacheBudget = 1 << 20 })
	injectFrame(s, "origin", descFrame(d))
	for g := 0; g < gens; g++ {
		for i := 0; i < kPer; i++ {
			injectFrame(s, "origin", handRow(t, id, content, gens, kPer, g, false, i))
		}
	}
	if o, ok := s.Object(id); !ok || !o.Cached || o.Size != int64(len(content)) || o.Generations != gens || o.KPer != kPer {
		t.Fatalf("set-up: %+v, want a sized cached object of %d generations of %d", o, gens, kPer)
	}
	rec.take()
	injectFrame(s, "fetcher", subReport(id))
	if got := rec.take()["fetcher"]; len(got) != 0 {
		t.Fatalf("the subscription drew %d frames (%q), want none", len(got), kinds(got))
	}
	s.push()
	if got := rec.take()["fetcher"]; len(got) != 0 {
		t.Fatalf("the round after the subscription sent %d frames (%q), want none: no run is held", len(got), kinds(got))
	}
	injectBurst(s, "origin", manifestRuns(t, d, content))
	rec.take()
	s.push()
	got := rec.take()["fetcher"]
	if len(got) < 2 || got[0][0] != packet.FrameManifest || slices.ContainsFunc(got[1:], func(f []byte) bool { return f[0] != packet.FrameData }) {
		t.Fatalf("the round after the run was adopted sent %q, want the run, then rows", kinds(got))
	}
}
