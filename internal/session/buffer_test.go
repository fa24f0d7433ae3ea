package session

import (
	"bytes"
	"crypto/sha256"
	"maps"
	"slices"
	"testing"
	"unsafe"

	"ltnc/internal/packet"
	"ltnc/internal/transport"
)

// One copy per object (DESIGN.md §4): the source serves the caller's
// content, a receiver decodes each verified generation into the one buffer
// Fetch returns, and the buffer is committed only once a peer has earned it.

// route hands every frame the nodes' recorders hold to the node it is
// addressed to, senders and destinations in a fixed order; frames to
// anyone else are dropped.
func route(nodes ...*Session) {
	for _, from := range nodes {
		rec := from.tr.(*recTransport)
		sent := rec.take()
		for _, to := range slices.Sorted(maps.Keys(sent)) {
			for _, dst := range nodes {
				if dst.LocalAddr() == to {
					injectBurst(dst, rec.self, sent[to])
				}
			}
		}
	}
}

// within reports whether row r lies in buf's memory.
func within(r, buf []byte) bool {
	p, lo := uintptr(unsafe.Pointer(unsafe.SliceData(r))), uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
	return len(r) > 0 && p >= lo && p < lo+uintptr(len(buf))
}

// TestFetchedContentIsTheNatives: at a fetcher (G = 4) the bytes Fetch
// returns are the object buffer, and every generation's natives are its
// slots — one backing array, no joined copy. With the manifest in hand the
// buffer appears when the first generation verifies and each generation
// moves in as it does; without one nothing is committed before assembly,
// which moves them all.
func TestFetchedContentIsTheNatives(t *testing.T) {
	const gens, kPer, m = 4, 16, 32
	for _, verified := range []bool{true, false} {
		t.Run(map[bool]string{true: "verified", false: "assembled"}[verified], func(t *testing.T) {
			content := testContent(gens*kPer*m, 91)
			src, _, srcClk := pushSession(t, "src", nil)
			id, err := src.Serve(content, gens*kPer, gens)
			if err != nil {
				t.Fatal(err)
			}
			f, _, _ := pushSession(t, "fetcher", nil)
			fetch, err := f.BeginFetch(id, "src")
			if err != nil {
				t.Fatal(err)
			}
			defer fetch.End()
			if !verified {
				src.objects[id].manFrames = nil // the manifest never leaves the source
			}
			st := f.objects[id]
			sawPartial := false
			for tick := 0; tick < 4*gens*2+8; tick++ {
				pushTicks(src, srcClk, 1)
				route(src, f)
				st.mu.Lock()
				if st.phase == phFilling && st.coder.CompleteCount() > 0 {
					if hasBuf := st.buf != nil; hasBuf != verified {
						t.Errorf("%d of %d generations complete: object buffer %v", st.coder.CompleteCount(), gens, hasBuf)
					}
					sawPartial = true
				}
				st.mu.Unlock()
				checkPhaseInvariants(t, f)
			}
			data, _, err, ok := fetch.Result()
			if !ok || err != nil || !bytes.Equal(data, content) {
				t.Fatalf("fetch: ok=%v err=%v, bytes equal %v", ok, err, bytes.Equal(data, content))
			}
			if !sawPartial {
				t.Fatal("set-up: no round ended with the object partly complete")
			}
			st.mu.Lock()
			defer st.mu.Unlock()
			if &data[0] != &st.buf[0] || cap(data) != len(content) {
				t.Fatal("the content Fetch returned is not the object buffer")
			}
			for g := range gens {
				if !st.genInBufLocked(g) {
					t.Fatalf("generation %d's natives are not the object buffer's slots", g)
				}
			}
			if (st.man != nil) != verified {
				t.Fatalf("manifest held: %v", st.man != nil)
			}
		})
	}
}

// TestServedContentNeverRecycled: the content a source serves is the
// caller's memory, and nothing the session does hands it to an arena or
// writes to it — not seeding, not vouching for it (which moves every
// generation into the content as the object buffer: a move that copied
// natives already in their slots and recycled them would put the caller's
// bytes on the free list, for the next decode to overwrite), not a fetch
// through a relay, not redundant and duplicate rows pushed back at it.
func TestServedContentNeverRecycled(t *testing.T) {
	const gens, kPer, m = 4, 16, 32
	content := testContent(gens*kPer*m, 92)
	sum := sha256.Sum256(content)
	src, _, srcClk := pushSession(t, "src", nil)
	src.AddPeer("relay")
	id, err := src.Serve(content, gens*kPer, gens)
	if err != nil {
		t.Fatal(err)
	}
	relay, relayRec, relayClk := pushSession(t, "relay", func(c *Config) { c.Relay = true })
	f, _, _ := pushSession(t, "fetcher", nil)
	fetch, err := f.BeginFetch(id, "relay")
	if err != nil {
		t.Fatal(err)
	}
	defer fetch.End()
	var rows [][]byte // what the relay sent the fetcher
	for tick := 0; tick < 4*gens*4; tick++ {
		pushTicks(src, srcClk, 1)
		pushTicks(relay, relayClk, 1)
		for _, fr := range relayRec.frames["fetcher"] {
			if fr[0] == frameData {
				rows = append(rows, fr)
			}
		}
		route(src, relay, f)
	}
	data, _, err, ok := fetch.Result()
	if !ok || err != nil || !bytes.Equal(data, content) {
		t.Fatalf("fetch through the relay: ok=%v err=%v", ok, err)
	}
	// Back at the source: every row the fetcher got (natives the source
	// holds: duplicates), and coded rows over them (redundant).
	injectBurst(src, "relay", rows)
	for g := range gens {
		injectFrame(src, "fetcher", handRow(t, id, content, gens, kPer, g, false, 0, 1, kPer-1))
	}
	pushTicks(src, srcClk, 4)
	checkPhaseInvariants(t, src)
	for _, s := range []*Session{src, relay, f} {
		if o, _ := s.Object(id); o.Polluted != 0 {
			t.Fatalf("%s quarantined %d times", s.LocalAddr(), o.Polluted)
		}
	}
	if sha256.Sum256(content) != sum {
		t.Fatal("the served content changed")
	}
	arena := src.objects[id].coder.Arena()
	_, n := arena.FreeCounts()
	free := make([][]byte, n)
	for i := range free {
		free[i] = arena.Row()
	}
	for _, r := range free {
		if within(r, content) {
			t.Fatal("a row of the served content is on the source's arena free list")
		}
		arena.PutRow(r)
	}
}

// TestForgedManifestRefillsMovedGenerations: a forged manifest that every
// generation of a forged stream verifies against moves all of them into
// the object buffer; the content-ID check refuses the assembly, the
// manifest is proven forged and its sender banned, every generation is
// quarantined — the buffer, empty again, is let go — and the honest
// source's refill verifies, moves in anew and completes byte-identically.
// Vigilant from the quarantine on, each refilled generation keeps its
// moved natives, not the rows they left, as the audit reference.
func TestForgedManifestRefillsMovedGenerations(t *testing.T) {
	const gens, kPer, m = 4, 8, 16
	const k = gens * kPer
	content, forged := testContent(k*m, 93), testContent(k*m, 94)
	src, _, srcClk := pushSession(t, "src", nil)
	id, err := src.Serve(content, k, gens)
	if err != nil {
		t.Fatal(err)
	}
	f, fRec, fClk := pushSession(t, "fetcher", nil)
	fetch, err := f.BeginFetch(id, "mallory", "src")
	if err != nil {
		t.Fatal(err)
	}
	defer fetch.End()
	fRec.take() // the first REQs: the source is asked after the forgery

	injectFrame(f, "mallory", metaFor(id, k, m, int64(len(content)), gens))
	injectBurst(f, "mallory", manifestChunks(t, id, forged, m, 1))
	st := f.objects[id]
	for g := range gens {
		for i := range kPer {
			injectFrame(f, "mallory", handRow(t, id, forged, gens, kPer, g, false, i))
		}
		if g < gens-1 {
			st.mu.Lock()
			moved := st.guard[g].state == genVerified && st.genInBufLocked(g)
			st.mu.Unlock()
			if !moved {
				t.Fatalf("generation %d did not verify against the forged manifest and move", g)
			}
			checkPhaseInvariants(t, f)
		}
	}
	st.mu.Lock()
	for g := range gens {
		if st.guard[g].state != genQuarantined {
			t.Errorf("generation %d guard state %d after the refused assembly, want quarantined", g, st.guard[g].state)
		}
	}
	if st.phase != phFilling || st.buf != nil || st.man != nil {
		t.Errorf("after the refused assembly: phase %v, buffer held %v, manifest held %v; want filling, neither", st.phase, st.buf != nil, st.man != nil)
	}
	st.mu.Unlock()
	if b := f.BannedPeers(); len(b) != 1 || b[0] != "mallory" {
		t.Fatalf("banned %v, want the forged manifest's sender", b)
	}
	checkPhaseInvariants(t, f)

	// The probes wait on the banned forger until they time out; then the
	// honest source's refill is admitted.
	fClk.Advance(f.probeTimeout())
	f.probeSweep()
	fRec.take()
	injectFrame(src, "fetcher", encodeReq(id))
	for tick := 0; tick < 4*gens; tick++ {
		pushTicks(src, srcClk, 1)
		route(src, f)
		checkPhaseInvariants(t, f)
	}
	data, stats, err, ok := fetch.Result()
	if !ok || err != nil || !bytes.Equal(data, content) || stats.Polluted == 0 {
		t.Fatalf("refill: ok=%v err=%v bytes equal %v, %d pollution events", ok, err, bytes.Equal(data, content), stats.Polluted)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	for g := range gens {
		nats := st.guard[g].natives
		if st.guard[g].state != genVerified || len(nats) != kPer || &nats[0][0] != &st.buf[g*kPer*m] {
			t.Fatalf("generation %d: guard state %d, the audit reference is not its slots of the object buffer", g, st.guard[g].state)
		}
	}
}

// TestObjectBufferNeedsAVerifiedGeneration: the largest object a META may
// announce — k at MaxK, m the largest a DATA frame of its generations
// carries, ≈ 4 GiB — costs a receiver nothing of that size while nobody has
// earned it: forged DATA completes generations, but with no manifest there
// is nothing to verify them against, and no object buffer exists until
// every generation is in.
func TestObjectBufferNeedsAVerifiedGeneration(t *testing.T) {
	relay, _, _ := pushSession(t, "relay", func(c *Config) { c.Relay = true })
	geo := geometry{gens: 4096, kPer: 16}
	geo.m = transport.MaxFrame - geo.wireSize()
	if !geo.admissible(relay.cfg.MaxK) || geo.gens*geo.kPer != relay.cfg.MaxK || (geometry{geo.gens, geo.kPer, geo.m + 1}).admissible(relay.cfg.MaxK) {
		t.Fatalf("set-up: %+v is not the largest admissible geometry for MaxK %d", geo, relay.cfg.MaxK)
	}
	k := geo.gens * geo.kPer
	id := packet.NewObjectID([]byte("never served"))
	injectFrame(relay, "mallory", metaFor(id, k, geo.m, int64(k)*int64(geo.m), geo.gens))
	payload := make([]byte, geo.m)
	for g := range 4 {
		for i := range geo.kPer {
			payload[0], payload[1] = byte(g), byte(i)
			z := packet.Native(geo.kPer, i, payload)
			z.Object, z.Generation, z.Generations = id, uint32(g), uint32(geo.gens)
			wire, err := packet.Marshal(z)
			if err != nil {
				t.Fatal(err)
			}
			injectFrame(relay, "mallory", append([]byte{frameData}, wire...))
		}
	}
	st := relay.objects[id]
	if st == nil {
		t.Fatal("set-up: the forged META created no state")
	}
	st.mu.Lock()
	complete, buffered := st.coder.CompleteCount(), st.buf != nil
	st.mu.Unlock()
	if complete != 4 {
		t.Fatalf("set-up: %d generations complete, want 4", complete)
	}
	if buffered {
		t.Fatal("forged DATA without a manifest committed an object buffer")
	}
	checkPhaseInvariants(t, relay)
}
