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
// content, a receiver decodes every native into its slot of the one buffer
// Fetch returns, and the buffer is committed only to a manifest that hashes
// to the root the ID commits to.

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
// slots — one backing array, no joined copy. With the manifest in hand
// (it comes right behind the META) the buffer exists before the first
// generation completes, and the natives decode into it; without one
// nothing is committed and nothing completes, every generation decoded or
// not, until the manifest comes: then the natives move into their slots
// at once, and every generation verifies.
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
			frames := src.objects[id].manFrames
			if !verified {
				src.objects[id].manFrames = nil // the manifest stays at the source, for now
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
			if !verified {
				if ph := st.phaseNow(); ph != phDecoded || st.buf != nil {
					t.Fatalf("every generation in, no manifest: phase %v, object buffer %v; want decoded, none", ph, st.buf != nil)
				}
				src.objects[id].manFrames = frames
				pushTicks(src, srcClk, 1)
				route(src, f)
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
			if st.man == nil {
				t.Fatal("complete without the manifest")
			}
		})
	}
}

// TestServedContentNeverRecycled: the content a source serves is the
// caller's memory, and nothing the session does hands it to an arena or
// writes to it — not seeding, not vouching for it, not a fetch through a
// relay, not redundant and duplicate rows pushed back at it (a decoder
// that recycled natives it does not own would put the caller's bytes on
// the free list, for the next decode to overwrite).
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

// TestForgedManifestRefillsMovedGenerations: a forged stream completes
// every generation but one before any manifest is in, and no object buffer
// exists: nothing has hashed to the root yet. A manifest that a forger
// sends whole, but that does not hash to the root the ID commits to, is
// refused on arrival and its sender banned on the spot — nothing is
// adopted, no buffer committed, nothing verifies. The honest source's
// manifest is adopted with the buffer, and the forged natives move into
// their slots; the forged generations fail against it and are quarantined
// (their one solicited contributor banned), and the source's refill
// decodes into the same slots of the same buffer, verifies and completes
// byte-identically. Vigilant from the quarantine on, each refilled
// generation keeps its natives — its slots — as the audit reference.
func TestForgedManifestRefillsMovedGenerations(t *testing.T) {
	const gens, kPer, m = 4, 8, 16
	const k = gens * kPer
	content, forged := testContent(k*m, 93), testContent(k*m, 94)
	src, _, srcClk := pushSession(t, "src", nil)
	id, err := src.Serve(content, k, gens)
	if err != nil {
		t.Fatal(err)
	}
	_, meta := servedMeta(t, content, k, gens)
	f, fRec, fClk := pushSession(t, "fetcher", nil)
	fetch, err := f.BeginFetch(id, "mallory", "forger", "src")
	if err != nil {
		t.Fatal(err)
	}
	defer fetch.End()
	fRec.take() // the first REQs: the source is asked after the forgery

	injectFrame(f, "mallory", meta) // a true META: anyone may copy one
	st := f.objects[id]
	for g := range gens - 1 {
		for i := range kPer {
			injectFrame(f, "mallory", handRow(t, id, forged, gens, kPer, g, false, i))
		}
	}
	st.mu.Lock()
	if st.coder.CompleteCount() != gens-1 || st.buf != nil {
		t.Errorf("set-up: %d generations complete, object buffer %v; want %d, none", st.coder.CompleteCount(), st.buf != nil, gens-1)
	}
	st.mu.Unlock()
	injectBurst(f, "forger", manifestChunks(t, id, forged, m, 3))
	if b := f.BannedPeers(); len(b) != 1 || b[0] != "forger" {
		t.Fatalf("banned %v, want the forged manifest's sender", b)
	}
	if o, _ := f.Object(id); o.HaveManifest || o.GensVerified != 0 || o.Polluted != 0 {
		t.Fatalf("after the forged manifest: %+v; want it refused, nothing verified or quarantined", o)
	}
	st.mu.Lock()
	if st.buf != nil {
		t.Error("the forged manifest committed an object buffer")
	}
	st.mu.Unlock()
	checkPhaseInvariants(t, f)
	span := (gens - 1) * kPer * m
	var buf []byte // the buffer the true manifest commits

	// The probes wait on the banned forger until they time out; then the
	// honest source's refill is admitted.
	injectFrame(src, "fetcher", encodeReq(id))
	for tick := 0; tick < 4*gens; tick++ {
		pushTicks(src, srcClk, 1)
		route(src, f)
		checkPhaseInvariants(t, f)
		if tick == 0 {
			if b := f.BannedPeers(); len(b) != 2 || b[1] != "mallory" {
				t.Fatalf("banned %v after the true manifest, want mallory too: it alone filled the generations that failed", b)
			}
			st.mu.Lock()
			buf = st.buf
			placed := buf != nil && bytes.Equal(buf[:span], forged[:span])
			st.mu.Unlock()
			if !placed {
				t.Fatal("after the true manifest: the forged natives are not in their slots of an object buffer")
			}
			fClk.Advance(f.probeTimeout())
			f.probeSweep()
		}
	}
	data, stats, err, ok := fetch.Result()
	if !ok || err != nil || !bytes.Equal(data, content) || stats.Polluted != gens-1 {
		t.Fatalf("refill: ok=%v err=%v bytes equal %v, %d pollution events, want %d", ok, err, bytes.Equal(data, content), stats.Polluted, gens-1)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if &st.buf[0] != &buf[0] || &data[0] != &buf[0] {
		t.Fatal("the refill did not decode into the buffer the forged natives were placed in")
	}
	for g := range gens - 1 {
		nats := st.guard[g].natives
		if st.guard[g].state != genVerified || len(nats) != kPer || &nats[0][0] != &st.buf[g*kPer*m] {
			t.Fatalf("generation %d: guard state %d, the audit reference is not its slots of the object buffer", g, st.guard[g].state)
		}
	}
}

// TestObjectBufferNeedsAVerifiedGeneration pins "no manifest → no
// buffer": the largest object a META may announce — k at MaxK, m the
// largest a DATA frame of its generations carries, ≈ 4 GiB — costs a
// receiver nothing of that size while no manifest that hashes to the
// root the ID commits to has been adopted, not even with forged DATA
// completing generations.
func TestObjectBufferNeedsAVerifiedGeneration(t *testing.T) {
	relay, _, _ := pushSession(t, "relay", func(c *Config) { c.Relay = true })
	geo := geometry{gens: 4096, kPer: 16}
	geo.m = transport.MaxFrame - geo.wireSize()
	if !geo.admissible(relay.cfg.MaxK) || geo.gens*geo.kPer != relay.cfg.MaxK || (geometry{geo.gens, geo.kPer, geo.m + 1}).admissible(relay.cfg.MaxK) {
		t.Fatalf("set-up: %+v is not the largest admissible geometry for MaxK %d", geo, relay.cfg.MaxK)
	}
	k := geo.gens * geo.kPer
	id, meta := fakeObject("never served", k, geo.m, int64(k)*int64(geo.m), geo.gens)
	injectFrame(relay, "mallory", meta)
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

// TestForgedUnitRowNeverTouchesTheBuffer: once the manifest is adopted a
// unit row is digest-checked before it is received into its slot, so a
// forged one from a solicited upstream leaves the object buffer's bytes as
// they were — for a native still missing and for one decoded already —
// and its sender is banned; the true row that follows decodes into the
// slot.
func TestForgedUnitRowNeverTouchesTheBuffer(t *testing.T) {
	const gens, kPer, m = 2, 8, 16
	const g, x = 1, 3 // the forged native: generation g's x
	content := testContent(gens*kPer*m, 96)
	id, meta := servedMeta(t, content, gens*kPer, gens)
	f, _, _ := pushSession(t, "fetcher", nil)
	fetch, err := f.BeginFetch(id, "mallory", "eve", "src")
	if err != nil {
		t.Fatal(err)
	}
	defer fetch.End()
	injectFrame(f, "src", meta)
	injectBurst(f, "src", manifestChunks(t, id, content, m, 2))
	injectFrame(f, "src", handRow(t, id, content, gens, kPer, g, false, x-1))
	st := f.objects[id]
	st.mu.Lock()
	before := bytes.Clone(st.buf)
	st.mu.Unlock()
	if before == nil {
		t.Fatal("set-up: no object buffer with the manifest adopted")
	}
	injectFrame(f, "mallory", handRow(t, id, content, gens, kPer, g, true, x))
	injectFrame(f, "eve", handRow(t, id, content, gens, kPer, g, true, x-1))
	st.mu.Lock()
	if !bytes.Equal(st.buf, before) {
		t.Error("a forged unit row changed the object buffer")
	}
	if z := packet.New(kPer, m); st.coder.NativeRow(z, g*kPer+x) {
		t.Error("the forged native decoded")
	}
	st.mu.Unlock()
	if b := f.BannedPeers(); !slices.Equal(b, []transport.Addr{"eve", "mallory"}) {
		t.Fatalf("banned %v, want both forgers", b)
	}
	checkPhaseInvariants(t, f)
	injectFrame(f, "src", handRow(t, id, content, gens, kPer, g, false, x))
	st.mu.Lock()
	defer st.mu.Unlock()
	at := (g*kPer + x) * m
	if !bytes.Equal(st.buf[at:at+m], content[at:at+m]) || !st.genInBufLocked(g) {
		t.Fatal("the true unit row did not decode into its slot")
	}
}
