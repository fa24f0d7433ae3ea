package session

import (
	"bytes"
	"encoding/binary"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"ltnc/internal/integrity"
	"ltnc/internal/lt"
	"ltnc/internal/packet"
	"ltnc/internal/transport"
)

// phaseNow is the tests' accessor to an object's phase.
func (st *objectState) phaseNow() phase {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.phase
}

// checkPhaseInvariants holds every object in the session's table to what
// its phase promises: a coder (and its guards) exactly while filling,
// decoded or complete; rows in the cache only while caching; done closed
// exactly when complete; and nothing evicted still in the table.
func checkPhaseInvariants(tb testing.TB, s *Session) {
	tb.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, st := range s.objects {
		st.mu.Lock()
		ph := st.phase
		if ph == phEvicted {
			tb.Errorf("%v: evicted, still in the table", id)
		}
		if (st.coder != nil) != ph.decoding() {
			tb.Errorf("%v: phase %v, coder present: %v", id, ph, st.coder != nil)
		}
		if ph.decoding() && (len(st.guard) != st.coder.Generations() || len(st.proof) != st.k) {
			tb.Errorf("%v: phase %v with %d guards and %d proofs for G=%d k=%d", id, ph, len(st.guard), len(st.proof), st.coder.Generations(), st.k)
		}
		if st.shaped() == (ph == phAnnounced) {
			tb.Errorf("%v: phase %v, geometry fixed: %v", id, ph, st.shaped())
		}
		if (st.data != nil) != (ph == phComplete) {
			tb.Errorf("%v: phase %v, content assembled: %v", id, ph, st.data != nil)
		}
		if ph.decoding() {
			checkObjectBufferLocked(tb, id, st, ph)
		} else if st.buf != nil {
			tb.Errorf("%v: phase %v with an object buffer", id, ph)
		}
		closed := false
		select {
		case <-st.done:
			closed = true
		default:
		}
		if closed != (ph == phComplete) {
			tb.Errorf("%v: phase %v, done closed: %v", id, ph, closed)
		}
		if s.cache != nil {
			if _, held := s.cache.Coverage(id); held && ph != phCaching {
				tb.Errorf("%v: phase %v with rows in the cache", id, ph)
			}
		}
		// What is kept of a peer's frontier: only where rows are drawn from a
		// coder, at most k bits and the rows a link can have in flight.
		for addr, ps := range st.peers {
			held := 0
			for _, f := range ps.frontier {
				held += len(f)
			}
			if gens := int(st.gens.Load()); (held > 0 && !ph.decoding()) || len(ps.frontier) > gens || held > gens*frontierLen(st.kPer) || len(ps.unsettled) > maxUnsettled {
				tb.Errorf("%v: phase %v keeps %d frontier bytes in %d generations and %d rows in flight for %s (G=%d k/G=%d)",
					id, ph, held, len(ps.frontier), len(ps.unsettled), addr, gens, st.kPer)
			}
		}
		st.mu.Unlock()
	}
}

// checkObjectBufferLocked holds an object's buffer to its rule: a filling
// or decoded object with m > 0 has one exactly while it holds an adopted
// manifest — a receiver commits k·m bytes to a manifest that hashes to the
// root the ID commits to, and to nothing less — unless k·m bytes overflow
// an int (32-bit builds), where it never has one. Where there is a buffer
// it is k·m bytes, every native decoded here sits in its slot, and once
// complete the content is its head. st.mu must be held.
func checkObjectBufferLocked(tb testing.TB, id packet.ObjectID, st *objectState, ph phase) {
	tb.Helper()
	fits := int64(st.k)*int64(st.m) <= math.MaxInt
	if (ph == phFilling || ph == phDecoded) && st.m > 0 && (st.buf != nil) != (st.man != nil && fits) {
		tb.Errorf("%v: phase %v, object buffer %v, manifest adopted %v", id, ph, st.buf != nil, st.man != nil)
	}
	if st.buf == nil {
		return
	}
	if len(st.buf) != st.k*st.m {
		tb.Errorf("%v: a %d-byte object buffer for k=%d m=%d", id, len(st.buf), st.k, st.m)
	}
	for g := range st.guard {
		if !st.genInBufLocked(g) {
			tb.Errorf("%v: phase %v, generation %d (guard state %d) has a decoded native outside its slot", id, ph, g, st.guard[g].state)
		}
	}
	if ph == phComplete && len(st.data) > 0 && &st.data[0] != &st.buf[0] {
		tb.Errorf("%v: the content is not the object buffer's head", id)
	}
}

// genInBufLocked reports whether every native generation g has decoded
// sits in its slot of the object buffer: the slot holds its bytes, and once
// g is complete the decoder's natives are the slots themselves. st.mu must
// be held.
func (st *objectState) genInBufLocked(g int) bool {
	if st.buf == nil {
		return false
	}
	if st.m == 0 {
		return true
	}
	z := packet.New(st.kPer, st.m)
	for x := g * st.kPer; x < (g+1)*st.kPer; x++ {
		if st.coder.NativeRow(z, x) && !bytes.Equal(z.Payload, st.buf[x*st.m:(x+1)*st.m]) {
			return false
		}
	}
	if !st.coder.GenComplete(g) {
		return true
	}
	nats, _ := st.coder.GenData(g)
	for i, nat := range nats {
		if &nat[0] != &st.buf[(g*st.kPer+i)*st.m] {
			return false
		}
	}
	return true
}

// manifestChunks builds the MANIFEST frames of content's m-byte natives
// under id — a true manifest, or a forged one when content is not the
// object's — in n chunks.
func manifestChunks(tb testing.TB, id packet.ObjectID, content []byte, m, n int) [][]byte {
	tb.Helper()
	man, err := integrity.NewManifest(lt.Natives(content, m))
	if err != nil {
		tb.Fatal(err)
	}
	raw, _ := man.MarshalBinary()
	var chunks [][]byte
	for off, size := 0, (len(raw)+n-1)/n; off < len(raw); off += size {
		fr, err := packet.AppendManifestChunk([]byte{frameManifest}, id, uint32(len(raw)), uint32(off), raw[off:min(off+size, len(raw))])
		if err != nil {
			tb.Fatal(err)
		}
		chunks = append(chunks, fr)
	}
	return chunks
}

// metaFor builds a META as a sender of (k, m, size, gens) and manifest root
// would; it verifies where id is what those fields hash to. Its first
// metaV1Len bytes are the retired root-less form, which a session drops.
func metaFor(id packet.ObjectID, k, m int, size int64, gens int, root [integrity.DigestSize]byte) []byte {
	buf := make([]byte, metaLen)
	buf[0] = frameMeta
	copy(buf[1:17], id[:])
	binary.BigEndian.PutUint32(buf[17:21], uint32(k))
	binary.BigEndian.PutUint32(buf[21:25], uint32(m))
	binary.BigEndian.PutUint64(buf[25:33], uint64(size))
	binary.BigEndian.PutUint32(buf[33:37], uint32(gens))
	copy(buf[37:], root[:])
	return buf
}

// metaV1Len is the length of the retired META, which carried no root.
const metaV1Len = metaLen - integrity.DigestSize

// fakeObject names an object nobody serves: its ID commits to the fields
// given and to a made-up manifest root drawn from tag, so its META
// verifies while no manifest ever will.
func fakeObject(tag string, k, m int, size int64, gens int) (packet.ObjectID, []byte) {
	root := integrity.Root([]byte(tag))
	id := integrity.ObjectID(size, k, gens, m, root)
	return id, metaFor(id, k, m, size, gens, root)
}

// servedMeta is the ID and the META of content served as (k, gens).
func servedMeta(tb testing.TB, content []byte, k, gens int) (packet.ObjectID, []byte) {
	tb.Helper()
	src, err := deriveServed(content, k, gens)
	if err != nil {
		tb.Fatal(err)
	}
	return src.id, metaFor(src.id, src.geo.kPer*gens, src.geo.m, int64(len(content)), gens, src.root)
}

// TestServeOverCachedObject: Serve on an object the session holds as a
// partial cache is the transition caching → complete — the cache entry is
// dropped and pushes come from the seeded coder. Before the lifecycle had
// one field, Serve looked at the coder and never at the cached flag: the
// object read Cached Pinned Complete at once, emit kept dealing the cached
// rows, and a fetcher asking this node sat at 9/16 natives for good.
func TestServeOverCachedObject(t *testing.T) {
	const k, m = 16, 32
	content := testContent(k*m, 77)
	src, srcRec, srcClk := pushSession(t, "src", nil)
	src.AddPeer("cache")
	id, err := src.Serve(content, k, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, cRec, cClk := pushSession(t, "cache", func(cfg *Config) { cfg.CacheBudget = 1 << 20 })
	for i := 0; i < 3; i++ { // part of the pass: no receipt goes back
		pushTicks(src, srcClk, 1)
		feed(c, srcRec)
	}
	if o, _ := c.Object(id); !o.Cached || o.Received == 0 || o.Received >= k {
		t.Fatalf("set-up: %+v, want a cached object holding part of the %d rows", o, k)
	}
	if got, err := c.Serve(content, k, 1); err != nil || got != id {
		t.Fatalf("Serve over the cached object: %v %v", got, err)
	}
	o, _ := c.Object(id)
	if cs, _ := c.CacheStats(); o.Cached || !o.Complete || !o.Pinned || cs.Rows != 0 {
		t.Fatalf("after Serve: %+v with %d rows still cached; want complete, pinned, not cached", o, cs.Rows)
	}
	checkPhaseInvariants(t, c)
	cRec.take()

	f, fRec, _ := pushSession(t, "fetcher", nil)
	fetch, err := f.BeginFetch(id, "cache")
	if err != nil {
		t.Fatal(err)
	}
	defer fetch.End()
	// The pacer's floor alone, a row a tick, would bring the k natives in k
	// ticks; the fetcher's receipts open the window well before.
	for tick := 0; tick < k; tick++ {
		feed(c, fRec) // the REQ, then feedback
		pushTicks(c, cClk, 1)
		feed(f, cRec)
	}
	data, _, err, ok := fetch.Result()
	if !ok || err != nil || !bytes.Equal(data, content) {
		o, _ := f.Object(id)
		t.Fatalf("fetch from the serving cache node after %d ticks: ok=%v err=%v, %d/%d natives, %d aborted",
			k, ok, err, o.Decoded, k, o.Aborted)
	}
}

// TestForgedMetaGeometryNoFrameCouldCarry: a META whose (kPer, m) no DATA
// frame could carry creates no state, even one whose fields hash to its ID:
// whoever makes an object may make it as large as they like, and admission
// still bounds what a session gives state to. Before admission was one
// function the META path bounded m only by m ≥ 0, so one such META sized a
// relay's state.
func TestForgedMetaGeometryNoFrameCouldCarry(t *testing.T) {
	relay, _, _ := pushSession(t, "relay", func(cfg *Config) { cfg.Relay = true })
	_, meta := fakeObject("no frame could carry it", 16, 1<<30, 64, 1)
	injectFrame(relay, "mallory", meta)
	if objs := relay.Objects(); len(objs) != 0 {
		t.Fatalf("META with m = 1<<30 created state: %+v", objs)
	}
}

// TestForgedMetaDroppedOnArrival: a forger races the source to a relay and
// to a fetcher with a META that states a plausible geometry for the
// object's ID — the same bytes as twice the natives, half as large, in one
// generation — and a DATA row of that geometry. The ID commits to the true
// geometry, so the forged META is dropped on arrival at both. The forged
// row still shapes the object ahead of any META (waiting for one would cost
// a resend whenever it is lost), and the true META, when it comes, undoes
// that. Both complete at the honest bound: each native received once.
func TestForgedMetaDroppedOnArrival(t *testing.T) {
	const k, m, gens = 32, 32, 2
	content := testContent(k*m, 79)
	forgery := func(id packet.ObjectID) (meta, row []byte) {
		meta = metaFor(id, 2*k, m/2, k*m, 1, integrity.Root([]byte("forged")))
		return meta, handRow(t, id, testContent(k*m, 80), 1, 2*k, 0, true, 0)
	}
	honest := func(t *testing.T, o ObjectStats) {
		t.Helper()
		if !o.Complete || o.K != k || o.Generations != gens || o.Received != k || o.Polluted != 0 {
			t.Fatalf("%+v: want complete as k=%d G=%d, every native received once", o, k, gens)
		}
	}
	t.Run("relay", func(t *testing.T) {
		src, _, srcClk := pushSession(t, "src", nil)
		src.AddPeer("relay")
		id, err := src.Serve(content, k, gens)
		if err != nil {
			t.Fatal(err)
		}
		relay, _, _ := pushSession(t, "relay", func(cfg *Config) { cfg.Relay = true })
		meta, row := forgery(id)
		injectFrame(relay, "mallory", meta)
		if objs := relay.Objects(); len(objs) != 0 {
			t.Fatalf("the forged META created state: %+v", objs)
		}
		injectFrame(relay, "mallory", row)
		if o, _ := relay.Object(id); o.KPer != 2*k || o.Generations != 1 {
			t.Fatalf("set-up: the forged row shaped %+v", o)
		}
		for tick := 0; tick < 4*k; tick++ {
			pushTicks(src, srcClk, 1)
			route(src, relay)
		}
		o, _ := relay.Object(id)
		honest(t, o)
		checkPhaseInvariants(t, relay)
	})
	t.Run("fetcher", func(t *testing.T) {
		src, _, srcClk := pushSession(t, "src", nil)
		id, err := src.Serve(content, k, gens)
		if err != nil {
			t.Fatal(err)
		}
		f, fRec, _ := pushSession(t, "fetcher", nil)
		fetch, err := f.BeginFetch(id, "src")
		if err != nil {
			t.Fatal(err)
		}
		defer fetch.End()
		meta, row := forgery(id)
		injectFrame(f, "mallory", meta)
		if o, _ := f.Object(id); o.K != 0 || o.Size >= 0 {
			t.Fatalf("the forged META shaped %+v", o)
		}
		injectFrame(f, "mallory", row)
		fRec.take()
		injectFrame(src, "fetcher", encodeReq(id))
		for tick := 0; tick < 4*k; tick++ {
			pushTicks(src, srcClk, 1)
			route(src, f)
		}
		data, stats, err, ok := fetch.Result()
		if !ok || err != nil || !bytes.Equal(data, content) {
			t.Fatalf("fetch: ok=%v err=%v", ok, err)
		}
		honest(t, stats)
		checkPhaseInvariants(t, f)
	})
}

// Rows (set-ups) and columns (events) of the object state matrix.
const (
	rowAnnounced = iota
	rowCaching
	rowFilling
	rowPoisoned // filling, and generation 0 is complete around a forged native (no manifest yet)
	rowDecoded  // every generation decoded, the manifest not in yet
	rowComplete
	rowEvicted
	matrixRows
)

const (
	evDataUnit = iota
	evDataDense
	evDataRedundant
	evDataWrongGeometry
	evReq
	evMetaShort // the retired root-less META: dropped
	evMetaLong
	evFbRedundant // the retired kind-1 abort: dropped
	evFbComplete
	evFbGenComplete
	evFbCacheAd
	evFbReceipt
	evFbFrontier
	evManifestFirst
	evManifestOutOfOrder
	evManifestLast
	evMember
	evServe
	evBeginFetch
	evWatch
	evEvict
	matrixEvents
)

var (
	matrixRowNames = [matrixRows]string{"announced", "caching", "filling", "filling-poisoned", "decoded", "complete", "evicted"}
	matrixEvNames  = [matrixEvents]string{"DATA-unit", "DATA-dense", "DATA-redundant", "DATA-wrong-geometry", "REQ",
		"META-short", "META-long", "FB-redundant", "FB-complete", "FB-gen-complete", "FB-cache-ad", "FB-receipt", "FB-receipt+frontier",
		"MANIFEST-first", "MANIFEST-out-of-order", "MANIFEST-last", "MEMBER", "Serve", "BeginFetch", "Watch", "evict"}
)

// objCell is one randomized set-up of the matrix: a session holding (or,
// evicted, having held) one object in the row's phase.
type objCell struct {
	t             *testing.T
	s             *Session
	rec           *recTransport
	clk           *transport.VClock
	id            packet.ObjectID
	content       []byte
	gens, kPer, m int
	held          int          // natives [0, held) of every generation were fed at set-up
	old           *objectState // the evicted row's state, as a worker would still hold it
	chunks        [][]byte     // the true manifest, in three MANIFEST frames
	meta          []byte       // the true META
}

const matrixSender transport.Addr = "peer"

func (c *objCell) row(g int, forged bool, idx ...int) []byte {
	return handRow(c.t, c.id, c.content, c.gens, c.kPer, g, forged, idx...)
}

// newObjCell builds the set-up of row; geometry, seed and — where two fit —
// the session's role are drawn from rng.
func newObjCell(t *testing.T, rng *rand.Rand, row int) *objCell {
	t.Helper()
	c := &objCell{t: t, gens: 1 + rng.Intn(3), kPer: 4 + rng.Intn(9), m: 8 * (1 + rng.Intn(3))}
	if row == rowPoisoned {
		c.gens = 2 + rng.Intn(2) // one generation to complete, one to keep the object filling
	}
	k := c.gens * c.kPer
	c.content = testContent(k*c.m, rng.Int63())
	c.id, c.meta = servedMeta(t, c.content, k, c.gens)
	seed := rng.Int63()
	role := func(cfg *Config) { cfg.Relay = true }
	switch {
	case row == rowCaching:
		role = func(cfg *Config) { cfg.CacheBudget = 1 << 20 }
	case row == rowAnnounced && rng.Intn(2) == 0:
		role = nil // a plain session, the object announced by a Watch
	}
	c.s, c.rec, c.clk = pushSession(t, "node", func(cfg *Config) {
		cfg.Seed, cfg.IdleTimeout = seed, time.Minute
		if role != nil {
			role(cfg)
		}
	})
	c.chunks = manifestChunks(t, c.id, c.content, c.m, 3)
	meta := c.meta
	fill := func(upTo int) { // natives [0, upTo) of every generation, from "src"
		for g := 0; g < c.gens; g++ {
			for i := 0; i < upTo; i++ {
				injectFrame(c.s, "src", c.row(g, false, i))
			}
		}
		c.held = upTo
	}
	switch row {
	case rowAnnounced:
		if c.s.cfg.Relay {
			injectFrame(c.s, "asker", encodeReq(c.id))
		} else {
			c.s.Watch(c.id, func(ObjectStats) {})
		}
	case rowCaching, rowFilling, rowEvicted:
		injectFrame(c.s, "src", meta)
		fill(c.kPer - 2)
	case rowPoisoned:
		injectFrame(c.s, "src", meta)
		fill(c.kPer - 2)
		injectFrame(c.s, "src", c.row(0, true, c.kPer-2))
		injectFrame(c.s, "src", c.row(0, false, c.kPer-1))
	case rowDecoded:
		injectFrame(c.s, "src", meta)
		fill(c.kPer)
	case rowComplete:
		injectFrame(c.s, "src", meta)
		injectBurst(c.s, "src", c.chunks)
		fill(c.kPer)
	}
	if row == rowEvicted {
		c.old = c.s.objects[c.id]
		c.clk.Advance(2 * time.Minute)
		c.s.evict()
	}
	c.rec.take()
	return c
}

// kinds names the frames a cell sent to one address, receipts apart.
func kinds(frames [][]byte) string {
	var out []string
	for _, f := range frames {
		switch {
		case isReceipt(f):
		case f[0] == frameFeedback:
			out = append(out, "FB"+string('0'+f[17]))
		default:
			out = append(out, map[byte]string{frameData: "DATA", frameReq: "REQ", frameMeta: "META",
				frameManifest: "MANIFEST", frameMember: "MEMBER"}[f[0]])
		}
	}
	return strings.Join(out, " ")
}

// fire plays event ev on the cell from matrixSender.
func (c *objCell) fire(t *testing.T, ev int) {
	t.Helper()
	k, last := c.gens*c.kPer, c.gens-1 // DATA goes to the last generation: never the poisoned one
	in := func(frame []byte) { injectFrame(c.s, matrixSender, frame) }
	switch ev {
	case evDataUnit:
		in(c.row(last, false, c.kPer-2))
	case evDataDense:
		in(c.row(last, false, c.kPer-2, c.kPer-1))
	case evDataRedundant:
		in(c.row(last, false, 0))
	case evDataWrongGeometry:
		in(handRow(t, c.id, make([]byte, c.gens*(c.kPer+1)*c.m), c.gens, c.kPer+1, last, false, 0))
	case evReq:
		in(encodeReq(c.id))
	case evMetaShort:
		in(c.meta[:metaV1Len])
	case evMetaLong:
		in(c.meta)
	case evFbRedundant:
		in(feedbackFrame(c.id, fbRetiredRedundant))
	case evFbComplete:
		in(feedbackFrame(c.id, fbComplete))
	case evFbGenComplete:
		in(genFeedbackFrame(c.id, last))
	case evFbCacheAd:
		in(retiredCacheAd(c.id, 1, uint32(c.gens), uint32(c.kPer)))
	case evFbReceipt:
		in(receiptFrame(c.id, 0, 16, 12))
	case evFbFrontier:
		// Feedback is heard only from a peer there is state for: one that was
		// pushed to.
		if st := c.s.objects[c.id]; st != nil {
			st.peer(matrixSender)
		}
		in(encodeReceipt(c.id, uint32(last), 16, 12, 0, c.kPer, []int32{0, 1}))
	case evManifestFirst:
		in(c.chunks[0])
	case evManifestOutOfOrder:
		in(c.chunks[len(c.chunks)-1])
	case evManifestLast:
		for _, ch := range c.chunks {
			in(ch)
		}
	case evMember:
		body, err := packet.AppendMemberBody([]byte{frameMember}, 0, []packet.MemberEntry{{Addr: string(matrixSender)}})
		if err != nil {
			t.Fatal(err)
		}
		in(body)
	case evServe:
		c.s.Serve(c.content, k, c.gens)
	case evBeginFetch:
		f, err := c.s.BeginFetch(c.id, "up")
		if err != nil {
			t.Fatal(err)
		}
		f.End()
	case evWatch:
		c.s.Watch(c.id, func(ObjectStats) {})()
	case evEvict:
		c.clk.Advance(2 * time.Minute)
		c.s.evict()
	}
}

// expect is the matrix itself: the phase the object is in after ev hit it
// in row's phase ("none": the session holds no state for it), and the
// frames the sender of ev is owed, receipts apart.
func (c *objCell) expect(row, ev int) (after, replies string) {
	before := [matrixRows]string{"announced", "caching", "filling", "filling", "decoded", "complete", "none"}[row]
	after = before
	// The retired short META and kind-1 and kind-4 FEEDBACK are dropped
	// whatever the phase: their cells keep the defaults.
	switch ev {
	case evDataUnit, evDataDense, evDataRedundant, evDataWrongGeometry:
		switch {
		case row == rowAnnounced || row == rowEvicted: // first geometry heard fixes it (a relay learns an unknown object)
			after = "filling"
		case ev == evDataWrongGeometry:
		case row == rowDecoded:
			replies = "REQ" // decoded, no manifest: ask for it rather than stop the sender
		case row == rowComplete:
			replies = "FB2"
		}
	case evReq:
		switch row {
		case rowEvicted:
			after = "announced" // a relay remembers who asked
		case rowCaching, rowFilling, rowPoisoned, rowDecoded, rowComplete:
			replies = "META"
		}
	case evMetaLong:
		switch {
		case row == rowAnnounced || row == rowEvicted:
			after = "filling" // the META verified: its geometry is the object's
		case row == rowComplete:
			replies = "FB2"
		}
	case evManifestLast:
		if row == rowDecoded {
			after = "complete" // every generation verifies at once
		}
	case evMember:
		replies = "MEMBER" // a memberless session answers with its self-advert
	case evServe:
		if row == rowAnnounced || row == rowCaching || row == rowEvicted {
			after = "complete"
		}
	case evBeginFetch:
		switch row {
		case rowCaching:
			after = "filling"
		case rowEvicted:
			after = "announced"
		}
	case evWatch:
		if row == rowEvicted {
			after = "announced"
		}
	case evEvict:
		after = "none"
	}
	return after, replies
}

// TestObjectStateMatrix is the ingest-side twin of TestPushStateMatrix:
// every phase meets every frame kind and every local event, with geometry,
// seed and role drawn per run from a logged seed; each cell asserts the
// phase after, the frames the sender is owed, and that the lifecycle's
// invariants hold and no state appeared that may not. Every phase and every
// generation-guard state must be entered by some cell.
func TestObjectStateMatrix(t *testing.T) {
	seed := time.Now().UnixNano()
	t.Logf("matrix seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	phases, guards := map[string]int{}, map[uint8]int{}
	for row := 0; row < matrixRows; row++ {
		for ev := 0; ev < matrixEvents; ev++ {
			t.Run(matrixRowNames[row]+"/"+matrixEvNames[ev], func(t *testing.T) {
				c := newObjCell(t, rng, row)
				wantAfter, wantReplies := c.expect(row, ev)
				was := c.s.objects[c.id]
				if row == rowEvicted {
					was = c.old
				}
				c.fire(t, ev)
				got := "none"
				if st := c.s.objects[c.id]; st != nil {
					got = st.phaseNow().String()
					for _, gg := range st.guard {
						guards[gg.state]++
					}
				}
				phases[got]++
				if was != nil && c.s.objects[c.id] != was {
					// Out of the table: as a worker still holding it sees it.
					if ph := was.phaseNow(); ph != phEvicted {
						t.Errorf("the state that left the table is %v, want evicted", ph)
					}
					phases[phEvicted.String()]++
				}
				if got != wantAfter {
					t.Errorf("phase after: %s, want %s (G=%d k/G=%d m=%d)", got, wantAfter, c.gens, c.kPer, c.m)
				}
				sent := c.rec.take()
				if r := kinds(sent[matrixSender]); r != wantReplies {
					t.Errorf("replied %q, want %q", r, wantReplies)
				}
				if len(c.s.objects) > 1 {
					t.Errorf("%d objects in the table, one id in play", len(c.s.objects))
				}
				checkPhaseInvariants(t, c.s)
				c.checkCell(t, row, ev, sent)
			})
		}
	}
	for _, ph := range phaseNames {
		if phases[ph] == 0 {
			t.Errorf("no cell ended in phase %s", ph)
		}
	}
	for _, gs := range []uint8{genOpen, genVerified, genQuarantined} {
		if guards[gs] == 0 {
			t.Errorf("no cell ended with a generation guard in state %d", gs)
		}
	}
}

// checkCell asserts what is particular to single cells of the matrix.
func (c *objCell) checkCell(t *testing.T, row, ev int, sent map[transport.Addr][][]byte) {
	t.Helper()
	o, held := c.s.Object(c.id)
	switch {
	case row == rowEvicted:
		// The evicted state stays evicted whatever the table learns anew, and
		// a worker still holding it decodes nothing into it.
		var scratch ingestScratch
		c.old.mu.Lock()
		c.s.ingestOneLocked(c.old, &inFrame{f: transport.NewFrame(matrixSender, c.row(0, false, 0), nil)}, &scratch, &pollActions{})
		c.old.mu.Unlock()
		if len(scratch.replies) != 0 || len(scratch.notify) != 0 {
			t.Errorf("evicted state: %d replies, %d notifications for a frame fed into it", len(scratch.replies), len(scratch.notify))
		}
	case ev == evEvict && held:
		t.Errorf("idle object survived eviction: %+v", o)
	case ev == evServe && row <= rowCaching && (o.Cached || !o.Pinned || !o.Complete):
		t.Errorf("served: %+v, want complete, pinned and not cached", o)
	case ev == evManifestLast && row >= rowFilling:
		wantVerified := map[int]int{rowFilling: 0, rowPoisoned: 0, rowDecoded: c.gens, rowComplete: c.gens}[row]
		wantPolluted := int64(btoi(row == rowPoisoned))
		if !o.HaveManifest || o.GensVerified != wantVerified || o.Polluted != wantPolluted {
			t.Errorf("manifest delivered: %+v, want it adopted, %d generations verified, %d quarantined", o, wantVerified, wantPolluted)
		}
		if row == rowPoisoned {
			// The quarantine re-arms the generation's contributor and probes it.
			if r := kinds(sent["src"]); r != "REQ REQ" || c.s.objects[c.id].guard[0].state != genQuarantined {
				t.Errorf("quarantine sent %q to the contributor, guard state %d", r, c.s.objects[c.id].guard[0].state)
			}
		}
	case ev == evFbFrontier:
		// Kept where rows are drawn from a coder against it; announced (no
		// geometry to read it by) and caching (rows dealt as held) ignore it,
		// and nothing of it outlives the counters it came with.
		ps := c.s.objects[c.id].peers[matrixSender]
		if kept, want := ps.frontier != nil, row >= rowFilling; kept != want {
			t.Errorf("frontier kept: %v, want %v", kept, want)
		}
		if want := uint64(btoi(row != rowAnnounced)); ps.link.Sent() != 0 || uint64(ps.link.Lacks(16)) != 16-12*want {
			t.Errorf("the receipt's counters: link lacks %d of 16 natives, want %d", ps.link.Lacks(16), 16-12*want)
		}
	case (ev == evManifestFirst || ev == evManifestOutOfOrder) && o.HaveManifest && row != rowComplete:
		t.Errorf("manifest adopted from a partial delivery: %+v", o)
	case ev == evBeginFetch && row == rowCaching:
		if cs, _ := c.s.CacheStats(); cs.Rows != 0 || o.Decoded != c.gens*c.held {
			t.Errorf("promoted: %d rows left in the cache, %d natives decoded, want 0 and %d", cs.Rows, o.Decoded, c.gens*c.held)
		}
	}
}

// TestNoLongFunctions keeps the package's functions under 80 lines: the
// ones that grew past it did so by carrying a copy of the lifecycle each.
func TestNoLongFunctions(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok {
					if n := fset.Position(fn.End()).Line - fset.Position(fn.Pos()).Line + 1; n > 80 {
						t.Errorf("%s: %s is %d lines long, over 80", fset.Position(fn.Pos()), fn.Name.Name, n)
					}
				}
			}
		}
	}
}
