package session

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"math/rand"
	"slices"
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
			if gens := int(st.gens.Load()); (held > 0 && !ph.decoding()) || len(ps.frontier) > gens || held > gens*packet.FrontierLen(st.kPer) || len(ps.unsettled) > maxUnsettled {
				tb.Errorf("%v: phase %v keeps %d frontier bytes in %d generations and %d rows in flight for %s (G=%d k/G=%d)",
					id, ph, held, len(ps.frontier), len(ps.unsettled), addr, gens, st.kPer)
			}
		}
		st.mu.Unlock()
	}
}

// checkObjectBufferLocked holds an object's buffer to its rule: a filling
// or decoded object with m > 0 that holds every run of its manifest has a
// buffer or is committing one, never both — a receiver commits k·m bytes
// once every run has hashed to the root the ID commits to, and to nothing
// less — and one that lacks a run has neither, as has one whose k·m bytes
// overflow an int (32-bit builds). Only a filling or decoded object is
// ever committing. Where there is a buffer it is k·m bytes, every native
// decoded here sits in its slot, and once complete the content is its
// head. st.mu must be held.
func checkObjectBufferLocked(tb testing.TB, id packet.ObjectID, st *objectState, ph phase) {
	tb.Helper()
	fits := int64(st.k)*int64(st.m) <= math.MaxInt
	held, filling := st.man != nil && st.man.Complete(), ph == phFilling || ph == phDecoded
	if filling && st.m > 0 && (st.buf != nil || st.committing) != (held && fits) || st.committing && (st.buf != nil || !filling) {
		tb.Errorf("%v: phase %v, object buffer %v, committing %v, every run held %v", id, ph, st.buf != nil, st.committing, held)
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

// manifestRuns builds the MANIFEST frames of content's natives under the
// description d, one a run — the object's true manifest when content is
// the object's, a forged one otherwise: its runs do not hash to d's root.
func manifestRuns(tb testing.TB, d packet.ManifestChunk, content []byte) [][]byte {
	tb.Helper()
	man, err := integrity.NewManifest(lt.Natives(content, int(d.M)))
	if err != nil {
		tb.Fatal(err)
	}
	frames := make([][]byte, man.Runs())
	for r := range frames {
		d.Run = uint32(r)
		d.Digests, d.Proof = man.RunProof(r)
		if frames[r], err = packet.AppendManifestChunk([]byte{packet.FrameManifest}, d); err != nil {
			tb.Fatal(err)
		}
	}
	return frames
}

// runFixed is where a MANIFEST frame's digests begin.
const runFixed = 1 + 16 + 52 + 4 + 2 + 1

// forgedRun is MANIFEST frame fr with one digest byte flipped: a run of
// the right length, under a description that verifies, that does not hash
// to the root.
func forgedRun(fr []byte) []byte {
	bad := bytes.Clone(fr)
	bad[runFixed+5] ^= 0x40
	return bad
}

// descFor builds a MANIFEST frame as a sender of (k, m, size, gens) and
// manifest root would state the object's description, for ID id — it
// verifies where id is what those fields hash to — bytes written as they
// are, whether the codec would take them or not. Its run is run 0 under a
// proof deeper than any the object's runs have: the description is learned
// and the run dropped unhashed, its sender not convicted — the frame
// describes the object and proves nothing.
func descFor(id packet.ObjectID, k, m int, size int64, gens int, root [integrity.DigestSize]byte) []byte {
	buf := append([]byte{packet.FrameManifest}, id[:]...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(k))
	buf = binary.BigEndian.AppendUint32(buf, uint32(m))
	buf = binary.BigEndian.AppendUint64(buf, uint64(size))
	buf = binary.BigEndian.AppendUint32(buf, uint32(gens))
	buf = append(buf, root[:]...)
	n := min(max(k, 1), integrity.RunLen)
	buf = binary.BigEndian.AppendUint32(buf, 0)
	buf = binary.BigEndian.AppendUint16(buf, uint16(n))
	buf = append(buf, packet.MaxManifestDepth)
	return append(buf, make([]byte, (n+packet.MaxManifestDepth)*integrity.DigestSize)...)
}

// descFrame is descFor of description d.
func descFrame(d packet.ManifestChunk) []byte {
	return descFor(d.Object, int(d.K), int(d.M), d.Size, int(d.Gens), d.Root)
}

// retiredMeta is the 69-byte frame of kind 0x03, the retired META, as a
// sender of d would have sent it; its first 37 bytes are the older
// root-less form. A session drops both.
func retiredMeta(d packet.ManifestChunk) []byte {
	buf := append([]byte{0x03}, d.Object[:]...)
	buf = binary.BigEndian.AppendUint32(buf, d.K)
	buf = binary.BigEndian.AppendUint32(buf, d.M)
	buf = binary.BigEndian.AppendUint64(buf, uint64(d.Size))
	buf = binary.BigEndian.AppendUint32(buf, d.Gens)
	return append(buf, d.Root[:]...)
}

// fakeObject names an object nobody serves: its ID commits to the fields
// given and to a made-up manifest root drawn from tag, so its description
// (descFor) verifies while no run of its manifest ever will.
func fakeObject(tag string, k, m int, size int64, gens int) (packet.ObjectID, []byte) {
	root := sha256.Sum256([]byte(tag))
	id := integrity.ObjectID(size, k, gens, m, root)
	return id, descFor(id, k, m, size, gens, root)
}

// servedDesc is the description of content served as (k, gens), as its
// MANIFEST frames carry it.
func servedDesc(tb testing.TB, content []byte, k, gens int) packet.ManifestChunk {
	tb.Helper()
	src, err := deriveServed(content, k, gens)
	if err != nil {
		tb.Fatal(err)
	}
	return packet.ManifestChunk{Object: src.id, K: uint32(src.geo.kPer * gens), M: uint32(src.geo.m), Gens: uint32(gens),
		Size: int64(len(content)), Root: src.man.Root()}
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
		feed(c, fRec) // the subscription, then feedback
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

// TestForgedMetaGeometryNoFrameCouldCarry: a MANIFEST frame whose
// description's (kPer, m) no DATA frame could carry creates no state, even
// one whose fields hash to its ID: whoever makes an object may make it as
// large as they like, and admission still bounds what a session gives
// state to. Before admission was one function the META path bounded m only
// by m ≥ 0, so one such META sized a relay's state.
func TestForgedMetaGeometryNoFrameCouldCarry(t *testing.T) {
	relay, _, _ := pushSession(t, "relay", func(cfg *Config) { cfg.Relay = true })
	_, desc := fakeObject("no frame could carry it", 16, 1<<30, 64, 1)
	injectFrame(relay, "mallory", desc)
	if objs := relay.Objects(); len(objs) != 0 {
		t.Fatalf("a description with m = 1<<30 created state: %+v", objs)
	}
}

// TestForgedMetaDroppedOnArrival: a forger races the source to a relay and
// to a fetcher with a MANIFEST frame whose description states a plausible
// geometry for the object's ID — the same bytes as twice the natives, half
// as large, in one generation — and a DATA row of that geometry. The ID
// commits to the true geometry, so the forged description is dropped on
// arrival at both, and bans no one. The forged row still shapes the object
// ahead of any run (waiting for one would cost a resend whenever it is
// lost), and the true description, on the first run that comes, undoes
// that. Both complete at the honest bound: each native received once.
func TestForgedMetaDroppedOnArrival(t *testing.T) {
	const k, m, gens = 32, 32, 2
	content := testContent(k*m, 79)
	forgery := func(id packet.ObjectID) (desc, row []byte) {
		desc = descFor(id, 2*k, m/2, k*m, 1, sha256.Sum256([]byte("forged")))
		return desc, handRow(t, id, testContent(k*m, 80), 1, 2*k, 0, true, 0)
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
		desc, row := forgery(id)
		injectFrame(relay, "mallory", desc)
		if objs, banned := relay.Objects(), relay.BannedPeers(); len(objs) != 0 || len(banned) != 0 {
			t.Fatalf("the forged description created state %+v, banned %v", objs, banned)
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
		desc, row := forgery(id)
		injectFrame(f, "mallory", desc)
		if o, _ := f.Object(id); o.K != 0 || o.Size >= 0 {
			t.Fatalf("the forged description shaped %+v", o)
		}
		injectFrame(f, "mallory", row)
		fRec.take()
		injectFrame(src, "fetcher", subReport(id))
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
	// filling, every run of the manifest in, the object buffer committing:
	// its allocation is held up until the cell is played (objCell.place)
	rowCommitting
	rowComplete
	rowEvicted
	matrixRows
)

const (
	evDataUnit = iota
	evDataDense
	evDataRedundant
	evDataWrongGeometry
	// A stranger's subscription (a report with no flag and no counter), and
	// the retired REQ, kind 0x02, whose jobs the report took: dropped,
	// whatever the phase.
	evSub
	evReqRetired
	// The retired META, kind 0x03, root-less (short) and as it was last
	// sent (long): dropped, whatever the phase.
	evMetaShort
	evMetaLong
	evFbRedundant // the retired kind-1 abort: dropped
	evFbComplete
	evFbGenComplete
	evFbCacheAd
	evFbReceipt
	evFbFrontier
	evFbNeed
	// The three MANIFEST events each end with the manifest's true run — at
	// the matrix's geometries its one frame — delivered: first, alone, from
	// the sender; out-of-order, behind a forged copy from the sender that
	// raced ahead of it; last, from another peer, with the sender's forged
	// copy last.
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
	matrixRowNames = [matrixRows]string{"announced", "caching", "filling", "filling-poisoned", "decoded", "filling-committing", "complete", "evicted"}
	matrixEvNames  = [matrixEvents]string{"DATA-unit", "DATA-dense", "DATA-redundant", "DATA-wrong-geometry", "subscription",
		"REQ", "META-short", "META-long", "FB-redundant", "FB-complete", "FB-gen-complete", "FB-cache-ad", "FB-receipt", "FB-receipt+frontier", "FB-need",
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
	st            *objectState // the state the cell began with
	allocs        *heldAllocs  // a committing cell's buffer allocations, held up until place
	runs          [][]byte     // the true manifest's MANIFEST frames: one run at these k
	meta          []byte       // the object's retired 0x03 META
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
	d := servedDesc(t, c.content, k, c.gens)
	c.id, c.meta = d.Object, retiredMeta(d)
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
	c.runs = manifestRuns(t, d, c.content)
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
			injectFrame(c.s, "asker", subReport(c.id))
		} else {
			c.s.Watch(c.id, func(ObjectStats) {})
		}
	case rowCaching, rowFilling, rowEvicted:
		fill(c.kPer - 2)
	case rowCommitting:
		// Commits go to goroutines, as under Run, each allocation held up
		// until the cell has been played.
		c.allocs = holdAllocs(c.s)
		c.s.commits.start()
		fill(c.kPer - 2)
		injectBurst(c.s, "src", c.runs)
	case rowPoisoned:
		fill(c.kPer - 2)
		injectFrame(c.s, "src", c.row(0, true, c.kPer-2))
		injectFrame(c.s, "src", c.row(0, false, c.kPer-1))
	case rowDecoded:
		fill(c.kPer)
	case rowComplete:
		injectBurst(c.s, "src", c.runs)
		fill(c.kPer)
	}
	c.st = c.s.objects[c.id]
	if row == rowEvicted {
		c.old = c.st
		c.clk.Advance(2 * time.Minute)
		c.s.evict()
	}
	c.rec.take()
	return c
}

// kinds names the frames a cell sent to one address, a report by its
// flags, and receipts (reports with none) apart.
func kinds(frames [][]byte) string {
	var out []string
	for _, f := range frames {
		r, isReport := parseReport(f)
		switch {
		case isReport:
			var flags []string
			for bit, name := range []string{"complete", "gen-complete", "need"} {
				if r.Flags&(1<<bit) != 0 {
					flags = append(flags, name)
				}
			}
			if len(flags) > 0 {
				out = append(out, strings.Join(flags, "+"))
			}
		case f[0] == packet.FrameFeedback:
			out = append(out, "FB"+string('0'+f[17]))
		default:
			out = append(out, map[byte]string{packet.FrameData: "DATA", packet.FrameManifest: "MANIFEST", packet.FrameMember: "MEMBER"}[f[0]])
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
	case evSub:
		in(subReport(c.id))
	case evReqRetired:
		in(retiredReq(c.id))
	case evMetaShort:
		in(c.meta[:37])
	case evMetaLong:
		in(c.meta)
	case evFbRedundant:
		in(retiredFeedback(c.id, fbRetiredRedundant))
	case evFbComplete:
		in(completeReport(c.id))
	case evFbGenComplete:
		in(genCompleteReport(c.id, uint32(last)))
	case evFbCacheAd:
		in(retiredFeedback(c.id, fbRetiredCacheAd, 1, uint32(c.gens), uint32(c.kPer)))
	case evFbReceipt:
		in(receiptFrame(c.id, 0, 16, 12))
	case evFbFrontier:
		// From a peer pushed to: a stranger's report only subscribes it.
		if st := c.s.objects[c.id]; st != nil {
			st.peer(matrixSender)
		}
		in(reportFrame(packet.Report{Object: c.id, Gen: uint32(last), Received: 16, Innovative: 12, Frontier: frontierOf(c.kPer, 0, 1)}))
	case evFbNeed:
		// From a peer pushed to, its proof pass long over and a row in
		// flight toward it: the need owes it run 0 where it is held, and the
		// peer's progress stands.
		if st := c.s.objects[c.id]; st != nil {
			ps := st.peer(matrixSender)
			ps.pass, ps.proofAt, ps.unsettled = -1, c.clk.Now().Add(-time.Second), []sentNative{{1, 0}}
		}
		in(needReport(c.id, 0))
	case evManifestFirst:
		in(c.runs[0])
	case evManifestOutOfOrder:
		in(forgedRun(c.runs[0]))
		injectFrame(c.s, "src", c.runs[0])
	case evManifestLast:
		injectFrame(c.s, "src", c.runs[0])
		in(forgedRun(c.runs[0]))
	case evMember:
		body, err := packet.AppendMemberBody([]byte{packet.FrameMember}, 0, []packet.MemberEntry{{Addr: string(matrixSender)}})
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
	before := [matrixRows]string{"announced", "caching", "filling", "filling", "decoded", "filling", "complete", "none"}[row]
	after = before
	// The retired META, either length, and kind-1 and kind-4 FEEDBACK are
	// dropped whatever the phase: their cells keep the defaults.
	switch ev {
	case evDataUnit, evDataDense, evDataRedundant, evDataWrongGeometry:
		switch {
		case row == rowAnnounced || row == rowEvicted: // first geometry heard fixes it (a relay learns an unknown object)
			after = "filling"
			replies = "need" // its receipt says it needs the first run
		case ev == evDataWrongGeometry:
		case row == rowCaching || row == rowFilling || row == rowPoisoned || row == rowDecoded:
			// No manifest: caching or filling, the receipt says it needs
			// the run over the row; decoded, the frame is answered with a
			// need, which leaves the sender's frontier standing — not a
			// complete report, which would stop it.
			replies = "need"
		case row == rowComplete:
			replies = "complete"
		}
	case evSub, evFbGenComplete, evFbReceipt, evFbFrontier, evFbNeed:
		// Answered by nothing: a report not flagged complete from a stranger
		// subscribes it and re-arms its proof pass, and the push rounds send
		// it. (Re-pinned when the report became the subscription: before,
		// only the REQ did this, and a report from a stranger was dropped.)
		if row == rowEvicted {
			after = "announced" // a relay remembers who asked
		}
	case evManifestFirst, evManifestOutOfOrder, evManifestLast:
		switch row {
		case rowAnnounced, rowEvicted:
			after = "filling" // any run is enough on its own: its description verified
		case rowDecoded:
			after = "complete" // every generation verifies at once
		}
		// The sender's frame is answered by what it completed, unless it
		// convicted its sender (out of order, hashed before the true run).
		if after == "complete" && (ev != evManifestOutOfOrder || row == rowComplete) {
			replies = "complete"
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
	seed := testSeed(t)
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
				c.place(t)
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

// place lets a committing cell's buffer allocation through once the cell
// has been played and holds what follows to the rule: the state the cell
// began with has its buffer, placed with every native decoded meanwhile
// in its slot, unless it left the table — an evicted state is given none.
func (c *objCell) place(t *testing.T) {
	t.Helper()
	if c.allocs == nil {
		return
	}
	c.st.mu.Lock()
	committing, ph := c.st.committing, c.st.phase
	c.st.mu.Unlock()
	if committing == (ph == phEvicted) {
		t.Fatalf("phase %v, committing its buffer %v", ph, committing)
	}
	c.allocs.free()
	c.s.commits.stop()
	checkPhaseInvariants(t, c.s)
	c.st.mu.Lock()
	defer c.st.mu.Unlock()
	if placed, evicted := c.st.buf != nil, c.st.phase == phEvicted; placed == evicted || c.st.committing {
		t.Errorf("buffer released: placed %v, still committing %v, in phase %v", placed, c.st.committing, c.st.phase)
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
		receipt := c.s.ingestOneLocked(c.old, &inFrame{f: transport.NewFrame(matrixSender, c.row(0, false, 0), nil)}, c.s.clk.Now(), &scratch, &pollActions{})
		c.old.mu.Unlock()
		if reports := btoi(receipt != nil) + len(scratch.reports); reports != 0 || len(scratch.notify) != 0 {
			t.Errorf("evicted state: %d reports, %d notifications for a frame fed into it", reports, len(scratch.notify))
		}
	case ev == evEvict && held:
		t.Errorf("idle object survived eviction: %+v", o)
	case ev == evServe && row <= rowCaching && (o.Cached || !o.Pinned || !o.Complete):
		t.Errorf("served: %+v, want complete, pinned and not cached", o)
	case ev == evManifestFirst || ev == evManifestOutOfOrder || ev == evManifestLast:
		c.checkManifestCell(t, row, ev, o, sent)
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
	case ev == evFbNeed:
		ps := c.s.objects[c.id].peers[matrixSender]
		// Run 0 is owed where it is held: every run is in.
		if owed, want := ps.owed == 1, row == rowCommitting || row == rowComplete; owed != want || len(ps.unsettled) != 1 {
			t.Errorf("run 0 owed: %v (owed %d), want %v; %d rows in flight, want the 1 the need found", owed, ps.owed, want, len(ps.unsettled))
		}
	case ev == evSub:
		// The subscription arms the sender's proof pass, and nothing else
		// answers it.
		if ps := c.s.objects[c.id].peers[matrixSender]; ps == nil || !ps.subscribed || ps.pass < 0 {
			t.Errorf("subscription: peer state %+v, want a subscriber with its proof pass armed", ps)
		}
	case ev == evReqRetired || ev == evFbComplete:
		// Neither the retired REQ nor a stranger's complete report makes an
		// entry.
		if ps := c.s.objects[c.id].peers[matrixSender]; ps != nil {
			t.Errorf("peer state %+v made for the sender", ps)
		}
	case ev >= evDataUnit && ev <= evDataWrongGeometry:
		// A need names the run none holds: at these geometries, the one.
		for _, f := range sent[matrixSender] {
			if r, _ := parseReport(f); isNeed(f) && r.Need != 0 {
				t.Errorf("need names %#x, want run 0", r.Need)
			}
		}
	case ev == evBeginFetch && row == rowCaching:
		if cs, _ := c.s.CacheStats(); cs.Rows != 0 || o.Decoded != c.gens*c.held {
			t.Errorf("promoted: %d rows left in the cache, %d natives decoded, want 0 and %d", cs.Rows, o.Decoded, c.gens*c.held)
		}
	}
}

// checkManifestCell: every MANIFEST event ends with the true run adopted,
// so from filling on the manifest is held and each complete generation is
// verified, or quarantined if poisoned — which convicts src, the sender of
// the forged row that released the first false native. A forged run
// convicts its sender where it is hashed — at any object that does not hold
// the run yet, announced or not, so when it races ahead (out-of-order) —
// and is dropped unhashed once the run is held (last).
func (c *objCell) checkManifestCell(t *testing.T, row, ev int, o ObjectStats, sent map[transport.Addr][][]byte) {
	t.Helper()
	var wantBanned []transport.Addr
	if hashed := row <= rowDecoded; hashed && ev == evManifestOutOfOrder {
		wantBanned = []transport.Addr{matrixSender}
	}
	if row == rowPoisoned {
		wantBanned = append(wantBanned, "src")
	}
	if b := c.s.BannedPeers(); !slices.Equal(b, wantBanned) {
		t.Errorf("banned %v, want %v", b, wantBanned)
	}
	if row < rowFilling {
		return
	}
	wantVerified := map[int]int{rowFilling: 0, rowPoisoned: 0, rowDecoded: c.gens, rowCommitting: 0, rowComplete: c.gens}[row]
	wantPolluted := int64(btoi(row == rowPoisoned))
	if !o.HaveManifest || o.GensVerified != wantVerified || o.Polluted != wantPolluted {
		t.Errorf("manifest delivered: %+v, want it adopted, %d generations verified, %d quarantined", o, wantVerified, wantPolluted)
	}
	if row == rowPoisoned {
		// The forger, src, is banned (above) and not re-armed for the refill.
		if r, state := kinds(sent["src"]), c.s.objects[c.id].guard[0].state; r != "" || state != genQuarantined {
			t.Errorf("quarantine sent %q to the forger, guard state %d", r, state)
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
