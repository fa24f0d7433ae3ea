package session

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"slices"
	"testing"
	"time"

	"ltnc/internal/packet"
	"ltnc/internal/transport"
)

// recTransport records what push() hands to the network, per destination
// and in send order. Nothing is delivered anywhere: the push tests call
// push() and the frame handlers directly on the test goroutine, so what a
// session emits depends on its seed and the injected frames alone.
type recTransport struct {
	self   transport.Addr
	frames map[transport.Addr][][]byte
	sums   map[transport.Addr]hash.Hash
}

func newRecTransport(self transport.Addr) *recTransport {
	return &recTransport{
		self:   self,
		frames: make(map[transport.Addr][][]byte),
		sums:   make(map[transport.Addr]hash.Hash),
	}
}

func (r *recTransport) LocalAddr() transport.Addr { return r.self }
func (r *recTransport) Close() error              { return nil }

func (r *recTransport) Recv(ctx context.Context) (transport.Frame, error) {
	<-ctx.Done()
	return transport.Frame{}, ctx.Err()
}

func (r *recTransport) Send(to transport.Addr, frame []byte) error {
	r.frames[to] = append(r.frames[to], slices.Clone(frame))
	if isReceipt(frame) {
		// A receipt is the ingest path's reply to DATA fed in, not
		// something push() emitted: a node that both receives and pushes
		// (the cache of the golden's cache-req case) sends them upstream,
		// and they stay out of its push stream digest.
		return nil
	}
	h := r.sums[to]
	if h == nil {
		h = sha256.New()
		r.sums[to] = h
	}
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(frame)))
	h.Write(n[:])
	h.Write(frame)
	return nil
}

func isReceipt(frame []byte) bool {
	return len(frame) == receiptLen && frame[0] == frameFeedback && frame[17] == fbReceipt
}

// take returns and forgets the frames recorded since the last take; the
// running per-destination digests are kept.
func (r *recTransport) take() map[transport.Addr][][]byte {
	out := r.frames
	r.frames = make(map[transport.Addr][][]byte)
	return out
}

// digest folds the per-destination stream hashes (every frame sent since
// the transport was built, length-prefixed, in send order) into one value.
func (r *recTransport) digest() string {
	dests := make([]transport.Addr, 0, len(r.sums))
	for a := range r.sums {
		dests = append(dests, a)
	}
	slices.Sort(dests)
	all := sha256.New()
	for _, a := range dests {
		fmt.Fprintf(all, "%s %x\n", a, r.sums[a].Sum(nil))
	}
	return hex.EncodeToString(all.Sum(nil))
}

// frameCounts splits recorded frames by kind.
func frameCounts(frames [][]byte) (meta, manifest, data int) {
	for _, f := range frames {
		switch f[0] {
		case frameMeta:
			meta++
		case frameManifest:
			manifest++
		case frameData:
			data++
		}
	}
	return meta, manifest, data
}

// pushSession builds a session over a recording transport and a virtual
// clock, never Run: the test owns every step.
func pushSession(t *testing.T, self transport.Addr, mut func(*Config)) (*Session, *recTransport, *transport.VClock) {
	t.Helper()
	rec := newRecTransport(self)
	clk := transport.NewVClock()
	cfg := Config{Transport: rec, Clock: clk, Tick: 2 * time.Millisecond, Burst: 3, Seed: 42, HaveSeed: true}
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, rec, clk
}

// pushTicks runs n push rounds one Tick of virtual time apart.
func pushTicks(s *Session, clk *transport.VClock, n int) {
	for i := 0; i < n; i++ {
		s.push()
		clk.Advance(s.cfg.Tick)
	}
}

// feed replays every frame src recorded toward dst's address into dst,
// as if it had crossed the network from src, dropping the frame kinds in
// without.
func feed(dst *Session, src *recTransport, without ...byte) {
	for _, f := range src.take()[dst.LocalAddr()] {
		if !slices.Contains(without, f[0]) {
			injectFrame(dst, src.self, f)
		}
	}
}

// pushGoldens are the per-configuration digests of everything push()
// emitted. The first four were recorded against the push() of commit
// 84bf7c9 — the monolithic one, re-runging fork included — by running this
// file's TestPushGolden in a checkout of that commit (8 runs, one digest
// each). The plan → emit → commit pipeline must reproduce them byte for
// byte: same frames, same per-destination order, same coder RNG
// consumption. They set Burst explicitly, so receipt pacing leaves them
// alone. Every configuration keeps to at most one REQ subscriber plus
// standing peers, the only population whose push order was deterministic
// before plans were sorted. The fifth pins the receipt-paced stream as the
// commit that introduced it emitted it.
var pushGoldens = map[string]string{
	"static-g1-manifest":  "7ce2f3fede8da7d1a086d1288b4056744519b1793089a01231709b55093a4af1",
	"g4-gen-complete":     "942e475f1d6525b8c961472a4f6599e01cc0e548fec71b3b87afbfd7bb429225",
	"adaptive-systematic": "a394421719bee887a1bf1801f8a7cd84f2a1c2a5071c0ccc93c20004295ab267",
	"cache-req":           "295aa7d66e9ae4233e5fea494406b46d7a37980cb7031b718fb8523bbc90c267",
	"paced":               "016af08097b0504b154303130e912bd765fa61e64b24507a34deefa68e4c2543",
}

func TestPushGolden(t *testing.T) {
	cases := map[string]func(t *testing.T) string{
		"static-g1-manifest": func(t *testing.T) string {
			s, rec, clk := pushSession(t, "src", nil)
			s.AddPeer("a")
			s.AddPeer("b")
			id, err := s.Serve(testContent(64*48, 1), 64, 1)
			if err != nil {
				t.Fatal(err)
			}
			pushTicks(s, clk, 10)
			injectFrame(s, "sub", encodeReq(id))
			pushTicks(s, clk, 40) // crosses a META+manifest resend
			injectFrame(s, "a", feedbackFrame(id, fbComplete))
			pushTicks(s, clk, 10)
			return rec.digest()
		},
		"g4-gen-complete": func(t *testing.T) string {
			s, rec, clk := pushSession(t, "src", func(c *Config) { c.Burst = 2 })
			s.AddPeer("a")
			s.AddPeer("b")
			id, err := s.Serve(testContent(128*32, 2), 128, 4)
			if err != nil {
				t.Fatal(err)
			}
			pushTicks(s, clk, 12)
			injectFrame(s, "b", genFeedbackFrame(id, 2))
			injectFrame(s, "sub", encodeReq(id))
			pushTicks(s, clk, 30)
			injectFrame(s, "sub", genFeedbackFrame(id, 0))
			injectFrame(s, "b", genFeedbackFrame(id, 3))
			pushTicks(s, clk, 30)
			return rec.digest()
		},
		"adaptive-systematic": func(t *testing.T) string {
			s, rec, clk := pushSession(t, "src", func(c *Config) { c.Adaptive = true; c.Burst = 4 })
			s.AddPeer("a")
			id, err := s.Serve(testContent(96*40, 3), 96, 2)
			if err != nil {
				t.Fatal(err)
			}
			pushTicks(s, clk, 6)
			injectFrame(s, "sub", encodeReq(id))
			pushTicks(s, clk, 10)
			// A lossy receipt from a (half the rows arrived) moves its loss
			// estimate; kind 3 makes its systematic cursor step over a
			// whole generation.
			injectFrame(s, "a", receiptFrame(id, 0, 32, 30))
			injectFrame(s, "a", genFeedbackFrame(id, 1))
			pushTicks(s, clk, 40) // both systematic passes end, coded repair follows
			return rec.digest()
		},
		"cache-req": func(t *testing.T) string {
			src, srcRec, srcClk := pushSession(t, "src", func(c *Config) { c.Burst = 4 })
			src.AddPeer("cache")
			id, err := src.Serve(testContent(64*32, 4), 64, 2)
			if err != nil {
				t.Fatal(err)
			}
			s, rec, clk := pushSession(t, "cache", func(c *Config) { c.CacheBudget = 1 << 20 })
			s.AddPeer("down")
			for i := 0; i < 12; i++ { // partial coverage: 48 rows offered for k = 64
				pushTicks(src, srcClk, 1)
				feed(s, srcRec)
			}
			pushTicks(s, clk, 5)
			injectFrame(s, "sub", encodeReq(id))
			pushTicks(s, clk, 30)
			injectFrame(s, "sub", genFeedbackFrame(id, 1))
			pushTicks(s, clk, 30)
			return rec.digest()
		},
		// Burst unset: receipts set the pace. "a" acknowledges every row
		// (one receipt per receiptEvery, folded by the next tick), the
		// subscriber never does; the digest pins the ramp, the taper against
		// a's innovative count, the silence decay and the rows drawn.
		"paced": func(t *testing.T) string {
			s, rec, clk := pushSession(t, "src", func(c *Config) { c.Burst = 0 })
			s.AddPeer("a")
			id, err := s.Serve(testContent(256*24, 5), 256, 1)
			if err != nil {
				t.Fatal(err)
			}
			injectFrame(s, "sub", encodeReq(id))
			got := uint32(0)
			for tick := 0; tick < 60; tick++ {
				pushTicks(s, clk, 1)
				_, _, data := frameCounts(rec.take()["a"])
				for ; data > 0; data-- {
					if got++; got%receiptEvery == 0 {
						injectFrame(s, "a", receiptFrame(id, 0, got, got))
					}
				}
			}
			return rec.digest()
		},
	}
	for name, run := range cases {
		t.Run(name, func(t *testing.T) {
			if got := run(t); got != pushGoldens[name] {
				t.Errorf("push stream digest of %q changed:\n got  %s\n want %s", name, got, pushGoldens[name])
			}
		})
	}
}

// TestPushDeterministicAcrossSubscribers: two same-seed sessions with
// three REQ subscribers must emit identical streams. Before plans visited
// subscribers in address order, Go's map iteration picked which peer's
// Recode consumed the shared coder RNG first, so the two runs diverged.
func TestPushDeterministicAcrossSubscribers(t *testing.T) {
	run := func() string {
		s, rec, clk := pushSession(t, "src", nil)
		s.AddPeer("standing")
		ida, err := s.Serve(testContent(64*32, 5), 64, 2)
		if err != nil {
			t.Fatal(err)
		}
		idb, err := s.Serve(testContent(32*32, 6), 32, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, sub := range []transport.Addr{"s3", "s1", "s2"} {
			injectFrame(s, sub, encodeReq(ida))
			injectFrame(s, sub, encodeReq(idb))
		}
		pushTicks(s, clk, 20)
		return rec.digest()
	}
	first := run()
	for i := 0; i < 4; i++ {
		if again := run(); again != first {
			t.Fatalf("same seed, different push streams: %s vs %s", first, again)
		}
	}
}

// Object modes and peer states of the push matrix: every peer state is
// pushed at under every object mode, one push() per cell, asserting the
// frames that left and the fields the round wrote back.
const (
	objDead = iota
	objCachedSizeless
	objCached
	objBelowThreshold
	objReady
	objTainted
	objModes
)

const (
	peerFresh = iota
	peerNeedsMeta
	peerDone
	peerPaused
	peerGensPartial
	peerStates
)

var (
	objModeNames   = [objModes]string{"dead", "cached-sizeless", "cached", "below-threshold", "ready", "tainted-unverified"}
	peerStateNames = [peerStates]string{"fresh", "needs-META", "done", "paused", "gensDone-partial"}
)

// matrixCell is one randomized (object mode, peer state) set-up, ready
// for its push().
type matrixCell struct {
	s        *Session
	rec      *recTransport
	st       *objectState
	burst    int
	adaptive bool
	done     []bool // the peer's completed generations (gensDone-partial only)
}

const matrixPeer transport.Addr = "peer"

// newMatrixCell builds a session holding one object in mode obj, with
// matrixPeer in state peer. Geometry, burst, seed and the adaptive switch
// are drawn from rng.
func newMatrixCell(t *testing.T, rng *rand.Rand, obj, peer int) *matrixCell {
	t.Helper()
	gens, kPer, m := 2+rng.Intn(3), 8+rng.Intn(17), 16*(1+rng.Intn(3))
	c := &matrixCell{burst: 1 + rng.Intn(5), adaptive: rng.Intn(2) == 0}
	seed := rng.Int63()
	mut := func(cfg *Config) { cfg.Burst, cfg.Seed, cfg.Adaptive = c.burst, seed, c.adaptive }

	// A plain source the node under test learns the object from.
	src, srcRec, srcClk := pushSession(t, "src", func(cfg *Config) { cfg.Burst = c.burst; cfg.Seed = seed + 1 })
	src.AddPeer("node")
	id, err := src.Serve(testContent(gens*kPer*m, seed), gens*kPer, gens)
	if err != nil {
		t.Fatal(err)
	}
	// learn feeds n source push rounds into s, minus the frame kinds in
	// without.
	learn := func(s *Session, n int, without ...byte) {
		for i := 0; i < n; i++ {
			pushTicks(src, srcClk, 1)
			feed(s, srcRec, without...)
		}
	}
	var clk *transport.VClock
	switch obj {
	case objReady, objDead:
		c.s, c.rec, clk = pushSession(t, "node", mut)
		if _, err := c.s.Serve(testContent(gens*kPer*m, seed), gens*kPer, gens); err != nil {
			t.Fatal(err)
		}
	case objCached, objCachedSizeless:
		c.s, c.rec, clk = pushSession(t, "node", func(cfg *Config) { mut(cfg); cfg.CacheBudget = 1 << 20 })
		if obj == objCached {
			learn(c.s, 2*gens)
		} else {
			learn(c.s, 2*gens, frameMeta, frameManifest)
		}
	case objBelowThreshold:
		c.s, c.rec, clk = pushSession(t, "node", func(cfg *Config) { mut(cfg); cfg.Relay = true; cfg.Aggressiveness = 0.9 })
		learn(c.s, 1)
	case objTainted:
		c.s, c.rec, clk = pushSession(t, "node", func(cfg *Config) { mut(cfg); cfg.Relay = true })
		if rng.Intn(2) == 0 {
			// Manifest in hand, nothing verified yet.
			learn(c.s, 1)
		} else {
			// No manifest, every generation explicitly quarantined.
			learn(c.s, 1, frameManifest)
			st := c.s.objects[id]
			st.ensurePollLocked()
			for g := range st.tainted {
				st.tainted[g] = true
			}
		}
	}
	c.st = c.s.objects[id]
	if c.st == nil {
		t.Fatalf("object not learned in mode %s", objModeNames[obj])
	}
	now := clk.Now()
	if peer == peerFresh {
		c.s.AddPeer(matrixPeer)
	} else {
		injectFrame(c.s, matrixPeer, encodeReq(id))
		ps := c.st.peers[matrixPeer]
		switch peer {
		case peerNeedsMeta:
			ps.metaAt = now.Add(-c.s.metaResend())
		case peerDone:
			ps.done = true
		case peerPaused:
			ps.pauseUntil = now.Add(time.Second)
		case peerGensPartial:
			ps.metaAt = now
			ps.gensDone = make([]bool, gens)
			for _, g := range rng.Perm(gens)[:1+rng.Intn(gens-1)] {
				ps.gensDone[g] = true
				ps.gensDoneN++
			}
			c.done = ps.gensDone
		}
	}
	if obj == objDead {
		c.st.dead = true
	}
	c.rec.take()
	return c
}

func TestPushStateMatrix(t *testing.T) {
	seed := time.Now().UnixNano()
	t.Logf("matrix seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	for obj := 0; obj < objModes; obj++ {
		for peer := 0; peer < peerStates; peer++ {
			t.Run(objModeNames[obj]+"/"+peerStateNames[peer], func(t *testing.T) {
				for rep := 0; rep < 3; rep++ {
					checkMatrixCell(t, newMatrixCell(t, rng, obj, peer), obj, peer)
				}
			})
		}
	}
}

// checkMatrixCell runs one push() on the cell and asserts what left and
// what was written back.
func checkMatrixCell(t *testing.T, c *matrixCell, obj, peer int) {
	t.Helper()
	s, st := c.s, c.st
	var before peerState
	if ps := st.peers[matrixPeer]; ps != nil {
		before = *ps
	}
	sentBefore, now := st.sent, s.clk.Now()

	s.push()

	frames := c.rec.take()
	for to := range frames {
		if to != matrixPeer {
			t.Fatalf("push addressed %s, the only target is %s", to, matrixPeer)
		}
	}
	meta, manifest, data := frameCounts(frames[matrixPeer])
	targeted := peer != peerDone && peer != peerPaused
	emits := targeted && obj != objDead && obj != objBelowThreshold
	wantMeta := emits && obj != objCachedSizeless && (peer == peerFresh || peer == peerNeedsMeta)
	wantMan, wantData := 0, 0
	if wantMeta {
		wantMan = len(st.manFrames)
	}
	if emits && obj != objTainted {
		wantData = c.burst
	}
	if meta != btoi(wantMeta) || manifest != wantMan || data != wantData {
		t.Fatalf("emitted %d META, %d MANIFEST, %d DATA; want %d, %d, %d",
			meta, manifest, data, btoi(wantMeta), wantMan, wantData)
	}
	if wantMeta && frames[matrixPeer][0][0] != frameMeta {
		t.Fatalf("META did not lead the round: first frame kind %#x", frames[matrixPeer][0][0])
	}
	systematic := c.adaptive && obj == objReady
	for _, f := range frames[matrixPeer] {
		if f[0] != frameData {
			continue
		}
		h, err := packet.ReadHeader(bytes.NewReader(f[1:]))
		if err != nil {
			t.Fatal(err)
		}
		if int(h.Generation) < len(c.done) && c.done[h.Generation] {
			t.Fatalf("DATA for generation %d, which the peer reported complete (%v)", h.Generation, c.done)
		}
		if systematic && h.Vec.PopCount() != 1 {
			t.Fatalf("degree-%d row inside the systematic first pass", h.Vec.PopCount())
		}
	}

	if got := st.sent - sentBefore; got != int64(wantData) {
		t.Fatalf("st.sent moved by %d, %d DATA frames left", got, wantData)
	}
	if want := int64(btoi(systematic) * wantData); st.systematic != want {
		t.Fatalf("st.systematic = %d, want %d", st.systematic, want)
	}
	ps := st.peers[matrixPeer]
	if ps == nil {
		t.Fatal("peer state missing after push")
	}
	if !targeted {
		if ps.metaAt != before.metaAt || ps.cacheCursor != before.cacheCursor ||
			ps.sysCursor != before.sysCursor || ps.link != before.link {
			t.Fatalf("push wrote back to an untargeted peer: %+v (was %+v)", *ps, before)
		}
		return
	}
	if wantMeta && !ps.metaAt.Equal(now) {
		t.Fatalf("metaAt = %v after a META went out at %v", ps.metaAt, now)
	}
	if !wantMeta && !ps.metaAt.Equal(before.metaAt) {
		t.Fatalf("metaAt moved %v -> %v though no META left", before.metaAt, ps.metaAt)
	}
	cached := obj == objCached || obj == objCachedSizeless
	if moved := ps.cacheCursor != before.cacheCursor; moved != (cached && wantData > 0) {
		t.Fatalf("cacheCursor %d -> %d in mode %s", before.cacheCursor, ps.cacheCursor, objModeNames[obj])
	}
	if systematic && ps.sysCursor < wantData {
		t.Fatalf("sysCursor = %d after %d systematic rows", ps.sysCursor, wantData)
	}
	if !systematic && !(c.adaptive && obj == objTainted) && ps.sysCursor != 0 {
		t.Fatalf("sysCursor = %d with no systematic pass", ps.sysCursor)
	}
	if got := ps.link.Sent() - before.link.Sent(); got != uint64(wantData) {
		t.Fatalf("link estimator counted %d rows sent, %d DATA frames left", got, wantData)
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
