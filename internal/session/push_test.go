package session

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"time"

	"ltnc/internal/bitvec"
	"ltnc/internal/packet"
	"ltnc/internal/transport"
)

// recTransport records what a session hands to the network, per
// destination and in send order, and queues what the test hands the
// session (deliver). Nothing moves by itself: the tests call push(), Step
// and its ingest half directly on the test goroutine, so what a session
// emits depends on its seed and the frames delivered alone.
type recTransport struct {
	self   transport.Addr
	inbox  []transport.Frame
	frames map[transport.Addr][][]byte
	sums   map[transport.Addr]hash.Hash
	// masked is sums with every DATA row's stamp (header byte 3) zeroed:
	// the stream as it was before rows carried stamps. data is sums over
	// the DATA frames alone.
	masked map[transport.Addr]hash.Hash
	data   map[transport.Addr]hash.Hash
	// sent, if set, sees every frame as the session sends it.
	sent func(to transport.Addr, frame []byte)
}

func newRecTransport(self transport.Addr) *recTransport {
	return &recTransport{
		self:   self,
		frames: make(map[transport.Addr][][]byte),
		sums:   make(map[transport.Addr]hash.Hash),
		masked: make(map[transport.Addr]hash.Hash),
		data:   make(map[transport.Addr]hash.Hash),
	}
}

func (r *recTransport) LocalAddr() transport.Addr { return r.self }
func (r *recTransport) Close() error              { return nil }

func (r *recTransport) Recv(ctx context.Context) (transport.Frame, error) {
	<-ctx.Done()
	return transport.Frame{}, ctx.Err()
}

// deliver queues one frame as having crossed the network from a peer.
func (r *recTransport) deliver(from transport.Addr, data []byte) {
	r.inbox = append(r.inbox, transport.NewFrame(from, data, nil))
}

// Poll makes the recorder a transport.Poller: what Step drains.
func (r *recTransport) Poll() (transport.Frame, bool) {
	if len(r.inbox) == 0 {
		return transport.Frame{}, false
	}
	f := r.inbox[0]
	r.inbox = r.inbox[1:]
	return f, true
}

func (r *recTransport) Send(to transport.Addr, frame []byte) error {
	if r.sent != nil {
		r.sent(to, frame)
	}
	r.frames[to] = append(r.frames[to], slices.Clone(frame))
	if isReport(frame) {
		// A receipt is the ingest path's reply to DATA fed in, not
		// something push() emitted: a node that both receives and pushes
		// (the cache of the golden's cache-req case) sends them upstream,
		// and they stay out of its push stream digest.
		return nil
	}
	digestFrame(r.sums, to, frame)
	if frame[0] == packet.FrameData {
		digestFrame(r.data, to, frame)
		frame = slices.Clone(frame)
		packet.Restamp(frame[1:], 0)
	}
	digestFrame(r.masked, to, frame)
	return nil
}

// digestFrame adds frame, length-prefixed, to to's running hash in sums.
func digestFrame(sums map[transport.Addr]hash.Hash, to transport.Addr, frame []byte) {
	h := sums[to]
	if h == nil {
		h = sha256.New()
		sums[to] = h
	}
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(frame)))
	h.Write(n[:])
	h.Write(frame)
}

// receiptFrame is the short receipt with a departure count of 0: the
// counters alone, what a receiver reports to a sender whose rows carry no
// stamp.
func receiptFrame(id packet.ObjectID, gen, received, innovative uint32) []byte {
	return reportFrame(packet.Report{Object: id, Gen: gen, Received: received, Innovative: innovative})
}

// subReport is a stranger's subscription: a report with no flag and no
// counter, what a fetch that has heard nothing of the object sends.
func subReport(id packet.ObjectID) []byte { return receiptFrame(id, 0, 0, 0) }

// completeReport, genCompleteReport and needReport are reports flagging
// the object complete, generation gen complete, and run r lacking, from a
// receiver that has judged no row of the addressed sender's.
func completeReport(id packet.ObjectID) []byte {
	return reportFrame(packet.Report{Object: id, Flags: packet.ReportComplete})
}

func genCompleteReport(id packet.ObjectID, gen uint32) []byte {
	return reportFrame(packet.Report{Object: id, Flags: packet.ReportGenComplete, Gen: gen})
}

func needReport(id packet.ObjectID, r uint32) []byte {
	return reportFrame(packet.Report{Object: id, Flags: packet.ReportNeed, Need: r})
}

// reportFrame is the FEEDBACK frame carrying r.
func reportFrame(r packet.Report) []byte {
	return packet.AppendReport([]byte{packet.FrameFeedback}, r)
}

// frontierOf is the frontier of a kPer-native generation with the natives
// in decoded set; an index past kPer sets a padding bit.
func frontierOf(kPer int, decoded ...int32) []byte {
	return packet.AppendFrontier(nil, kPer, decoded)
}

// parseReport decodes frame as a FEEDBACK frame carrying a report.
func parseReport(frame []byte) (packet.Report, bool) {
	if len(frame) == 0 || frame[0] != packet.FrameFeedback {
		return packet.Report{}, false
	}
	r, err := packet.ParseReport(frame[1:])
	return r, err == nil
}

// isReport recognizes a report in either form: the counters alone, or with
// a frontier behind them.
func isReport(frame []byte) bool {
	_, ok := parseReport(frame)
	return ok
}

// reportCounters reads a report's generation and counters.
func reportCounters(f []byte) (gen, received, innovative, departed uint32) {
	r, _ := parseReport(f)
	return r.Gen, r.Received, r.Innovative, r.Departed
}

// isNeed reports whether frame is a report naming a run it lacks.
func isNeed(frame []byte) bool {
	r, ok := parseReport(frame)
	return ok && r.Flags&packet.ReportNeed != 0
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
func (r *recTransport) digest() string { return foldDigests(r.sums) }

// maskedDigest is digest with every DATA row's stamp zeroed.
func (r *recTransport) maskedDigest() string { return foldDigests(r.masked) }

// dataDigest is digest over the DATA frames alone.
func (r *recTransport) dataDigest() string { return foldDigests(r.data) }

func foldDigests(sums map[transport.Addr]hash.Hash) string {
	all := sha256.New()
	for _, a := range slices.Sorted(maps.Keys(sums)) {
		fmt.Fprintf(all, "%s %x\n", a, sums[a].Sum(nil))
	}
	return hex.EncodeToString(all.Sum(nil))
}

// frameCounts splits recorded frames by kind.
func frameCounts(frames [][]byte) (manifest, data int) {
	for _, f := range frames {
		switch f[0] {
		case packet.FrameManifest:
			manifest++
		case packet.FrameData:
			data++
		}
	}
	return manifest, data
}

// pushSession builds a session over a recording transport and a virtual
// clock, never Run: the test owns every step.
func pushSession(t *testing.T, self transport.Addr, mut func(*Config)) (*Session, *recTransport, *transport.VClock) {
	t.Helper()
	rec := newRecTransport(self)
	clk := transport.NewVClock()
	cfg := Config{Transport: rec, Clock: clk, Tick: 2 * time.Millisecond, Seed: 42, HaveSeed: true}
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
// emitted: same frames, same per-destination order, same coder RNG
// consumption. systematic stood as recorded against the monolithic push()
// of commit 84bf7c9 (by running this file's TestPushGolden in a checkout
// of that commit, 8 runs, one digest), through the plan → emit → commit
// rebuild and through the systematic pass moving from native-index order
// to the decode-order log — a seeded source's log is 0..k−1, so its stream
// did not change. The other four were re-pinned when the pass became
// unconditional: static-g1-manifest, g4-gen-complete and paced because a
// plain source now opens every peer's stream with its natives in order
// before any coded row; cache-req because the 48 rows its plain source
// offers the cache are now natives 0..47 instead of coded rows dealt
// across both generations, so the cache serves a different basis. All but
// paced then ran at a fixed per-tick burst, which the pacer left alone; paced was
// re-pinned again when the pacer's state became a window of rows in flight
// (a receipt per sixteen rows, a tick late, now frees sixteen rows of
// window where it used to move a per-tick burst, and unacknowledged rows
// age out). Every configuration keeps to at most one subscriber plus
// standing peers, the only population whose push order was deterministic
// before plans were sorted. All five were re-pinned once more when DATA
// rows began to carry their send sequence in header byte 3; maskedGoldens,
// the same streams with that byte zeroed, were then the five digests as
// they stood before, so the stamp was the only thing that moved in any
// stream. dataGoldens are the streams' DATA frames alone.
//
// The one META form re-pinned the two single-generation streams,
// static-g1-manifest and paced, stamps zeroed or not: a single-generation
// object's META grew from 33 bytes to the 37 of the generation form, and
// nothing a push round drew or sent as DATA moved. systematic was
// adaptive-systematic until the Adaptive switch, which no push stream ever
// depended on, was retired.
//
// The last re-pin came with the one pacer: the fixed per-tick burst the
// other four set (pushSession's 3, and 2, 4 and 4) is gone, so every
// configuration is now receipt-clocked like paced — a start window of four
// rows, then the window the receipts free, or the floor of a row a tick
// where none come — and all three digests of those four moved. g4-gen-complete
// and cache-req moved with that alone; static-g1-manifest and systematic also
// by the rule that a generation with no frontier gets no coded row while a
// native of it sent to the peer is unsettled (recodeLocked). paced did not
// move, in any of its three forms. systematic runs 80 ticks after the
// receipt where it ran 40, so that both passes still end before it does.
//
// All fifteen were re-pinned when object IDs began to commit to the
// geometry and the manifest root: every frame carries the ID, and the META
// carries the root. With the object ID and the stamp zeroed in each DATA
// frame, every stream hashes as it did before; no configuration sends a
// DATA or META frame more or less, and only cache-req sends more MANIFEST
// frames — 3 to each peer, where it sent none: a cache now adopts the
// manifest and serves it, because a fetcher cannot complete without one.
//
// cache-req's full and stamp-zeroed digests were re-pinned when the kind-4
// cache advertisement was retired: the REQ it hears is answered by the META
// alone. Its stream is the one it sent before with the advertisement taken
// out; its DATA digest and the other four cases did not move.
//
// paced alone was re-pinned, in all three forms, when the window cap rose
// from one receiver batch (32 rows) to two (64): a's window reaches the new
// cap in one tick before the taper, so a takes 472 DATA rows in the 60
// ticks where it took 464. With stamps zeroed, the 464 are the first 464 of
// the 472, row for row, and the subscriber's 73 are unchanged: the window
// moved, not the rows drawn. The other four never fill a 32-row window.
//
// All fifteen were re-pinned when the manifest root became a Merkle root
// over runs of 1,024 digests: every object ID changed, so every frame
// carrying one did, and so did every META's root and every MANIFEST
// frame's layout. With the object-ID bytes and the META's root zeroed and
// the MANIFEST frames left out of the digest, every case's stream is, byte
// for byte, the one it was (each object here is one run, one MANIFEST frame
// before and after).
//
// The full and stamp-zeroed digests of all five were re-pinned when proof
// became one pass per peer, ahead of its rows, with the META cadence gone:
// every peer's stream now opens with its META and its one MANIFEST frame
// and carries no other, where the cadence put the pair in again every 25
// ticks (static-g1-manifest's a went from M F 38 DATA M F 25 DATA to M F 63
// DATA, say). The DATA frames did not move, row for row, in any case: the
// five dataGoldens stand as they were.
//
// The full and stamp-zeroed digests of all five were re-pinned when the
// META was folded into the MANIFEST frame: every peer's stream now opens
// with its one MANIFEST frame, 52 bytes longer for the object's
// description, and no META. The DATA frames did not move, row for row, in
// any case: the five dataGoldens stand as they were.
//
// g4-gen-complete and cache-req were re-pinned, in all three forms, when
// generation complete became a flag of the one receiver report: the report
// carries the receiver's counters, and the sender folds them as it folds a
// receipt's. b and sub acknowledge no row in either case, so the report
// (no row received) is the first word the sender hears from them, and
// their links stop decaying for silence: in g4-gen-complete b takes 121
// DATA rows where it took 85 and sub 85 where it took 73, in cache-req sub
// 85 where it took 73. a and down did not move.
var pushGoldens = map[string]string{
	"static-g1-manifest": "3f3feef470a46913e81b8924a7ebe52a2ba666145a6a1b634d8738840e6826a5",
	"g4-gen-complete":    "1a75318281360b7c42df573713d0050056e910c253f20a81a869631f7500a7d4",
	"systematic":         "1a3de104309dce0a97cea671fdc6c8c02a74b61e98649e5d81e51b7cafefd2d4",
	"cache-req":          "691547300d58b59a23b2d40f2414d9688fcc33ac7b0f25d8c3a309044787cf6f",
	"paced":              "b42076a06d76534e8bd142e0c2f560fae5ab2db5dfc6ce8ea26573668e66ee37",
}

var maskedGoldens = map[string]string{
	"static-g1-manifest": "890ef08198ed094d6d88e803e240aa33077c59ae3744f64d34bada20ce5930de",
	"g4-gen-complete":    "ab540de9cb721ffb4a0247ada7928389f021ee81dc7b377fe69a9fe01e3d795f",
	"systematic":         "2860bdf5fa674e071e4ff9066dda9a4aa86e2333a1cc840014a90de76ab53b57",
	"cache-req":          "ea992569d421aa1621b48e5ce913d7ed769cc6f19c69b983d930b757c629b4eb",
	"paced":              "7156dfdefa4ff206253beaec8ebb92043b3780344acc29ae07488f77e3093fa4",
}

var dataGoldens = map[string]string{
	"static-g1-manifest": "1e2be31c636da275e71dd557be211bd8ab7e20ceeb5037035f2fec7e5b9b9346",
	"g4-gen-complete":    "13e1bbf09a7cfeb5bb05451c97dc531bd7cb338686075a9e829eae4d197d848c",
	"systematic":         "0a6edc13c1508aaeba3fa75f68bc63f400605e83bea49ed5d767af7a84e9af97",
	"cache-req":          "cdc789d8fc6a29a49e4c79c3d92d9e0effd1ffa3ec6ce5f2cad54a3b435931cf",
	"paced":              "4e64a2613e39538c1810b52b71643f2c7c829b650b2e412c986a020fd2ea38c7",
}

func TestPushGolden(t *testing.T) {
	cases := map[string]func(t *testing.T) *recTransport{
		"static-g1-manifest": func(t *testing.T) *recTransport {
			s, rec, clk := pushSession(t, "src", nil)
			s.AddPeer("a")
			s.AddPeer("b")
			id, err := s.Serve(testContent(64*48, 1), 64, 1)
			if err != nil {
				t.Fatal(err)
			}
			pushTicks(s, clk, 10)
			injectFrame(s, "sub", subReport(id))
			pushTicks(s, clk, 40)
			injectFrame(s, "a", completeReport(id))
			pushTicks(s, clk, 10)
			return rec
		},
		"g4-gen-complete": func(t *testing.T) *recTransport {
			s, rec, clk := pushSession(t, "src", nil)
			s.AddPeer("a")
			s.AddPeer("b")
			id, err := s.Serve(testContent(128*32, 2), 128, 4)
			if err != nil {
				t.Fatal(err)
			}
			pushTicks(s, clk, 12)
			injectFrame(s, "b", genCompleteReport(id, 2))
			injectFrame(s, "sub", subReport(id))
			pushTicks(s, clk, 30)
			injectFrame(s, "sub", genCompleteReport(id, 0))
			injectFrame(s, "b", genCompleteReport(id, 3))
			pushTicks(s, clk, 30)
			return rec
		},
		"systematic": func(t *testing.T) *recTransport {
			s, rec, clk := pushSession(t, "src", nil)
			s.AddPeer("a")
			id, err := s.Serve(testContent(96*40, 3), 96, 2)
			if err != nil {
				t.Fatal(err)
			}
			pushTicks(s, clk, 6)
			injectFrame(s, "sub", subReport(id))
			pushTicks(s, clk, 10)
			// A lossy receipt from a (half the rows arrived) moves its loss
			// estimate; a generation-complete report makes its systematic
			// cursor step over a whole generation.
			injectFrame(s, "a", receiptFrame(id, 0, 32, 30))
			injectFrame(s, "a", reportFrame(packet.Report{Object: id, Flags: packet.ReportGenComplete, Gen: 1, Received: 32, Innovative: 30}))
			pushTicks(s, clk, 80) // both systematic passes end, coded repair follows
			return rec
		},
		"cache-req": func(t *testing.T) *recTransport {
			src, srcRec, srcClk := pushSession(t, "src", nil)
			src.AddPeer("cache")
			id, err := src.Serve(testContent(64*32, 4), 64, 2)
			if err != nil {
				t.Fatal(err)
			}
			s, rec, clk := pushSession(t, "cache", func(c *Config) { c.CacheBudget = 1 << 20 })
			s.AddPeer("down")
			for i := 0; i < 12; i++ { // partial coverage: no receipt goes back, 25 rows offered for k = 64
				pushTicks(src, srcClk, 1)
				feed(s, srcRec)
			}
			pushTicks(s, clk, 5)
			injectFrame(s, "sub", subReport(id))
			pushTicks(s, clk, 30)
			injectFrame(s, "sub", genCompleteReport(id, 1))
			pushTicks(s, clk, 30)
			return rec
		},
		// Receipts set the pace. "a" acknowledges every row
		// (one receipt per receiptEvery, folded by the next round), the
		// subscriber never does; the digest pins the ramp, the taper against
		// a's innovative count, the ageing of rows no receipt names, the
		// silence decay and the rows drawn.
		"paced": func(t *testing.T) *recTransport {
			s, rec, clk := pushSession(t, "src", nil)
			s.AddPeer("a")
			id, err := s.Serve(testContent(256*24, 5), 256, 1)
			if err != nil {
				t.Fatal(err)
			}
			injectFrame(s, "sub", subReport(id))
			got := uint32(0)
			for tick := 0; tick < 60; tick++ {
				pushTicks(s, clk, 1)
				_, data := frameCounts(rec.take()["a"])
				for ; data > 0; data-- {
					if got++; got%receiptEvery == 0 {
						injectFrame(s, "a", receiptFrame(id, 0, got, got))
					}
				}
			}
			return rec
		},
	}
	for name, run := range cases {
		t.Run(name, func(t *testing.T) {
			rec := run(t)
			if got := rec.digest(); got != pushGoldens[name] {
				t.Errorf("push stream digest of %q changed:\n got  %s\n want %s", name, got, pushGoldens[name])
			}
			if got := rec.maskedDigest(); got != maskedGoldens[name] {
				t.Errorf("push stream digest of %q, stamps zeroed, changed:\n got  %s\n want %s", name, got, maskedGoldens[name])
			}
			if got := rec.dataDigest(); got != dataGoldens[name] {
				t.Errorf("push stream digest of %q, DATA frames alone, changed:\n got  %s\n want %s", name, got, dataGoldens[name])
			}
		})
	}
}

// TestPushDeterministicAcrossSubscribers: two same-seed sessions with
// three subscribers must emit identical streams. Before plans visited
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
			injectFrame(s, sub, subReport(ida))
			injectFrame(s, sub, subReport(idb))
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
	objQuarantined
	// Manifest in hand, no generation verified yet — the taint gate's
	// native grain: what may leave is exactly the decoded natives that
	// match their digests.
	objUnverifiedProven
	objUnverifiedMismatch
	objUnverifiedUndecoded
	objModes
)

// Peer states: fresh — a configured peer, its proof pass from the start;
// needs-META — a subscriber whose pass has sent all it could and a need has
// re-armed run 0, the first frame that describes the object (once the
// META); done; paused — a subscriber whose subscription re-armed its
// pass and whose window is full; gensDone-partial — a subscriber whose pass
// has sent all it could and who has reported some generations complete.
const (
	peerFresh = iota
	peerNeedsMeta
	peerDone
	peerPaused
	peerGensPartial
	peerStates
)

var (
	objModeNames = [objModes]string{"dead", "cached-sizeless", "cached", "below-threshold", "ready", "tainted-unverified",
		"unverified-native-proven", "unverified-digest-mismatch", "unverified-not-decoded"}
	peerStateNames = [peerStates]string{"fresh", "needs-META", "done", "paused", "gensDone-partial"}
)

// matrixCell is one randomized (object mode, peer state) set-up, ready
// for its push().
type matrixCell struct {
	s       *Session
	rec     *recTransport
	st      *objectState
	content []byte
	done    []bool // the peer's completed generations (gensDone-partial only)
	// early (the unverified modes): the hand-fed rows arrived before the
	// manifest did.
	early bool
}

const matrixPeer transport.Addr = "peer"

// newMatrixCell builds a session holding one object in mode obj, with
// matrixPeer in state peer. Geometry and seed are drawn from rng.
func newMatrixCell(t *testing.T, rng *rand.Rand, obj, peer int) *matrixCell {
	t.Helper()
	gens, kPer, m := 2+rng.Intn(3), 8+rng.Intn(17), 16*(1+rng.Intn(3))
	if obj == objBelowThreshold {
		kPer = 200 + rng.Intn(17) // k ≥ 400: a recoding gate of 5 rows or more
	}
	content := testContent(gens*kPer*m, rng.Int63())
	c := &matrixCell{content: content}
	seed := rng.Int63()
	mut := func(cfg *Config) { cfg.Seed = seed }

	// A plain source the node under test learns the object from.
	src, srcRec, srcClk := pushSession(t, "src", func(cfg *Config) { cfg.Seed = seed + 1 })
	src.AddPeer("node")
	id, err := src.Serve(content, gens*kPer, gens)
	if err != nil {
		t.Fatal(err)
	}
	row := func(g int, forged bool, idx ...int) []byte {
		return handRow(t, id, content, gens, kPer, g, forged, idx...)
	}
	// learn feeds n source push rounds into s, minus the frame kinds in
	// without, and s's receipts back: they are what paces the source.
	learn := func(s *Session, n int, without ...byte) {
		for i := 0; i < n; i++ {
			pushTicks(src, srcClk, 1)
			feed(s, srcRec, without...)
			feed(src, s.tr.(*recTransport))
		}
	}
	var clk *transport.VClock
	switch obj {
	case objReady, objDead:
		c.s, c.rec, clk = pushSession(t, "node", mut)
		if _, err := c.s.Serve(content, gens*kPer, gens); err != nil {
			t.Fatal(err)
		}
	case objCached, objCachedSizeless:
		c.s, c.rec, clk = pushSession(t, "node", func(cfg *Config) { mut(cfg); cfg.CacheBudget = 1 << 20 })
		// The source's systematic pass walks generation by generation: run
		// it through, so the cache covers every generation a peer may ask for.
		var without []byte
		if obj == objCachedSizeless {
			without = []byte{packet.FrameManifest}
		}
		for full := false; !full; full, _ = c.s.cache.Coverage(id) {
			if srcClk.Since(transport.VClockBase) > time.Second {
				t.Fatalf("set-up: the cache does not cover all %d generations after a second of pushes", gens)
			}
			learn(c.s, 1, without...)
		}
	case objBelowThreshold:
		// One source round delivers the link's start window, four rows; the
		// geometry puts the gate, K/100 + 1, above it.
		c.s, c.rec, clk = pushSession(t, "node", func(cfg *Config) { mut(cfg); cfg.Relay = true })
		learn(c.s, 1)
		if st := c.s.objects[id]; st == nil || st.coder == nil || st.coder.Received() >= threshold(st.k) {
			t.Fatalf("set-up: the relay is not below its recoding gate of %d rows", threshold(gens*kPer))
		}
	case objQuarantined:
		// No manifest, every generation explicitly quarantined.
		c.s, c.rec, clk = pushSession(t, "node", func(cfg *Config) { mut(cfg); cfg.Relay = true })
		learn(c.s, 1, packet.FrameManifest)
		st := c.s.objects[id]
		for g := range st.guard {
			st.guard[g].state = genQuarantined
		}
	case objUnverifiedProven, objUnverifiedMismatch, objUnverifiedUndecoded:
		c.s, c.rec, clk = pushSession(t, "node", func(cfg *Config) { mut(cfg); cfg.Relay = true })
		// Rows that arrive before the manifest are not checked on arrival:
		// the proof is then made (or fails) when the push draws the native.
		c.early = rng.Intn(2) == 0
		pushTicks(src, srcClk, 1)
		opening := srcRec.take()["node"]
		deliver := func(kind byte) {
			for _, f := range opening {
				if f[0] == kind {
					injectFrame(c.s, "src", f)
				}
			}
		}
		if !c.early {
			deliver(packet.FrameManifest)
		}
		for g := 0; g < gens; g++ {
			switch obj {
			case objUnverifiedProven:
				injectFrame(c.s, "src", row(g, false, 0))
				injectFrame(c.s, "src", row(g, false, 1))
			case objUnverifiedMismatch:
				if c.early {
					// Forged unit rows, in before the manifest.
					injectFrame(c.s, "src", row(g, true, 0))
					injectFrame(c.s, "src", row(g, true, 1))
				} else {
					// A true native, then a forged dense row: belief
					// propagation peels a false native 1 out of it.
					injectFrame(c.s, "src", row(g, false, 0))
					injectFrame(c.s, "src", row(g, true, 0, 1))
				}
			case objUnverifiedUndecoded:
				injectFrame(c.s, "src", row(g, false, 0, 1))
				injectFrame(c.s, "src", row(g, false, 2, 3))
			}
		}
		if c.early {
			deliver(packet.FrameManifest)
		}
		plain := 2 * gens * btoi(obj != objUnverifiedUndecoded) // natives 0 and 1 of every generation
		if st := c.s.objects[id]; st.man == nil || st.coder.DecodedCount() != plain {
			t.Fatalf("set-up: manifest %v, %d natives decoded, want %d", st.man != nil, st.coder.DecodedCount(), plain)
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
		injectFrame(c.s, matrixPeer, subReport(id))
		ps := c.st.peers[matrixPeer]
		if peer == peerNeedsMeta || peer == peerGensPartial {
			ps.pass = passEnd(c.st)
		}
		switch peer {
		case peerNeedsMeta:
			if holdsProof(0, c.st.manFrames) {
				ps.owed = 1 // what a need for run 0 re-arms
			}
		case peerDone:
			ps.done = true
		case peerPaused:
			// A window full of rows no receipt has answered yet, sent this
			// tick: the pacer grants the peer nothing until one does, and
			// the round leaves it out.
			ps.link.Grant(now, c.s.cfg.Tick, c.st.k)
			ps.link.OnSend(ps.link.Window(), now)
		case peerGensPartial:
			ps.gensDone = make([]bool, gens)
			for _, g := range rng.Perm(gens)[:1+rng.Intn(gens-1)] {
				ps.gensDone[g] = true
				ps.gensDoneN++
			}
			c.done = ps.gensDone
		}
	}
	if obj == objDead {
		c.st.evictLocked()
	}
	c.rec.take()
	return c
}

// passEnd is where a proof pass that has sent all it could of st's proof
// stands: at the first item st does not hold, or −1 past the last.
func passEnd(st *objectState) int {
	return slices.IndexFunc(st.proofLocked(), func(f []byte) bool { return f == nil })
}

func TestPushStateMatrix(t *testing.T) {
	seed := testSeed(t)
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

// matrixWant is what one push() of a matrix cell should emit to the peer,
// and whether the round draws rows from a coder for it.
type matrixWant struct {
	manifest, data int
	draws          bool
}

// want derives the cell's expected round. Proof goes to every peer not
// done of an object not evicted, its window full or not: the run a need
// owes, if held, then the pass from the run it stands at, up to
// manifestChunksPerRound runs, waiting at a run not held. Rows follow only
// once the run that proves them has gone — at these geometries the
// manifest is one run — from an object ready to emit, to a peer whose
// window is open.
func (c *matrixCell) want(obj, peer, grant int, before peerState) (w matrixWant) {
	st := c.st
	if peer == peerDone || obj == objDead {
		return w
	}
	proof := st.proofLocked()
	if i := before.owed - 1; i >= 0 && proof[i] != nil {
		w.manifest++
	}
	pass := before.pass
	for runs := 0; pass >= 0 && pass < len(proof) && proof[pass] != nil && runs < manifestChunksPerRound; pass, runs = pass+1, runs+1 {
		w.manifest++
	}
	if peer == peerPaused || obj == objBelowThreshold {
		return w
	}
	w.draws = obj != objCached && obj != objCachedSizeless
	if proven := pass != 0; !proven { // the one run has gone, now or before
		return w
	}
	switch {
	case obj == objQuarantined:
		return w
	case obj < objUnverifiedProven:
		w.data = grant
		return w
	}
	// Natives 0 and 1 of every generation are decoded, or none is; what
	// leaves is those that match their digests, for the generations the
	// peer still needs.
	good := 0
	switch obj {
	case objUnverifiedProven:
		good = 2
	case objUnverifiedMismatch:
		good = btoi(!c.early) // late: native 0 is true, 1 peeled false
	}
	need := int(st.gens.Load())
	for _, d := range c.done {
		need -= btoi(d)
	}
	w.data = min(grant, good*need)
	return w
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
	// What the peer's window grants this round, read off a copy of its link.
	probe := before.link
	grant := probe.Grant(now, s.cfg.Tick, probe.Lacks(st.k))
	want := c.want(obj, peer, grant, before)

	s.push()

	frames := c.rec.take()
	for to := range frames {
		if to != matrixPeer {
			t.Fatalf("push addressed %s, the only target is %s", to, matrixPeer)
		}
	}
	manifest, data := frameCounts(frames[matrixPeer])
	if got := (matrixWant{manifest, data, want.draws}); got != want {
		t.Fatalf("emitted %d MANIFEST, %d DATA; want %d, %d", manifest, data, want.manifest, want.data)
	}
	for i, f := range frames[matrixPeer] {
		if f[0] == packet.FrameData && i < want.manifest {
			t.Fatalf("DATA frame %d of the round went ahead of its proof", i)
		}
	}
	systematic := obj == objReady || obj >= objUnverifiedProven
	for _, f := range frames[matrixPeer] {
		if f[0] != packet.FrameData {
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
		if !trueRow(t, c.content, st.m, f) {
			t.Fatalf("a row that is not the XOR of the true natives it names left the node: %x", f[:40])
		}
	}

	if got := st.sent - sentBefore; got != int64(want.data) {
		t.Fatalf("st.sent moved by %d, %d DATA frames left", got, want.data)
	}
	if want := int64(btoi(systematic) * want.data); st.systematic != want {
		t.Fatalf("st.systematic = %d, want %d", st.systematic, want)
	}
	ps := st.peers[matrixPeer]
	if ps == nil {
		t.Fatal("peer state missing after push")
	}
	proofWent := want.manifest > 0
	if untouched := peer == peerDone || peer == peerPaused && !proofWent; untouched {
		if ps.proofAt != before.proofAt || ps.pass != before.pass || ps.cacheCursor != before.cacheCursor ||
			ps.sysCursor != before.sysCursor || ps.link != before.link {
			t.Fatalf("push wrote back to an untargeted peer: %+v (was %+v)", *ps, before)
		}
		return
	}
	if proofWent != ps.proofAt.Equal(now) || !proofWent && !ps.proofAt.Equal(before.proofAt) {
		t.Fatalf("proofAt %v -> %v; proof went at %v: %v", before.proofAt, ps.proofAt, now, proofWent)
	}
	if ps.owed != 0 && proofWent {
		t.Fatalf("owed = %d after the round's proof went", ps.owed)
	}
	if proofWent && ps.pass == before.pass && before.pass >= 0 && want.manifest > btoi(before.owed > 0) {
		t.Fatalf("the pass stands at %d after sending from it", ps.pass)
	}
	cached := obj == objCached || obj == objCachedSizeless
	// The cache's rotation moves past what it may not deal the peer.
	if moved := ps.cacheCursor != before.cacheCursor; moved && !cached || cached && want.data > 0 && !moved {
		t.Fatalf("cacheCursor %d -> %d in mode %s", before.cacheCursor, ps.cacheCursor, objModeNames[obj])
	}
	switch {
	case !want.draws:
		if ps.sysCursor != before.sysCursor {
			t.Fatalf("sysCursor %d -> %d with no systematic pass", before.sysCursor, ps.sysCursor)
		}
	case want.data == grant:
		if ps.sysCursor < want.data {
			t.Fatalf("sysCursor = %d after %d systematic rows", ps.sysCursor, want.data)
		}
	case ps.sysCursor != len(st.sysLog):
		// A short round means the pass ran out of log, passing over what
		// it may not send: every run is held and has gone to the peer, so
		// it waits at no entry.
		t.Fatalf("sysCursor = %d after a short burst, the log holds %d", ps.sysCursor, len(st.sysLog))
	}
	if want.data > 0 && obj >= objUnverifiedProven {
		// Every native the pass drew for this peer was hashed, once, and
		// the verdict kept.
		for _, x := range st.sysLog[:ps.sysCursor] {
			if g := int(x) / st.kPer; g < len(c.done) && c.done[g] {
				continue
			}
			want := uint8(proofGood)
			if obj == objUnverifiedMismatch && (c.early || int(x)%st.kPer == 1) {
				want = proofBad
			}
			if st.proof[x] != want {
				t.Fatalf("proof[%d] = %d after the pass drew it, want %d", x, st.proof[x], want)
			}
		}
	}
	if got := ps.link.Sent() - before.link.Sent(); got != uint64(want.data) {
		t.Fatalf("link estimator counted %d rows sent, %d DATA frames left", got, want.data)
	}
}

// handRow builds a DATA frame of generation g (of gens, kPer natives each)
// whose code vector selects idx. A true row carries the XOR of those
// natives of content; a forged one carries noise.
func handRow(t testing.TB, id packet.ObjectID, content []byte, gens, kPer, g int, forged bool, idx ...int) []byte {
	t.Helper()
	m := len(content) / (gens * kPer)
	z := packet.Native(kPer, idx[0], make([]byte, m))
	for _, i := range idx {
		z.Vec.Set(i)
		bitvec.XorBytes(z.Payload, content[(g*kPer+i)*m:][:m])
	}
	if forged {
		// Noise that differs from row to row, or two forgeries would cancel.
		for j := range z.Payload {
			z.Payload[j] ^= 0xB6 + byte(j) + byte(idx[len(idx)-1])
		}
	}
	z.Object, z.Generation = id, uint32(g)
	if gens > 1 {
		z.Generations = uint32(gens)
	}
	wire, err := packet.Marshal(z)
	if err != nil {
		t.Fatal(err)
	}
	return append([]byte{packet.FrameData}, wire...)
}

// trueRow reports whether DATA frame f carries exactly the XOR of the
// natives (m bytes each, content order) its code vector selects.
func trueRow(t *testing.T, content []byte, m int, f []byte) bool {
	t.Helper()
	z, err := packet.Unmarshal(f[1:])
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, m)
	base := int(z.Generation) * z.K()
	for _, i := range z.Vec.Indices() {
		bitvec.XorBytes(want, content[(base+i)*m:][:m])
	}
	return bytes.Equal(want, z.Payload)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
