package session

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"maps"
	"slices"
	"testing"
	"time"

	"ltnc/internal/integrity"
	"ltnc/internal/packet"
	"ltnc/internal/transport"
)

// fuzzSession builds a relay session nobody runs: the fuzz targets step it
// frame by frame (stepFrame), so the fuzzer exercises the full
// frame-parsing surface (v2 DATA dispatch, FEEDBACK, MANIFEST) and the
// push round behind it without timing.
func fuzzSession(tb testing.TB, mut func(*Config)) *Session {
	tb.Helper()
	cfg := Config{
		Transport:  newRecTransport("fuzz"),
		Relay:      true,
		Tick:       time.Hour,
		MaxObjects: 8,
		MaxK:       512,
	}
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	return s
}

// stepFrame has s take one raw frame off the network exactly as a driven
// session would: queued at its transport, then Step.
func stepFrame(s *Session, from transport.Addr, data []byte) {
	s.tr.(*recTransport).deliver(from, data)
	s.Step()
}

// injectBurst is the ingest half of that alone, for the tests that run
// their push rounds themselves: frames that crossed the network from one
// peer are queued at s's transport and taken as Step takes them — control
// frames inline, DATA in batches of up to IngestBatch, the queue running
// dry behind the last. Wake-ups stay pending.
func injectBurst(s *Session, from transport.Addr, frames [][]byte) {
	for _, data := range frames {
		s.tr.(*recTransport).deliver(from, data)
	}
	s.ingestReady(&s.stepper)
}

func injectFrame(s *Session, from transport.Addr, data []byte) {
	injectBurst(s, from, [][]byte{data})
}

// The FEEDBACK kinds a session no longer speaks: kind 1, the per-row
// redundancy abort, kind 2, complete, kind 3, generation complete, kind 4,
// the cache advertisement, kind 5, the receipt without a departure count,
// and kind 7, the need. A session drops them all: the report (kind 6)
// says what 2, 3 and 7 said.
const (
	fbRetiredRedundant   = 0x01
	fbRetiredComplete    = 0x02
	fbRetiredGenComplete = 0x03
	fbRetiredCacheAd     = 0x04
	fbRetiredReceipt     = 0x05
	fbRetiredNeed        = 0x07
)

// retiredFeedback builds a FEEDBACK frame of a retired kind as its senders
// did: the object, the kind, then body, each a big-endian u32 (kind 3's
// generation, kind 4's coverage, kind 5's counters, kind 7's run).
func retiredFeedback(id packet.ObjectID, kind byte, body ...uint32) []byte {
	buf := append([]byte{packet.FrameFeedback}, id[:]...)
	buf = append(buf, kind)
	for _, c := range body {
		buf = binary.BigEndian.AppendUint32(buf, c)
	}
	return buf
}

// retiredReq is the 17-byte REQ, frame kind 0x02, as its senders built
// it: the object alone. The report took its jobs; a session drops it.
func retiredReq(id packet.ObjectID) []byte { return append([]byte{0x02}, id[:]...) }

// tableSize counts the objects s holds and the peer entries among them.
func tableSize(s *Session) (objects, peers int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, st := range s.objects {
		peers += len(st.peers)
	}
	return len(s.objects), peers
}

// createsNothing reports whether frame may make no object or peer entry,
// whoever sends it: the retired REQ, or a kind-6 FEEDBACK frame with the
// complete bit set, valid or not, from a peer not in the object's table.
// It reads the bytes itself, not through the codec under test.
func createsNothing(s *Session, from transport.Addr, frame []byte) bool {
	if len(frame) > 0 && frame[0] == 0x02 {
		return true
	}
	if len(frame) < 1+packet.ReportLen || frame[0] != packet.FrameFeedback || frame[17] != 6 || frame[18]&packet.ReportComplete == 0 {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var id packet.ObjectID
	copy(id[:], frame[1:17])
	st := s.objects[id]
	return st == nil || st.peers[from] == nil
}

// stepCreatingNothing is stepFrame, failing tb when a frame that may
// create no object or peer entry (createsNothing) does.
func stepCreatingNothing(tb testing.TB, s *Session, from transport.Addr, frame []byte) {
	tb.Helper()
	quiet := createsNothing(s, from, frame)
	objs, peers := tableSize(s)
	stepFrame(s, from, frame)
	if o, p := tableSize(s); quiet && (o != objs || p != peers) {
		tb.Fatalf("frame %x made state: %d objects and %d peer entries, were %d and %d", frame[:min(len(frame), 20)], o, p, objs, peers)
	}
}

// retiredReceipt builds a kind-5 receipt as its senders did: counters gen,
// received and innovative, then frontierBytes zero bytes of frontier.
func retiredReceipt(id packet.ObjectID, gen, received, innovative uint32, frontierBytes int) []byte {
	return append(retiredFeedback(id, fbRetiredReceipt, gen, received, innovative), make([]byte, frontierBytes)...)
}

// reportSeeds are the reports a session must take apart: every flag
// combination, an unknown flag bit, the need bit with run 0, a run past
// the manifest and 2³²−1, a need with its flag clear, and reports one byte
// short and one byte long. Then the retired kinds 2, 3 and 7, which it
// must drop: complete, generation complete, with its generation and
// truncated inside it, and needs for run 0 and 2³²−1.
func reportSeeds(id packet.ObjectID) [][]byte {
	var seeds [][]byte
	for flags := range byte(8) {
		seeds = append(seeds, reportFrame(packet.Report{Object: id, Flags: flags, Received: 32, Innovative: 16}))
	}
	seeds = append(seeds,
		reportFrame(packet.Report{Object: id, Flags: 1 << 3, Received: 32, Innovative: 16}),
		reportFrame(packet.Report{Object: id, Flags: 0x80 | packet.ReportComplete, Received: 32, Innovative: 16}),
		needReport(id, 0), needReport(id, 1), needReport(id, 1<<32-1),
		reportFrame(packet.Report{Object: id, Need: 1, Received: 32, Innovative: 16}),
		reportFrame(packet.Report{Object: id, Flags: packet.ReportGenComplete, Need: 1, Gen: 1, Received: 32, Innovative: 16}),
		receiptFrame(id, 0, 32, 16)[:1+packet.ReportLen-1],
		append(receiptFrame(id, 0, 32, 16), 0),
		retiredFeedback(id, fbRetiredComplete),
		retiredFeedback(id, fbRetiredGenComplete, 0),
		retiredFeedback(id, fbRetiredGenComplete, 2)[:20],
		retiredFeedback(id, fbRetiredNeed, 0),
		retiredFeedback(id, fbRetiredNeed, 1<<32-1),
	)
	return seeds
}

// FuzzSessionFrames throws arbitrary bytes at the session's frame
// handlers: no input may panic or grow state beyond the configured
// bounds, however the headers lie.
func FuzzSessionFrames(f *testing.F) {
	root := sha256.Sum256([]byte("fuzz object"))
	id := integrity.ObjectID(128, 16, 1, 8, root)

	// Seed: one valid frame of each type, plus truncated/oversized
	// content-ID variants of MANIFEST and FEEDBACK.
	p := packet.Native(16, 3, make([]byte, 8))
	p.Object = id
	wire, err := packet.Marshal(p)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte{packet.FrameData}, wire...))
	gp := packet.Native(16, 3, make([]byte, 8))
	gp.Object = id
	gp.Generation = 1
	gp.Generations = 4
	genWire, err := packet.Marshal(gp)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte{packet.FrameData}, genWire...)) // v3 generation-coded DATA
	desc := descFor(id, 16, 8, 128, 1, root)            // its description hashes to id
	f.Add(desc)
	f.Add(desc[:20])                                                   // truncated inside the content ID
	f.Add(append(desc, 0xff, 0xee))                                    // oversized MANIFEST
	f.Add(descFor(id, 16, 8, 128, 1, sha256.Sum256([]byte("forged")))) // a forged root: must drop
	f.Add(descFor(id, 32, 4, 128, 1, root))                            // a plausible forged geometry: must drop
	_, genDesc := fakeObject("fuzz generations", 64, 8, 128, 4)
	f.Add(genDesc)
	f.Add(descFor(id, 64, 8, 128, 5, root)) // 64 % 5 != 0: must drop
	f.Add(genDesc[:34])                     // truncated inside the generation count
	// The retired META, 0x03, at its last length and its root-less one:
	// dropped, whatever it says.
	meta := retiredMeta(packet.ManifestChunk{Object: id, K: 16, M: 8, Size: 128, Gens: 1, Root: root})
	f.Add(meta)
	f.Add(meta[:37])
	// The retired REQ, 0x02, whole and as its kind byte alone: dropped. A
	// stranger's subscription makes it a subscriber where the object is
	// held; its complete report makes nothing; a non-complete report with
	// counters is what a peer that said complete sends to re-open.
	f.Add(retiredReq(id))
	f.Add(retiredReq(id)[:1])
	f.Add(subReport(id))
	f.Add(completeReport(id))
	f.Add(receiptFrame(id, 0, 16, 16))
	fb := completeReport(id)
	f.Add(fb)
	f.Add(fb[:9]) // truncated FEEDBACK
	for _, seed := range reportSeeds(id) {
		f.Add(seed)
	}
	// The retired kinds, as their senders built them: must drop.
	ad := retiredFeedback(id, fbRetiredCacheAd, 1, 4, 16)
	f.Add(ad)
	f.Add(ad[:len(ad)-3])                                  // truncated inside the rank
	f.Add(append(ad, 0x00))                                // oversized advertisement
	f.Add(retiredFeedback(id, fbRetiredCacheAd, 9, 4, 16)) // gensFull > gens
	f.Add(retiredFeedback(id, fbRetiredCacheAd))           // kind 4 without its coverage body
	f.Add(retiredFeedback(id, fbRetiredRedundant))
	f.Add(retiredReceipt(id, 1, 32, 16, 0))
	f.Add(retiredReceipt(id, 0, 32, 16, 2))    // with a frontier for k/G ≤ 16
	f.Add(retiredReceipt(id, 0, 32, 16, 4))    // as long as the short receipt
	f.Add(retiredReceipt(id, 0, 32, 16, 8))    // as long as a receipt with a frontier for k/G ≤ 32
	f.Add(descFor(id, 16, 8, 128, 0, root))    // no generations: must drop
	f.Add(descFor(id, 16, 8, 16*8+1, 1, root)) // larger than k natives hold: must drop
	// The receipt and the stamped DATA it answers: short, truncated inside
	// the departure count, a frontier for k/G ≤ 8 only, a lie on its face,
	// the under-claiming liar's favorite, without its body, with the seed
	// DATA's frontier, truncated inside it, over-long, for a generation ≥ G
	// and one that wraps int on 32-bit builds, a native past k/G = 12 in the
	// padding, a good frontier on contradictory counters, a departure count
	// past anything sent.
	stamped := append([]byte{packet.FrameData}, wire...)
	packet.Restamp(stamped[1:], packet.SeqStamp(5))
	f.Add(stamped)
	rc := reportFrame(packet.Report{Object: id, Gen: 1, Received: 32, Innovative: 16, Departed: 40})
	f.Add(rc)
	f.Add(rc[:1+packet.ReportLen-2])
	f.Add(append(rc, 0x00))
	f.Add(receiptFrame(id, 0, 4, 9))
	f.Add(receiptFrame(id, 0, 0, 0))
	f.Add(rc[:1+16+1])                                                                                                             // the report's kind byte, and nothing behind it
	long := reportFrame(packet.Report{Object: id, Received: 32, Innovative: 16, Departed: 40, Frontier: frontierOf(16, 0, 3, 15)}) // the seed DATA's geometry: k/G = 16
	f.Add(long)
	f.Add(long[:len(long)-1])
	f.Add(append(long, 0xff))
	f.Add(reportFrame(packet.Report{Object: id, Gen: 4, Received: 32, Innovative: 16, Frontier: frontierOf(16)}))
	f.Add(reportFrame(packet.Report{Object: id, Gen: 1 << 31, Received: 32, Innovative: 16, Frontier: frontierOf(16)}))
	f.Add(reportFrame(packet.Report{Object: id, Received: 32, Innovative: 16, Frontier: frontierOf(12, 13)}))
	f.Add(reportFrame(packet.Report{Object: id, Received: 4, Innovative: 9, Frontier: frontierOf(16, 1, 2, 3)}))
	f.Add(reportFrame(packet.Report{Object: id, Received: 32, Innovative: 16, Departed: 1<<32 - 1}))
	mc, err := packet.AppendManifestChunk([]byte{packet.FrameManifest},
		packet.ManifestChunk{Object: id, K: 16, M: 8, Size: 128, Gens: 1, Root: root, Digests: make([]byte, 16*integrity.DigestSize)})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(mc)                           // a run, under a description that verifies, that does not hash to the root
	f.Add(mc[:12])                      // truncated inside the content ID
	f.Add(append(mc, 0x00))             // trailing byte: must drop
	f.Add([]byte{packet.FrameManifest}) // bare kind byte
	f.Add([]byte{packet.FrameFeedback})
	f.Add([]byte{0x00})
	f.Add([]byte{0xff, 0xff, 0xff})
	_, huge := fakeObject("fuzz huge", 16, 1<<30, 128, 1)
	f.Add(huge) // a geometry no frame could carry, in a description that verifies: must create no state

	f.Fuzz(func(t *testing.T, data []byte) {
		s := fuzzSession(t, nil)
		stepCreatingNothing(t, s, "peer", data)
		// Whatever arrived, the relay bounds must hold.
		objs := s.Objects()
		if len(data) > 0 && data[0] == 0x03 && len(objs) != 0 {
			t.Fatalf("a frame of the retired kind 0x03 created state: %+v", objs)
		}
		if len(objs) > s.cfg.MaxObjects {
			t.Fatalf("session grew to %d objects, bound %d", len(objs), s.cfg.MaxObjects)
		}
		for _, o := range objs {
			if o.K > s.cfg.MaxK {
				t.Fatalf("session allocated k=%d above MaxK=%d", o.K, s.cfg.MaxK)
			}
			if (geometry{max(o.Generations, 1), o.KPer, o.M}).wireSize() > transport.MaxFrame {
				t.Fatalf("session sized an object by a geometry no frame could carry: %+v", o)
			}
		}
		checkPhaseInvariants(t, s)
	})
}

// FuzzSessionFrameSequence replays the fuzz input as a sequence of
// length-prefixed frames against one session, so state built by earlier
// frames (learned objects, peers) is exercised by later ones. A zero length
// byte switches the sender between two addresses, neither of them asked for
// anything. Besides the phase invariants, a banned address moves nothing:
// no frame from it changes any object's decode state.
func FuzzSessionFrameSequence(f *testing.F) {
	id := packet.NewObjectID([]byte("seq object"))
	p := packet.Native(8, 1, make([]byte, 4))
	p.Object = id
	wire, _ := packet.Marshal(p)
	sequence := func(frames ...[]byte) (seq []byte) {
		for _, fr := range frames {
			seq = append(seq, byte(len(fr)))
			seq = append(seq, fr...)
		}
		return seq
	}
	f.Add(sequence(append([]byte{packet.FrameData}, wire...), subReport(id), completeReport(id)))
	// A subscriber of a held object (k/G = 8) and its receipts: a frontier,
	// one of the wrong length, one past the object's generations, one with a
	// native past the generation's end.
	f.Add(sequence(append([]byte{packet.FrameData}, wire...), subReport(id),
		reportFrame(packet.Report{Object: id, Received: 1, Innovative: 1, Frontier: frontierOf(8, 1)}), reportFrame(packet.Report{Object: id, Received: 2, Innovative: 2, Frontier: frontierOf(16)}),
		reportFrame(packet.Report{Object: id, Gen: 7, Received: 3, Innovative: 3, Frontier: frontierOf(8)}), reportFrame(packet.Report{Object: id, Received: 4, Innovative: 4, Frontier: frontierOf(6, 7)})))
	// Stamped rows, then receipts: honest, past what was sent, backwards,
	// and with a frontier; then the retired kinds 1 and 5.
	stamped := append([]byte{packet.FrameData}, wire...)
	packet.Restamp(stamped[1:], packet.SeqStamp(1))
	f.Add(sequence(stamped, subReport(id), stamped,
		reportFrame(packet.Report{Object: id, Received: 1, Innovative: 1, Departed: 1}), reportFrame(packet.Report{Object: id, Received: 2, Innovative: 2, Departed: 90}),
		reportFrame(packet.Report{Object: id, Received: 3, Innovative: 3}), reportFrame(packet.Report{Object: id, Received: 4, Innovative: 4, Departed: 2, Frontier: frontierOf(8, 1)}),
		retiredFeedback(id, fbRetiredRedundant), retiredReceipt(id, 0, 5, 5, 1)))
	// A subscriber's needs: the first run, runs past the end — 2³¹−1,
	// 2³²−2 and 2³²−1 among them — a flood of the same, truncated and
	// over-long; then every report seed, the retired kinds 2, 3 and 7
	// among them.
	f.Add(sequence(append([]byte{packet.FrameData}, wire...), subReport(id),
		needReport(id, 1<<32-1), needReport(id, 0), needReport(id, 7), needReport(id, 1<<31),
		needReport(id, 1<<31-1), needReport(id, 1<<32-2),
		needReport(id, 0), needReport(id, 0), needReport(id, 0)[:1+packet.ReportLen-1], append(needReport(id, 0), 0)))
	f.Add(sequence(append([][]byte{append([]byte{packet.FrameData}, wire...), subReport(id)}, reportSeeds(id)...)...))
	// The retired REQ, whole and its kind byte alone, at a held object and
	// an unknown one; a stranger's complete report (the other address); a
	// subscriber that says complete, then re-opens with a receipt, with a
	// frontier, and with a subscription.
	f.Add(sequence(retiredReq(id), retiredReq(id)[:1], append([]byte{packet.FrameData}, wire...), retiredReq(id), retiredReq(id)[:1]))
	f.Add(sequence(append([]byte{packet.FrameData}, wire...), nil, completeReport(id), subReport(id)))
	f.Add(sequence(append([]byte{packet.FrameData}, wire...), subReport(id), completeReport(id), receiptFrame(id, 0, 1, 1),
		completeReport(id), reportFrame(packet.Report{Object: id, Received: 1, Innovative: 1, Frontier: frontierOf(8, 1)}), completeReport(id), subReport(id)))
	// An object whose single manifest run fits the one-byte length (k = 4,
	// m = 4): an unasked sender's forged unit row is proven false on
	// arrival and bans it, and the true rows it sends after move nothing;
	// the same from the second address, the first sending true rows after;
	// and a forged dense row that poisons the generation until it fails.
	const k, m = 4, 4
	content := testContent(k*m, 7)
	sd := servedDesc(f, content, k, 1)
	run := manifestRuns(f, sd, content)[0]
	row := func(forged bool, idx ...int) []byte { return handRow(f, sd.Object, content, 1, k, 0, forged, idx...) }
	// (An empty frame is the zero byte that switches the sender.)
	f.Add(sequence(run, row(true, 1), row(false, 0), row(false, 1), row(false, 2), row(false, 3)))
	f.Add(sequence(run, row(false, 0), nil, row(true, 1), row(false, 1), row(false, 2),
		nil, row(false, 1), row(false, 2), row(false, 3)))
	f.Add(sequence(row(false, 0), nil, row(true, 1, 2), row(false, 1), row(false, 3), run,
		row(false, 2), nil, row(false, 0), row(false, 1), row(false, 2), row(false, 3)))

	f.Fuzz(func(t *testing.T, data []byte) {
		s := fuzzSession(t, nil)
		from, other := transport.Addr("peer"), transport.Addr("other")
		for len(data) > 0 {
			n := int(data[0])
			data = data[1:]
			if n == 0 {
				from, other = other, from
				continue
			}
			if n > len(data) {
				break
			}
			banned := slices.Contains(s.BannedPeers(), from)
			before := decodeStates(s)
			stepCreatingNothing(t, s, from, data[:n])
			checkPhaseInvariants(t, s)
			if after := decodeStates(s); banned && !maps.EqualFunc(before, after, decodeState.equal) {
				t.Fatalf("a frame from %s, banned, moved decode state: %v → %v", from, before, after)
			}
			data = data[n:]
		}
		if len(s.Objects()) > s.cfg.MaxObjects {
			t.Fatalf("bounds violated after sequence")
		}
	})
}

// FuzzManifestFrames' object is manifestFuzzK natives of manifestFuzzM
// bytes: a manifest of two runs, each with a one-hash proof.
const manifestFuzzK, manifestFuzzM = integrity.RunLen + 6, 1

// manifestFuzzSeeds are the object's two MANIFEST frames and the boundary
// shapes of the run layout, each a frame sequence as FuzzManifestFrames
// reads one: every frame behind a two-byte length.
func manifestFuzzSeeds(tb testing.TB) (seeds [][]byte, id packet.ObjectID, runs [][]byte) {
	content := make([]byte, manifestFuzzK*manifestFuzzM)
	for i := range content {
		content[i] = byte(i * 7)
	}
	d := servedDesc(tb, content, manifestFuzzK, 1)
	runs = manifestRuns(tb, d, content)
	mr, err := packet.ParseManifestChunk(runs[1][1:])
	if err != nil {
		tb.Fatal(err)
	}
	mr.Proof = nil
	short, err := packet.AppendManifestChunk([]byte{packet.FrameManifest}, mr)
	if err != nil {
		tb.Fatal(err)
	}
	pack := func(frames ...[]byte) []byte {
		var seq []byte
		for _, fr := range frames {
			seq = binary.BigEndian.AppendUint16(seq, uint16(len(fr)))
			seq = append(seq, fr...)
		}
		return seq
	}
	seeds = [][]byte{
		pack(runs[0], runs[1]),                                     // clean adoption
		pack(runs[1]),                                              // a valid run alone: enough on its own
		pack(runs[1], runs[0]),                                     // out of order
		pack(short, runs[1]),                                       // a short proof, then the true run
		pack(runs[1], runs[1]),                                     // a duplicate run
		pack(forgedRun(runs[1]), runs[0]),                          // a forged run: its sender banned
		pack(runs[1], forgedRun(runs[1]), runs[0]),                 // forged, once held: dropped unhashed
		pack(withRun(runs[1], 0)),                                  // run 1's digests as run 0's
		pack(runs[1][:len(runs[1])-1], runs[1][:runFixed+32]),      // truncated frames
		pack(descFrame(d), runs[0]),                                // the description alone, then a run
		pack(retiredMeta(d), runs[1]),                              // the retired META, then a run
		pack(runs[1][:runFixed-3], runs[1][:1+16+52], runs[0][:1]), // cut inside the counts, after the description, bare
	}
	for _, bad := range badDescriptions(runs[1]) {
		seeds = append(seeds, pack(bad, runs[1]))
	}
	return seeds, d.Object, runs
}

// withRun is MANIFEST frame fr with its run index set to r.
func withRun(fr []byte, r uint32) []byte {
	fr = bytes.Clone(fr)
	binary.BigEndian.PutUint32(fr[1+16+52:], r)
	return fr
}

// badDescriptions are MANIFEST frame fr under descriptions it may not
// carry, by what is wrong with them: each is dropped before any state is
// made or any sender convicted.
func badDescriptions(fr []byte) map[string][]byte {
	bad := func(off int, b ...byte) []byte {
		fr := bytes.Clone(fr)
		copy(fr[1+off:], b)
		return fr
	}
	return map[string][]byte{
		"root not the ID's":  bad(36+7, fr[1+36+7]^0x10),
		"size past k·m":      bad(24, 0, 0, 0, 0, 0xff, 0, 0, 0),
		"generations ragged": bad(32, 0, 0, 0, 4), // k = 1,030 does not split in 4
		"no generations":     bad(32, 0, 0, 0, 0),
		"run past the last":  withRun(fr, 2),
		"run 2³²−1":          withRun(fr, 1<<32-1),
	}
}

// TestAnyRunIsEnoughAlone: a relay that has heard nothing of an object —
// no DATA, no subscription, no other run — adopts run 2 of its three, one a
// generation, from that frame alone, and learns the object's size and
// geometry from it.
func TestAnyRunIsEnoughAlone(t *testing.T) {
	const k, gens = 3 * integrity.RunLen, 3
	content := testContent(k, 61) // m = 1
	d := servedDesc(t, content, k, gens)
	s := fuzzSession(t, func(c *Config) { c.MaxK = k })
	stepFrame(s, "peer", manifestRuns(t, d, content)[2])
	o, ok := s.Object(d.Object)
	if !ok || o.Size != int64(len(content)) || o.K != k || o.Generations != gens || o.KPer != k/gens || o.M != 1 {
		t.Fatalf("after run 2 alone: %+v, held %v; want the object sized and shaped as described", o, ok)
	}
	st := s.objects[d.Object]
	st.mu.Lock()
	held := []bool{st.man.HoldsRun(0), st.man.HoldsRun(1), st.man.HoldsRun(2)}
	st.mu.Unlock()
	if !slices.Equal(held, []bool{false, false, true}) || len(s.BannedPeers()) != 0 {
		t.Fatalf("runs held %v, banned %v; want run 2 adopted and no one banned", held, s.BannedPeers())
	}
}

// TestBadDescriptionDropped: a MANIFEST frame whose description does not
// hash to its ID, or describes no object — a size past k·m, a ragged
// generation split, no generations — or whose run lies past the last its
// k has, changes nothing at a relay: no state, no ban.
func TestBadDescriptionDropped(t *testing.T) {
	_, _, runs := manifestFuzzSeeds(t)
	for name, fr := range badDescriptions(runs[1]) {
		t.Run(name, func(t *testing.T) {
			s := fuzzSession(t, func(c *Config) { c.MaxK = 2 * manifestFuzzK })
			stepFrame(s, "peer", fr)
			if objs, banned := s.Objects(), s.BannedPeers(); len(objs) != 0 || len(banned) != 0 {
				t.Fatalf("state %+v, banned %v; want neither", objs, banned)
			}
		})
	}
}

// FuzzManifestFrames drives MANIFEST checking and adoption with frame
// sequences: arbitrary runs of one object — in order, out of order,
// duplicated, past the last run, short of proof, forged, under
// descriptions true and false. No input may panic, adopt a run but the one the object's root
// names, or grow state beyond the session bounds.
func FuzzManifestFrames(f *testing.F) {
	seeds, id, runs := manifestFuzzSeeds(f)
	for _, seq := range seeds {
		f.Add(seq)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := fuzzSession(t, func(c *Config) { c.MaxK = 2 * manifestFuzzK })
		for len(data) >= 2 {
			n := int(binary.BigEndian.Uint16(data))
			data = data[2:]
			if n == 0 || n > len(data) {
				break
			}
			stepFrame(s, "peer", data[:n])
			checkPhaseInvariants(t, s)
			data = data[n:]
		}
		for _, o := range s.Objects() {
			if o.K > s.cfg.MaxK {
				t.Fatalf("session allocated k=%d above MaxK=%d", o.K, s.cfg.MaxK)
			}
		}
		if st := s.objects[id]; st != nil {
			for r, fr := range st.manFrames {
				if fr != nil && !bytes.Equal(fr, runs[r]) {
					t.Fatalf("adopted run %d, which the object's root does not name", r)
				}
			}
		}
		if len(s.Objects()) > s.cfg.MaxObjects {
			t.Fatalf("bounds violated after sequence")
		}
	})
}

// FuzzCacheSessionFrames drives the cache-mode ingest path (admission,
// feedback synthesis) with arbitrary frame sequences: no
// input may panic, oversubscribe the byte budget, or grow the object
// table past its bound.
func FuzzCacheSessionFrames(f *testing.F) {
	id := packet.NewObjectID([]byte("cache fuzz"))
	p := packet.Native(8, 2, make([]byte, 4))
	p.Object = id
	wire, _ := packet.Marshal(p)
	gp := packet.Native(8, 1, make([]byte, 4))
	gp.Object = id
	gp.Generation = 3
	gp.Generations = 4
	genWire, _ := packet.Marshal(gp)
	var seq []byte
	for _, fr := range [][]byte{
		append([]byte{packet.FrameData}, wire...),
		append([]byte{packet.FrameData}, genWire...),
		subReport(id),
		retiredFeedback(id, fbRetiredCacheAd, 2, 4, 9), // a retired kind: must drop
	} {
		seq = append(seq, byte(len(fr)))
		seq = append(seq, fr...)
	}
	f.Add(seq)
	// A subscriber's reports, then every report seed and retired kind; the
	// retired REQ, whole and its kind byte alone, before and after the
	// object is held; a stranger's complete report; a subscriber that says
	// complete, then re-opens with a receipt and with a subscription.
	for _, frames := range [][][]byte{
		append([][]byte{append([]byte{packet.FrameData}, wire...), subReport(id)}, reportSeeds(id)...),
		{retiredReq(id), retiredReq(id)[:1], append([]byte{packet.FrameData}, wire...), retiredReq(id), retiredReq(id)[:1]},
		{completeReport(id), append([]byte{packet.FrameData}, wire...), completeReport(id)},
		{append([]byte{packet.FrameData}, wire...), subReport(id), completeReport(id), receiptFrame(id, 0, 1, 1), completeReport(id), subReport(id)},
	} {
		seq = seq[:0:0]
		for _, fr := range frames {
			seq = append(seq, byte(len(fr)))
			seq = append(seq, fr...)
		}
		f.Add(seq)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		s := fuzzSession(t, func(c *Config) {
			c.Relay = false
			c.CacheBudget = 4096
		})
		for len(data) > 0 {
			n := int(data[0])
			data = data[1:]
			if n == 0 || n > len(data) {
				break
			}
			stepCreatingNothing(t, s, "peer", data[:n])
			checkPhaseInvariants(t, s)
			data = data[n:]
		}
		if len(s.Objects()) > s.cfg.MaxObjects {
			t.Fatalf("bounds violated after sequence")
		}
		if cs, ok := s.CacheStats(); !ok || cs.Used > cs.Budget {
			t.Fatalf("cache budget violated: %+v", cs)
		}
	})
}

// decodeState is what an object's decoder has taken in: rows received,
// natives decoded, rows stored short of decoding, and the per-native proof
// states.
type decodeState struct {
	received        int64
	decoded, stored int
	proof           []uint8
}

func (a decodeState) equal(b decodeState) bool {
	return a.received == b.received && a.decoded == b.decoded && a.stored == b.stored && bytes.Equal(a.proof, b.proof)
}

// decodeStates snapshots the decode state of every object s decodes.
func decodeStates(s *Session) map[packet.ObjectID]decodeState {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[packet.ObjectID]decodeState)
	for id, st := range s.objects {
		st.mu.Lock()
		if st.coder != nil {
			d := decodeState{received: st.received, decoded: st.coder.DecodedCount(), proof: bytes.Clone(st.proof)}
			for g := range st.coder.Generations() {
				d.stored += st.coder.GenStored(g)
			}
			out[id] = d
		}
		st.mu.Unlock()
	}
	return out
}
