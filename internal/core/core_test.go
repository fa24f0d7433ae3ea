package core

import (
	"bytes"
	"math/rand"
	"testing"

	"ltnc/internal/bitvec"
	"ltnc/internal/gf2"
	"ltnc/internal/packet"
	"ltnc/internal/soliton"
)

func mustNode(t testing.TB, opts Options) *Node {
	t.Helper()
	n, err := NewNode(opts)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func randomNatives(rng *rand.Rand, k, m int) [][]byte {
	natives := make([][]byte, k)
	for i := range natives {
		natives[i] = make([]byte, m)
		rng.Read(natives[i])
	}
	return natives
}

// payloadConsistent checks the fundamental invariant: a packet's payload
// equals the XOR of the natives named by its code vector.
func payloadConsistent(p *packet.Packet, natives [][]byte) bool {
	want := make([]byte, len(natives[0]))
	for _, i := range p.Vec.Indices() {
		bitvec.XorBytes(want, natives[i])
	}
	return bytes.Equal(want, p.Payload)
}

func TestNewNodeValidation(t *testing.T) {
	if _, err := NewNode(Options{K: 0}); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := NewNode(Options{K: 4, M: -1}); err == nil {
		t.Error("M=-1 accepted")
	}
	wrongDist, _ := soliton.NewDefaultRobust(5)
	if _, err := NewNode(Options{K: 4, Dist: wrongDist}); err == nil {
		t.Error("mismatched distribution accepted")
	}
}

func TestSeedValidation(t *testing.T) {
	n := mustNode(t, Options{K: 4, M: 2})
	if err := n.Seed(make([][]byte, 3)); err == nil {
		t.Error("short seed accepted")
	}
	if err := n.Seed([][]byte{{1}, {1, 2}, {1, 2}, {1, 2}}); err == nil {
		t.Error("ragged seed accepted")
	}
}

func TestSeededNodeIsComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	natives := randomNatives(rng, 16, 8)
	n := mustNode(t, Options{K: 16, M: 8, Rng: rng})
	if err := n.Seed(natives); err != nil {
		t.Fatal(err)
	}
	if !n.Complete() || n.DecodedCount() != 16 {
		t.Fatal("seeded node not complete")
	}
	data, err := n.Data()
	if err != nil {
		t.Fatal(err)
	}
	for i := range natives {
		if !bytes.Equal(data[i], natives[i]) {
			t.Fatalf("native %d differs", i)
		}
	}
}

func TestRecodeOnEmptyNode(t *testing.T) {
	n := mustNode(t, Options{K: 8, M: 4})
	if _, ok := n.Recode(); ok {
		t.Error("empty node recoded")
	}
}

func TestRecodedPacketsConsistentFromSource(t *testing.T) {
	const (
		k = 64
		m = 16
	)
	rng := rand.New(rand.NewSource(2))
	natives := randomNatives(rng, k, m)
	n := mustNode(t, Options{K: k, M: m, Rng: rng})
	if err := n.Seed(natives); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		z, ok := n.Recode()
		if !ok {
			t.Fatal("seeded node failed to recode")
		}
		if z.Degree() < 1 || z.Degree() > k {
			t.Fatalf("degree %d out of range", z.Degree())
		}
		if !payloadConsistent(z, natives) {
			t.Fatalf("recode %d: payload inconsistent with vector %v", i, z.Vec)
		}
	}
}

func TestSourceDegreesFollowRobustSoliton(t *testing.T) {
	const k = 128
	rng := rand.New(rand.NewSource(3))
	n := mustNode(t, Options{K: k, M: 0, Rng: rng})
	if err := n.Seed(make([][]byte, k)); err != nil {
		t.Fatal(err)
	}
	dist, _ := soliton.NewDefaultRobust(k)
	h := soliton.NewHistogram(k)
	for i := 0; i < 20000; i++ {
		z, ok := n.Recode()
		if !ok {
			t.Fatal("recode failed")
		}
		h.Observe(z.Degree())
	}
	// A fully seeded node can reach every degree: the emitted distribution
	// must track the Robust Soliton closely. (Refinement does not change
	// degrees.)
	if tv := h.TVDistance(dist); tv > 0.05 {
		t.Errorf("TV distance from Robust Soliton = %v", tv)
	}
	st := n.Stats()
	if got := st.PickFirstAcceptRate(); got < 0.999 {
		t.Errorf("first-pick accept rate on source = %v, want ≈ 1", got)
	}
	if got := st.BuildTargetRate(); got < 0.999 {
		t.Errorf("build target rate on source = %v, want ≈ 1", got)
	}
}

// Relay chain: source → relay → sink, all packets recoded (never just
// forwarded). The sink must decode the exact content, and every packet in
// flight must satisfy the linearity invariant.
func TestRelayChainEndToEnd(t *testing.T) {
	const (
		k = 48
		m = 12
	)
	rng := rand.New(rand.NewSource(4))
	natives := randomNatives(rng, k, m)

	source := mustNode(t, Options{K: k, M: m, Rng: rand.New(rand.NewSource(10))})
	if err := source.Seed(natives); err != nil {
		t.Fatal(err)
	}
	relay := mustNode(t, Options{K: k, M: m, Rng: rand.New(rand.NewSource(11))})
	sink := mustNode(t, Options{K: k, M: m, Rng: rand.New(rand.NewSource(12))})

	for step := 0; step < 60*k && !sink.Complete(); step++ {
		sp, ok := source.Recode()
		if !ok {
			t.Fatal("source recode failed")
		}
		if !payloadConsistent(sp, natives) {
			t.Fatal("source packet inconsistent")
		}
		relay.Receive(sp)
		if rp, ok := relay.Recode(); ok {
			if !payloadConsistent(rp, natives) {
				t.Fatalf("relay packet inconsistent: %v", rp.Vec)
			}
			sink.Receive(rp)
		}
	}
	if !sink.Complete() {
		t.Fatalf("sink decoded only %d/%d natives through the relay", sink.DecodedCount(), k)
	}
	data, err := sink.Data()
	if err != nil {
		t.Fatal(err)
	}
	for i := range natives {
		if !bytes.Equal(data[i], natives[i]) {
			t.Fatalf("native %d corrupted through relay", i)
		}
	}
}

func TestBuildNeverExceedsTarget(t *testing.T) {
	// Partially filled node: degrees of built packets must never exceed
	// the picked target. We drive build directly through Recode and check
	// against the recorded distribution target via stats: deviation is
	// one-sided by construction, so degree ≤ target always holds if
	// BuildDeviation is non-negative.
	rng := rand.New(rand.NewSource(5))
	const k = 64
	src := mustNode(t, Options{K: k, M: 0, Rng: rng})
	if err := src.Seed(make([][]byte, k)); err != nil {
		t.Fatal(err)
	}
	n := mustNode(t, Options{K: k, M: 0, Rng: rng})
	for i := 0; i < 40; i++ {
		z, _ := src.Recode()
		n.Receive(z)
	}
	for i := 0; i < 500; i++ {
		if z, ok := n.Recode(); ok && z.Degree() > k {
			t.Fatal("degree above k")
		}
	}
	if dev := n.Stats().AvgBuildDeviation(); dev < 0 {
		t.Errorf("negative build deviation %v implies overshoot", dev)
	}
}

func TestRefineReducesOccurrenceVariance(t *testing.T) {
	// Two identical half-decoded nodes, one with refinement disabled. The
	// refined node must exhibit a lower relative stddev of native
	// occurrences across its sent packets.
	const (
		k     = 256
		sends = 4000
	)
	build := func(disable bool, seed int64) float64 {
		rng := rand.New(rand.NewSource(seed))
		n := mustNode(t, Options{K: k, M: 0, Rng: rng, DisableRefinement: disable})
		if err := n.Seed(make([][]byte, k)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < sends; i++ {
			if _, ok := n.Recode(); !ok {
				t.Fatal("recode failed")
			}
		}
		return n.OccurrenceRelStdDev()
	}
	refined := build(false, 7)
	raw := build(true, 7)
	if refined >= raw {
		t.Errorf("refinement did not reduce occurrence spread: refined=%v raw=%v", refined, raw)
	}
	// On a fully decoded node every native is substitutable, so the
	// refined spread should be very tight.
	if refined > 0.10 {
		t.Errorf("refined relative stddev = %v, want small", refined)
	}
}

func TestRefinePreservesLinearity(t *testing.T) {
	// A half-decoded node with payloads: refinement substitutions must
	// keep packets consistent with ground truth.
	const (
		k = 64
		m = 8
	)
	rng := rand.New(rand.NewSource(8))
	natives := randomNatives(rng, k, m)
	src := mustNode(t, Options{K: k, M: m, Rng: rand.New(rand.NewSource(20))})
	if err := src.Seed(natives); err != nil {
		t.Fatal(err)
	}
	n := mustNode(t, Options{K: k, M: m, Rng: rand.New(rand.NewSource(21))})
	for i := 0; i < k; i++ { // enough to decode a chunk but not all
		z, _ := src.Recode()
		n.Receive(z)
	}
	if n.DecodedCount() == 0 {
		t.Fatal("test setup: nothing decoded")
	}
	subsBefore := n.Stats().Substitutions
	for i := 0; i < 500; i++ {
		z, ok := n.Recode()
		if !ok {
			t.Fatal("recode failed")
		}
		if !payloadConsistent(z, natives) {
			t.Fatalf("refined packet %d inconsistent", i)
		}
	}
	if n.Stats().Substitutions == subsBefore {
		t.Error("refinement never substituted anything on a rich node")
	}
}

func TestRedundancyDetectionRules(t *testing.T) {
	const k = 16
	n := mustNode(t, Options{K: k, M: 0, Rng: rand.New(rand.NewSource(9))})
	// Decode natives 0 and 1; store pair {2,3} and triple {4,5,6}.
	n.Receive(packet.Native(k, 0, nil))
	n.Receive(packet.Native(k, 1, nil))
	n.Receive(&packet.Packet{Vec: bitvec.FromIndices(k, 2, 3)})
	n.Receive(&packet.Packet{Vec: bitvec.FromIndices(k, 4, 5, 6)})

	tests := []struct {
		name string
		vec  *bitvec.Vector
		want bool
	}{
		{"decoded native", bitvec.FromIndices(k, 0), true},
		{"undecoded native", bitvec.FromIndices(k, 7), false},
		{"pair of decoded", bitvec.FromIndices(k, 0, 1), true},
		{"stored pair", bitvec.FromIndices(k, 2, 3), true},
		{"cross pair", bitvec.FromIndices(k, 2, 4), false},
		{"pair one decoded", bitvec.FromIndices(k, 0, 7), false},
		{"stored triple", bitvec.FromIndices(k, 4, 5, 6), true},
		{"unknown triple", bitvec.FromIndices(k, 4, 5, 7), false},
		{"triple = decoded + stored pair", bitvec.FromIndices(k, 0, 2, 3), true},
		{"triple = decoded + cross pair", bitvec.FromIndices(k, 0, 2, 4), false},
		{"degree 4 undetectable", bitvec.FromIndices(k, 4, 5, 6, 7), false},
		{"deg4 reducing to stored pair", bitvec.FromIndices(k, 0, 1, 2, 3), true},
		{"deg4 reducing to native", bitvec.FromIndices(k, 0, 1, 2, 7), false},
		{"empty", bitvec.New(k), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := n.IsRedundant(tt.vec); got != tt.want {
				t.Errorf("IsRedundant(%v) = %v, want %v", tt.vec, got, tt.want)
			}
		})
	}
}

// Soundness: everything Algorithm 3 flags as redundant must truly lie in
// the GF(2) span of what the node holds (decoded natives + stored
// packets). Detection may miss redundancy (it is approximate) but must
// never produce a false positive.
func TestRedundancyDetectionSound(t *testing.T) {
	const k = 32
	rng := rand.New(rand.NewSource(10))
	src := mustNode(t, Options{K: k, M: 0, Rng: rand.New(rand.NewSource(30))})
	if err := src.Seed(make([][]byte, k)); err != nil {
		t.Fatal(err)
	}
	n := mustNode(t, Options{K: k, M: 0, Rng: rand.New(rand.NewSource(31))})

	checkAll := func() {
		// Ground-truth basis: decoded natives + stored packets.
		var basis []*bitvec.Vector
		for x := 0; x < k; x++ {
			if n.IsDecoded(x) {
				basis = append(basis, bitvec.Single(k, x))
			}
		}
		n.dec.ForEachStored(func(_ int, vec *bitvec.Vector, _ []byte) bool {
			basis = append(basis, vec.Clone())
			return true
		})
		for trial := 0; trial < 60; trial++ {
			deg := 1 + rng.Intn(4)
			vec := bitvec.New(k)
			for vec.PopCount() < deg {
				vec.Set(rng.Intn(k))
			}
			if n.IsRedundant(vec) && !gf2.InSpan(vec, basis) {
				t.Fatalf("false positive: %v flagged redundant outside span", vec)
			}
		}
	}
	for step := 0; step < 3*k; step++ {
		z, _ := src.Recode()
		n.Receive(z)
		if step%8 == 0 {
			checkAll()
		}
	}
	checkAll()
}

func TestDetectorDropsRedundantPairs(t *testing.T) {
	const k = 8
	n := mustNode(t, Options{K: k, M: 0})
	n.Receive(&packet.Packet{Vec: bitvec.FromIndices(k, 1, 2)})
	n.Receive(&packet.Packet{Vec: bitvec.FromIndices(k, 2, 3)})
	// {1,3} = {1,2} ⊕ {2,3}: same component, must be rejected.
	res := n.Receive(&packet.Packet{Vec: bitvec.FromIndices(k, 1, 3)})
	if !res.Redundant {
		t.Error("redundant pair accepted")
	}
	if n.Stats().DetectorHits == 0 {
		t.Error("detector hit not recorded")
	}
	// With detection disabled the same packet is stored.
	n2 := mustNode(t, Options{K: k, M: 0, DisableRedundancyCheck: true})
	n2.Receive(&packet.Packet{Vec: bitvec.FromIndices(k, 1, 2)})
	n2.Receive(&packet.Packet{Vec: bitvec.FromIndices(k, 2, 3)})
	if res := n2.Receive(&packet.Packet{Vec: bitvec.FromIndices(k, 1, 3)}); res.Redundant {
		t.Error("detector ran while disabled")
	}
}

func TestSmartRecodeNative(t *testing.T) {
	const (
		k = 16
		m = 4
	)
	rng := rand.New(rand.NewSource(11))
	natives := randomNatives(rng, k, m)
	sender := mustNode(t, Options{K: k, M: m, Rng: rng})
	if err := sender.Seed(natives); err != nil {
		t.Fatal(err)
	}
	receiver := mustNode(t, Options{K: k, M: m, Rng: rand.New(rand.NewSource(12))})
	// Receiver knows nothing: smart construction must find a native.
	z, ok := sender.SmartRecode(receiver.Components())
	if !ok {
		t.Fatal("no smart packet against empty receiver")
	}
	if z.Degree() != 1 {
		t.Fatalf("degree = %d, want 1", z.Degree())
	}
	if !payloadConsistent(z, natives) {
		t.Fatal("smart native payload inconsistent")
	}
	res := receiver.Receive(z)
	if res.Redundant {
		t.Fatal("guaranteed-innovative packet rejected")
	}
}

func TestSmartRecodePair(t *testing.T) {
	const (
		k = 16
		m = 4
	)
	rng := rand.New(rand.NewSource(13))
	natives := randomNatives(rng, k, m)
	sender := mustNode(t, Options{K: k, M: m, Rng: rng})
	// Sender holds only pairs {0,1} and {1,2} — nothing decoded.
	p01 := packet.Native(k, 0, natives[0])
	p01.Xor(packet.Native(k, 1, natives[1]), nil, 0, 0)
	p12 := packet.Native(k, 1, natives[1])
	p12.Xor(packet.Native(k, 2, natives[2]), nil, 0, 0)
	sender.Receive(p01)
	sender.Receive(p12)

	receiver := mustNode(t, Options{K: k, M: m, Rng: rand.New(rand.NewSource(14))})
	z, ok := sender.SmartRecode(receiver.Components())
	if !ok {
		t.Fatal("no smart pair found")
	}
	if z.Degree() != 2 {
		t.Fatalf("degree = %d, want 2", z.Degree())
	}
	if !payloadConsistent(z, natives) {
		t.Fatal("smart pair payload inconsistent (spanning-forest reconstruction)")
	}
	if res := receiver.Receive(z); res.Redundant {
		t.Fatal("smart pair rejected by receiver")
	}
	// Once the receiver holds the sender's whole partition knowledge,
	// nothing smart remains.
	sndCC := sender.Components()
	rcvCC := receiver.Components()
	_ = sndCC
	for i := 0; i < 4; i++ {
		z, ok := sender.SmartRecode(receiver.Components())
		if !ok {
			break
		}
		receiver.Receive(z)
	}
	if _, ok := sender.SmartRecode(receiver.Components()); ok {
		t.Error("smart construction never exhausted")
	}
	_ = rcvCC
}

func TestSmartRecodeStatsCounted(t *testing.T) {
	const k = 8
	sender := mustNode(t, Options{K: k, M: 0})
	if err := sender.Seed(make([][]byte, k)); err != nil {
		t.Fatal(err)
	}
	receiver := mustNode(t, Options{K: k, M: 0})
	if _, ok := sender.SmartRecode(receiver.Components()); !ok {
		t.Fatal("smart recode failed")
	}
	st := sender.Stats()
	if st.SmartSent != 1 || st.Sent != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestStatsHelpers(t *testing.T) {
	var s Stats
	if s.PickFirstAcceptRate() != 1 || s.AvgPickRetries() != 0 ||
		s.BuildTargetRate() != 1 || s.AvgBuildDeviation() != 0 {
		t.Error("zero stats helpers wrong")
	}
	s = Stats{Picks: 10, PickFirstAccepted: 9, PickRetries: 2,
		Builds: 10, BuildTargetReached: 5, BuildDeviation: 0.5}
	if s.PickFirstAcceptRate() != 0.9 {
		t.Error("PickFirstAcceptRate")
	}
	if s.AvgPickRetries() != 2 {
		t.Error("AvgPickRetries")
	}
	if s.BuildTargetRate() != 0.5 {
		t.Error("BuildTargetRate")
	}
	if s.AvgBuildDeviation() != 0.05 {
		t.Error("AvgBuildDeviation")
	}
}

func TestTripleIndexChurn(t *testing.T) {
	// Feed packets so triples get tracked, reduced, and removed; the two
	// maps must stay consistent with the set of stored degree-3 packets.
	const k = 32
	rng := rand.New(rand.NewSource(15))
	src := mustNode(t, Options{K: k, M: 0, Rng: rand.New(rand.NewSource(40))})
	if err := src.Seed(make([][]byte, k)); err != nil {
		t.Fatal(err)
	}
	n := mustNode(t, Options{K: k, M: 0, Rng: rng})
	for i := 0; i < 6*k; i++ {
		z, _ := src.Recode()
		n.Receive(z)

		want := 0
		n.dec.ForEachStored(func(_ int, vec *bitvec.Vector, _ []byte) bool {
			if vec.PopCount() == 3 {
				want++
			}
			return true
		})
		got := 0
		for _, c := range n.triples {
			got += c
		}
		byID := 0
		for _, tr := range n.tripleOf {
			if tr != noTriple {
				byID++
			}
		}
		if got != want || byID != want {
			t.Fatalf("step %d: triple index holds %d (byID %d), graph has %d",
				i, got, byID, want)
		}
	}
	if !n.Complete() {
		t.Fatal("node did not decode during churn test")
	}
}

func BenchmarkRecodeSeeded2048(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := mustNode(b, Options{K: 2048, M: 0, Rng: rng})
	if err := n.Seed(make([][]byte, 2048)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := n.Recode(); !ok {
			b.Fatal("recode failed")
		}
	}
}

// TestDecodeLog: the log lists each decoded native once, in the order it
// was recovered — 0..k−1 for a seeded source, and at every step of a
// random LT stream a permutation of exactly the decoded set.
func TestDecodeLog(t *testing.T) {
	const k, m = 64, 8
	rng := rand.New(rand.NewSource(7))
	natives := randomNatives(rng, k, m)
	src := mustNode(t, Options{K: k, M: m, Rng: rng})
	if len(src.DecodeLog()) != 0 {
		t.Fatalf("fresh node logs %v", src.DecodeLog())
	}
	if err := src.Seed(natives); err != nil {
		t.Fatal(err)
	}
	for i, x := range src.DecodeLog() {
		if int(x) != i {
			t.Fatalf("seeded log[%d] = %d, want the natives in order", i, x)
		}
	}
	if len(src.DecodeLog()) != k {
		t.Fatalf("seeded log holds %d entries, want %d", len(src.DecodeLog()), k)
	}

	dst := mustNode(t, Options{K: k, M: m, Rng: rand.New(rand.NewSource(8))})
	for sent := 0; !dst.Complete(); sent++ {
		if sent > 20*k {
			t.Fatal("receiver never completed")
		}
		z, ok := src.Recode()
		if !ok {
			t.Fatal("source cannot recode")
		}
		before := len(dst.DecodeLog())
		res := dst.Receive(z)
		log := dst.DecodeLog()
		if len(log) != before+res.NewlyDecoded || len(log) != dst.DecodedCount() {
			t.Fatalf("log grew %d → %d on a packet that decoded %d natives (%d decoded in all)",
				before, len(log), res.NewlyDecoded, dst.DecodedCount())
		}
		seen := make(map[int32]bool, len(log))
		for _, x := range log {
			if seen[x] || !dst.IsDecoded(int(x)) {
				t.Fatalf("log entry %d: duplicate %v, decoded %v", x, seen[x], dst.IsDecoded(int(x)))
			}
			seen[x] = true
		}
	}
}
