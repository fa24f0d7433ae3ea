package generation

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"ltnc/internal/opcount"
	"ltnc/internal/packet"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{Generations: 0, KPerGeneration: 4}); !errors.Is(err, ErrBadGeneration) {
		t.Errorf("G=0 err = %v, want ErrBadGeneration", err)
	}
	if _, err := New(Options{Generations: 2, KPerGeneration: 0}); !errors.Is(err, ErrBadGeneration) {
		t.Errorf("k/G=0 err = %v, want ErrBadGeneration", err)
	}
	if _, err := New(Options{Generations: packet.MaxGenerations + 1, KPerGeneration: 1}); !errors.Is(err, ErrBadGeneration) {
		t.Errorf("G over wire bound err = %v, want ErrBadGeneration", err)
	}
}

func TestSeedValidation(t *testing.T) {
	c, err := New(Options{Generations: 2, KPerGeneration: 4, M: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Seed(make([][]byte, 7)); err == nil {
		t.Error("wrong native count accepted")
	}
}

func randomNatives(rng *rand.Rand, k, m int) [][]byte {
	out := make([][]byte, k)
	for i := range out {
		out[i] = make([]byte, m)
		rng.Read(out[i])
	}
	return out
}

func TestGenerationsEndToEnd(t *testing.T) {
	const (
		g    = 4
		kPer = 32
		m    = 16
	)
	rng := rand.New(rand.NewSource(1))
	natives := randomNatives(rng, g*kPer, m)

	src, err := New(Options{Generations: g, KPerGeneration: kPer, M: m, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Seed(natives); err != nil {
		t.Fatal(err)
	}
	if !src.Complete() || src.DecodedCount() != g*kPer || src.CompleteCount() != g {
		t.Fatal("seeded coder not complete")
	}
	sink, err := New(Options{Generations: g, KPerGeneration: kPer, M: m, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; !sink.Complete(); i++ {
		if i > 40*g*kPer {
			t.Fatalf("no convergence: %d/%d decoded", sink.DecodedCount(), g*kPer)
		}
		z, ok := src.Recode(nil)
		if !ok {
			t.Fatal("source recode failed")
		}
		if z.Generations != g {
			t.Fatalf("recoded packet carries G=%d, want %d", z.Generations, g)
		}
		if sink.IsRedundantPacket(z) {
			continue
		}
		if _, err := sink.Receive(z); err != nil {
			t.Fatal(err)
		}
	}
	data, err := sink.Data()
	if err != nil {
		t.Fatal(err)
	}
	for i := range natives {
		if !bytes.Equal(data[i], natives[i]) {
			t.Fatalf("native %d differs", i)
		}
	}
}

// TestOutOfOrderGenerationCompletion drives the generations to completion
// in a deliberately scrambled order — 2, 0, 3, 1 — by feeding only one
// generation at a time, and checks that per-generation completion is
// tracked as it happens and the reassembled natives come out in content
// order regardless.
func TestOutOfOrderGenerationCompletion(t *testing.T) {
	const (
		g    = 4
		kPer = 16
		m    = 8
	)
	rng := rand.New(rand.NewSource(7))
	natives := randomNatives(rng, g*kPer, m)
	src, err := New(Options{Generations: g, KPerGeneration: kPer, M: m, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Seed(natives); err != nil {
		t.Fatal(err)
	}
	sink, err := New(Options{Generations: g, KPerGeneration: kPer, M: m, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}

	order := []int{2, 0, 3, 1}
	for done, target := range order {
		only := func(gen int) bool { return gen != target }
		for i := 0; !sink.GenComplete(target); i++ {
			if i > 100*kPer {
				t.Fatalf("generation %d did not converge", target)
			}
			z, ok := src.Recode(only)
			if !ok {
				t.Fatal("source recode failed")
			}
			if int(z.Generation) != target {
				t.Fatalf("skip function ignored: got generation %d, want %d", z.Generation, target)
			}
			if sink.IsRedundantPacket(z) {
				continue
			}
			if _, err := sink.Receive(z); err != nil {
				t.Fatal(err)
			}
		}
		if want := done + 1; sink.CompleteCount() != want {
			t.Fatalf("after completing %v: CompleteCount = %d, want %d", order[:done+1], sink.CompleteCount(), want)
		}
		if sink.Complete() != (done == len(order)-1) {
			t.Fatalf("Complete() wrong after %d generations", done+1)
		}
	}

	data, err := sink.Data()
	if err != nil {
		t.Fatal(err)
	}
	for i := range natives {
		if !bytes.Equal(data[i], natives[i]) {
			t.Fatalf("native %d differs after out-of-order completion", i)
		}
	}
	decoded := sink.AppendGenDecoded(nil)
	for g, d := range decoded {
		if d != kPer {
			t.Fatalf("generation %d decoded %d/%d", g, d, kPer)
		}
	}
}

func TestCheckAndReceiveValidation(t *testing.T) {
	c, err := New(Options{Generations: 2, KPerGeneration: 4, M: 0})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name       string
		gens, g    uint32
		k          int
		wantReject bool
	}{
		{"valid", 2, 1, 4, false},
		{"gen-absent count on structured object", 0, 0, 4, true},
		{"count mismatch", 4, 0, 4, true},
		{"generation out of range", 2, 2, 4, true},
		{"generation id with sign bit (32-bit int wrap)", 2, 1 << 31, 4, true},
		{"k mismatch", 2, 0, 8, true},
	}
	for _, tc := range cases {
		err := c.Check(tc.gens, tc.g, tc.k)
		if tc.wantReject && !errors.Is(err, ErrBadGeneration) {
			t.Errorf("%s: err = %v, want ErrBadGeneration", tc.name, err)
		}
		if !tc.wantReject && err != nil {
			t.Errorf("%s: unexpected err %v", tc.name, err)
		}
	}

	// Receive enforces the same boundary and routes on the id.
	p := packet.Native(4, 2, nil)
	p.Generation = 1
	p.Generations = 2
	if _, err := c.Receive(p); err != nil {
		t.Fatalf("valid packet rejected: %v", err)
	}
	if c.gens[1].DecodedCount() != 1 || c.gens[0].DecodedCount() != 0 {
		t.Error("packet routed to wrong generation")
	}
	q := packet.Native(4, 2, nil)
	q.Generation = 9
	q.Generations = 2
	if _, err := c.Receive(q); !errors.Is(err, ErrBadGeneration) {
		t.Errorf("out-of-range generation err = %v, want ErrBadGeneration", err)
	}
	if !c.IsRedundantPacket(q) {
		t.Error("out-of-range generation not flagged redundant")
	}
}

func TestRecodeStampsGeneration(t *testing.T) {
	const (
		g    = 3
		kPer = 8
	)
	c, err := New(Options{Generations: g, KPerGeneration: kPer, M: 0, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Seed(make([][]byte, g*kPer)); err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint32]int)
	for i := 0; i < 60; i++ {
		z, ok := c.Recode(nil)
		if !ok {
			t.Fatal("recode failed")
		}
		if int(z.Generation) >= g || z.Generations != g {
			t.Fatalf("bad generation stamp %d/%d", z.Generation, z.Generations)
		}
		seen[z.Generation]++
	}
	for want := uint32(0); want < g; want++ {
		if seen[want] == 0 {
			t.Errorf("generation %d never recoded (round-robin broken)", want)
		}
	}
}

// A G=1 coder must stay wire-compatible with gen-absent peers: its
// packets carry no generation count and encode as v1/v2.
func TestSingleGenerationIsGenAbsent(t *testing.T) {
	c, err := New(Options{Generations: 1, KPerGeneration: 8, M: 0, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Seed(make([][]byte, 8)); err != nil {
		t.Fatal(err)
	}
	z, ok := c.Recode(nil)
	if !ok {
		t.Fatal("recode failed")
	}
	if z.Generations != 0 {
		t.Fatalf("G=1 coder stamped Generations=%d, want 0 (gen-absent)", z.Generations)
	}
	if err := c.Check(0, 0, 8); err != nil {
		t.Fatalf("gen-absent header rejected by G=1 coder: %v", err)
	}
}

// Generations shrink the decode control cost: same total content, one
// pass with G=1 and one with G=8.
func TestGenerationsReduceDecodeCost(t *testing.T) {
	const (
		total = 256
		m     = 0
	)
	cost := func(g int) uint64 {
		var counter opcount.Counter
		src, err := New(Options{Generations: g, KPerGeneration: total / g, M: m, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if err := src.Seed(make([][]byte, total)); err != nil {
			t.Fatal(err)
		}
		sink, err := New(Options{
			Generations: g, KPerGeneration: total / g, M: m, Seed: 6,
			Counter: &counter,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; !sink.Complete(); i++ {
			if i > 100*total {
				t.Fatalf("G=%d: no convergence", g)
			}
			z, _ := src.Recode(nil)
			if sink.IsRedundantPacket(z) {
				continue
			}
			if _, err := sink.Receive(z); err != nil {
				t.Fatal(err)
			}
		}
		return counter.Total(opcount.DecodeControl)
	}
	one := cost(1)
	eight := cost(8)
	if eight >= one {
		t.Errorf("G=8 decode control %d not below G=1 %d", eight, one)
	}
	t.Logf("decode control ops: G=1 %d, G=8 %d (%.0f%%)", one, eight, 100*float64(eight)/float64(one))
}

// TestOverheadVsG measures the price generations pay — the per-generation
// coupon-collector tail raises reception overhead as G grows — and logs
// the table EXPERIMENTS.md reports. Overheads must stay finite and the
// transfer byte-identical at every G.
func TestOverheadVsG(t *testing.T) {
	if testing.Short() {
		t.Skip("measurement sweep")
	}
	const total = 1024
	rng := rand.New(rand.NewSource(11))
	natives := randomNatives(rng, total, 4)
	for _, g := range []int{1, 2, 4, 8, 16, 32} {
		src, err := New(Options{Generations: g, KPerGeneration: total / g, M: 4, Seed: 20})
		if err != nil {
			t.Fatal(err)
		}
		if err := src.Seed(natives); err != nil {
			t.Fatal(err)
		}
		sink, err := New(Options{Generations: g, KPerGeneration: total / g, M: 4, Seed: 21})
		if err != nil {
			t.Fatal(err)
		}
		received := 0
		for i := 0; !sink.Complete(); i++ {
			if i > 100*total {
				t.Fatalf("G=%d: no convergence", g)
			}
			z, _ := src.Recode(nil)
			received++ // headers cross the wire even when aborted
			if sink.IsRedundantPacket(z) {
				continue
			}
			if _, err := sink.Receive(z); err != nil {
				t.Fatal(err)
			}
		}
		data, err := sink.Data()
		if err != nil {
			t.Fatal(err)
		}
		for i := range natives {
			if !bytes.Equal(data[i], natives[i]) {
				t.Fatalf("G=%d: native %d differs", g, i)
			}
		}
		t.Logf("G=%2d k/G=%4d: overhead %.3f, header vec %4d bits",
			g, total/g, float64(received)/float64(total), total/g)
	}
}

// A relay that recoded while it held only the first part of a generation
// has sent those natives often and the rest never. Once it completes it is
// a source like any other: what it recodes from then on must cover the
// early natives at the same rate as the late ones, or a downstream that
// lost some of the early ones waits behind thousands of rows that steer
// around them (Algorithm 2 balancing against a history that no longer
// means anything).
func TestCompletedGenerationForgetsWhatItSent(t *testing.T) {
	const k = 256
	c, err := New(Options{Generations: 1, KPerGeneration: k, M: 0, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	feed := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if _, err := c.Receive(packet.Native(k, i, nil)); err != nil {
				t.Fatal(err)
			}
		}
	}
	feed(0, k/4)
	for i := 0; i < 4*k; i++ { // recode from the first quarter only
		if _, ok := c.Recode(nil); !ok {
			t.Fatal("partial coder cannot recode")
		}
	}
	feed(k/4, k)
	if !c.Complete() {
		t.Fatal("coder incomplete after every native was fed")
	}
	early, late := 0, 0
	for i := 0; i < 4*k; i++ {
		z, ok := c.Recode(nil)
		if !ok {
			t.Fatal("complete coder cannot recode")
		}
		for x := z.Vec.LowestSet(); x >= 0; x = z.Vec.NextSet(x + 1) {
			if x < k/4 {
				early++
			} else {
				late++
			}
		}
	}
	// Uniform coverage puts a quarter of all occurrences in the first
	// quarter; balancing against the pre-completion history puts almost
	// none there.
	if share := float64(early) / float64(early+late); share < 0.15 {
		t.Errorf("natives sent before completion make up %.3f of the occurrences after it, want ≈ 0.25", share)
	}
}

// TestDecodeLogPerGeneration: every generation keeps its own decode-order
// log — 0..k/G−1 after Seed, a permutation of the generation's decoded set
// through a random stream — and ResetGen empties the one it rebuilds.
// GenStored counts the coded rows a generation holds undecoded: none at a
// seeded source or in a complete generation, some on the way there.
func TestDecodeLogPerGeneration(t *testing.T) {
	const (
		g    = 3
		kPer = 24
		m    = 8
	)
	rng := rand.New(rand.NewSource(5))
	src, err := New(Options{Generations: g, KPerGeneration: kPer, M: m, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Seed(randomNatives(rng, g*kPer, m)); err != nil {
		t.Fatal(err)
	}
	for gen := 0; gen < g; gen++ {
		log := src.DecodeLog(gen)
		if len(log) != kPer {
			t.Fatalf("seeded generation %d logs %d natives, want %d", gen, len(log), kPer)
		}
		for i, x := range log {
			if int(x) != i {
				t.Fatalf("seeded generation %d log[%d] = %d, want the natives in order", gen, i, x)
			}
		}
		if n := src.GenStored(gen); n != 0 {
			t.Fatalf("seeded generation %d holds %d undecoded rows", gen, n)
		}
	}

	dst, err := New(Options{Generations: g, KPerGeneration: kPer, M: m, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	stored := 0
	for sent := 0; !dst.Complete(); sent++ {
		for gen := 0; gen < g; gen++ {
			stored = max(stored, dst.GenStored(gen))
		}
		if sent > 40*g*kPer {
			t.Fatal("receiver never completed")
		}
		z, ok := src.Recode(nil)
		if !ok {
			t.Fatal("source cannot recode")
		}
		if _, err := dst.Receive(z); err != nil {
			t.Fatal(err)
		}
		total := 0
		for gen := 0; gen < g; gen++ {
			seen := make(map[int32]bool)
			for _, x := range dst.DecodeLog(gen) {
				if seen[x] {
					t.Fatalf("generation %d logs native %d twice", gen, x)
				}
				seen[x] = true
				if !dst.NativeRow(packet.New(kPer, m), gen*kPer+int(x)) {
					t.Fatalf("generation %d logs native %d, which is not decoded", gen, x)
				}
			}
			total += len(seen)
		}
		if total != dst.DecodedCount() {
			t.Fatalf("logs hold %d natives, %d are decoded", total, dst.DecodedCount())
		}
	}

	if stored == 0 || dst.GenStored(0)+dst.GenStored(1)+dst.GenStored(2) != 0 {
		t.Fatalf("at most %d rows stored undecoded on the way, %d+%d+%d once complete; want some, then none",
			stored, dst.GenStored(0), dst.GenStored(1), dst.GenStored(2))
	}
	if err := dst.ResetGen(1); err != nil {
		t.Fatal(err)
	}
	if n := len(dst.DecodeLog(1)); n != 0 {
		t.Fatalf("generation 1 logs %d natives after ResetGen", n)
	}
	if len(dst.DecodeLog(0)) != kPer || len(dst.DecodeLog(2)) != kPer {
		t.Fatal("ResetGen(1) touched another generation's log")
	}
}

// TestPlaceGen: a generation placed once complete moves into the caller's
// slots — GenData yields them in order and the shared arena gets back every
// row the generation held, for the next generation to decode into; a
// generation placed before it decodes decodes into its slots and holds no
// arena row; one placed mid-decode finishes in its slots; placing again
// changes nothing; and after a ResetGen the refill, placed again, decodes
// into the same slots.
func TestPlaceGen(t *testing.T) {
	const (
		g    = 3
		kPer = 16
		m    = 8
		span = kPer * m
	)
	natives := randomNatives(rand.New(rand.NewSource(8)), g*kPer, m)
	src, err := New(Options{Generations: g, KPerGeneration: kPer, M: m, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Seed(natives); err != nil {
		t.Fatal(err)
	}
	dst, err := New(Options{Generations: g, KPerGeneration: kPer, M: m, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	fill := func(gen, from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			z := packet.New(kPer, m)
			if !src.NativeRow(z, gen*kPer+i) {
				t.Fatalf("the source has no native %d", gen*kPer+i)
			}
			if _, err := dst.Receive(z); err != nil {
				t.Fatal(err)
			}
		}
	}
	freeRows := func() int { _, rows := dst.Arena().FreeCounts(); return rows }
	buf := make([]byte, g*span)
	slot := func(gen int) []byte { return buf[gen*span : (gen+1)*span] }
	inSlots := func(gen int) bool {
		data, err := dst.GenData(gen)
		if err != nil {
			return false
		}
		for i, nat := range data {
			if &nat[0] != &slot(gen)[i*m] || !bytes.Equal(nat, natives[gen*kPer+i]) {
				return false
			}
		}
		return true
	}

	fill(0, 0, kPer)
	if dst.Place(0, slot(0)[:span-1]) {
		t.Fatal("placed into slots that are not KPer·M bytes")
	}
	before := freeRows()
	if !dst.Place(0, slot(0)) || !inSlots(0) {
		t.Fatal("generation 0 did not move into its slots")
	}
	if got := freeRows() - before; got != kPer {
		t.Fatalf("the move gave the arena %d rows back, want the %d the generation held", got, kPer)
	}
	// Generation 1, placed first, decodes into its slots: every row it
	// takes off the shared free list goes back as its native lands.
	if !dst.Place(1, slot(1)) {
		t.Fatal("an empty generation refused its slots")
	}
	before = freeRows()
	fill(1, 0, kPer)
	if !inSlots(1) || freeRows() != before {
		t.Fatalf("generation 1 decoded in its slots: %v, holding %d arena rows; want true, none", inSlots(1), before-freeRows())
	}
	fill(2, 0, kPer/2)
	if !dst.Place(2, slot(2)) {
		t.Fatal("a half-decoded generation refused its slots")
	}
	fill(2, kPer/2, kPer)
	if !inSlots(2) {
		t.Fatal("generation 2, placed mid-decode, did not finish in its slots")
	}
	before = freeRows()
	if !dst.Place(0, slot(0)) || !inSlots(0) || freeRows() != before {
		t.Fatal("placing a placed generation again changed it")
	}

	if err := dst.ResetGen(0); err != nil {
		t.Fatal(err)
	}
	clear(slot(0))
	if !dst.Place(0, slot(0)) {
		t.Fatal("the fresh generation refused its slots")
	}
	fill(0, 0, kPer)
	if !inSlots(0) {
		t.Fatal("the refill after ResetGen did not decode into the same slots")
	}
}
