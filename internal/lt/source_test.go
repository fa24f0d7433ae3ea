package lt

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"ltnc/internal/bitvec"
)

// srcRow is one hand-made row of TestDecoderSource: the natives it names,
// the tag it is inserted under, and whether its payload is forged.
type srcRow struct {
	idx    []int
	tag    int32
	forged bool
}

// TestDecoderSource: every decoded native reports the tag of the row that
// released it — a unit row, received through RowFor once placed, or a
// stored row peeled down to it — and only natives decoded before it reduced
// that row, so the first false native in decode order names the forged row.
// A native re-derived by a second row keeps the first row's tag; a row the
// detector prunes releases nothing; natives released by untagged rows
// report −1, and a decoder fed no tagged row holds no tag table at all.
func TestDecoderSource(t *testing.T) {
	const k, m = 6, 4
	natives := make([][]byte, k)
	for x := range natives {
		natives[x] = bytes.Repeat([]byte{byte(0x11 * (x + 1))}, m)
	}
	for _, tt := range []struct {
		name  string
		place bool
		rows  []srcRow
		prune func(*bitvec.Vector) bool // the detector, if any
		want  []int32
		order []int // the decode order
	}{
		{
			name:  "unit rows through RowFor",
			place: true,
			rows:  []srcRow{{[]int{2}, 7, false}, {[]int{0}, 8, false}, {[]int{5}, 9, false}},
			want:  []int32{8, -1, 7, -1, -1, 9},
			order: []int{2, 0, 5},
		},
		{
			name:  "cascade",
			rows:  []srcRow{{[]int{0, 1}, 1, false}, {[]int{1, 2, 3}, 2, false}, {[]int{2, 3}, 3, false}, {[]int{0}, 4, false}, {[]int{3}, 5, false}},
			want:  []int32{4, 1, 2, 5, -1, -1}, // 3 reduces rows 2 and 3 to 2; row 2 came first
			order: []int{0, 1, 3, 2},
		},
		{
			name:  "a duplicate keeps the first tag",
			rows:  []srcRow{{[]int{0, 1}, 1, false}, {[]int{1, 2}, 2, false}, {[]int{0, 2}, 3, false}, {[]int{0}, 4, false}, {[]int{0}, 5, false}},
			want:  []int32{4, 1, 3, -1, -1, -1},
			order: []int{0, 1, 2},
		},
		{
			name:  "a pruned row releases nothing",
			rows:  []srcRow{{[]int{0, 1, 2}, 1, false}, {[]int{0}, 2, false}, {[]int{1}, 3, false}},
			prune: func(v *bitvec.Vector) bool { return v.PopCount() == 2 && v.Get(1) && v.Get(2) },
			want:  []int32{2, 3, -1, -1, -1, -1},
			order: []int{0, 1},
		},
		{
			name:  "untagged rows report -1",
			rows:  []srcRow{{[]int{0}, -1, false}, {[]int{1, 0}, -1, false}, {[]int{2}, 6, false}, {[]int{3, 2}, -1, false}},
			want:  []int32{-1, -1, 6, -1, -1, -1},
			order: []int{0, 1, 2, 3},
		},
		{
			name:  "no tagged row, no tag table",
			rows:  []srcRow{{[]int{0}, -1, false}, {[]int{0, 1}, -1, false}},
			want:  []int32{-1, -1, -1, -1, -1, -1},
			order: []int{0, 1},
		},
		{
			name:  "the first false native names the forger",
			place: true,
			rows:  []srcRow{{[]int{0, 1}, 1, false}, {[]int{1, 2}, 2, true}, {[]int{2, 3}, 3, false}, {[]int{0}, 4, false}},
			want:  []int32{4, 1, 2, 3, -1, -1},
			order: []int{0, 1, 2, 3},
		},
	} {
		t.Run(tt.name, func(t *testing.T) {
			var order []int
			dec, err := NewDecoder(k, m, nil, Hooks{
				Decoded:        func(x int) { order = append(order, x) },
				CheckRedundant: tt.prune,
			})
			if err != nil {
				t.Fatal(err)
			}
			if tt.place && !dec.Place(make([]byte, k*m)) {
				t.Fatal("Place refused a k·m-byte buffer")
			}
			for _, r := range tt.rows {
				vec, pay := dec.Arena().Vec(), dec.Arena().Row()
				if len(r.idx) == 1 {
					pay = dec.RowFor(r.idx[0])
				}
				vec.Reset()
				clear(pay)
				for _, x := range r.idx {
					vec.Set(x)
					bitvec.XorBytes(pay, natives[x])
				}
				if r.forged {
					pay[0] ^= 0xFF
				}
				dec.InsertOwned(vec, pay, r.tag)
			}
			for x, want := range tt.want {
				if got := dec.Source(x); got != want {
					t.Errorf("Source(%d) = %d, want %d", x, got, want)
				}
			}
			if !slices.Equal(order, tt.order) {
				t.Errorf("decode order %v, want %v", order, tt.order)
			}
			firstFalse := int32(-2)
			for _, x := range order {
				if !bytes.Equal(dec.NativeData(x), natives[x]) {
					firstFalse = dec.Source(x)
					break
				}
			}
			forger := int32(-2)
			for _, r := range tt.rows {
				if r.forged {
					forger = r.tag
				}
			}
			if firstFalse != forger {
				t.Errorf("the first false native names tag %d, want %d (-2: none)", firstFalse, forger)
			}
			tagged := false
			for _, r := range tt.rows {
				tagged = tagged || r.tag >= 0
			}
			if !tagged && dec.src != nil {
				t.Error("a decoder fed no tagged row allocated a tag table")
			}
		})
	}
}

// checkSource decodes a seeded LT stream — unit rows (through RowFor once
// placed), coded rows, repeats of coded rows, and rows a random detector
// prunes, each inserted under its own tag or untagged, the buffer placed
// at a seeded step or never — in which exactly one tagged row's payload is
// forged. Either every decoded native is true, or the first false one in
// decode order reports the forged row's tag; and every native a tag names
// is in that row's code vector.
func checkSource(t *testing.T, seed int64, k, m int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	enc, natives := newTestEncoder(t, k, m, seed)
	var order []int
	dec, err := NewDecoder(k, m, nil, Hooks{
		Decoded:        func(x int) { order = append(order, x) },
		CheckRedundant: func(*bitvec.Vector) bool { return rng.Intn(4) == 0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	steps := 2*k + rng.Intn(4*k)
	forged, placeAt := rng.Intn(steps), rng.Intn(2*steps)
	var vecs []*bitvec.Vector // each row's code vector, by tag
	var sent []*bitvec.Vector
	for step := 0; step < steps; step++ {
		if step == placeAt && !dec.Place(make([]byte, k*m)) {
			t.Fatalf("seed %d: Place refused a k·m-byte buffer", seed)
		}
		var vec *bitvec.Vector
		switch r := rng.Intn(8); {
		case r < 3:
			vec = bitvec.Single(k, rng.Intn(k))
		case r < 4 && len(sent) > 0:
			vec = sent[rng.Intn(len(sent))]
		default:
			vec = enc.Next().Vec
			sent = append(sent, vec)
		}
		vecs = append(vecs, vec)
		row := dec.Arena().Row()
		if x := vec.LowestSet(); vec.PopCount() == 1 {
			row = dec.RowFor(x)
		}
		clear(row)
		for x := vec.LowestSet(); x >= 0; x = vec.NextSet(x + 1) {
			bitvec.XorBytes(row, natives[x])
		}
		tag := int32(step)
		if step == forged {
			row[rng.Intn(m)] ^= byte(1 + rng.Intn(255))
		} else if rng.Intn(4) == 0 {
			tag = -1
		}
		own := dec.Arena().Vec()
		own.CopyFrom(vec)
		dec.InsertOwned(own, row, tag)
	}
	for _, x := range order {
		if src := dec.Source(x); src >= 0 && !vecs[src].Get(x) {
			t.Fatalf("seed %d k %d m %d: native %d names row %d, which does not cover it", seed, k, m, x, src)
		}
	}
	for _, x := range order {
		if !bytes.Equal(dec.NativeData(x), natives[x]) {
			if src := dec.Source(x); src != int32(forged) {
				t.Fatalf("seed %d k %d m %d: the first false native, %d, names row %d; row %d was forged", seed, k, m, x, src, forged)
			}
			return
		}
	}
}

// TestDecoderSourceStreams runs checkSource over seeded geometries and
// streams.
func TestDecoderSourceStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for seed := int64(1); seed <= 300; seed++ {
		checkSource(t, seed, 1+rng.Intn(48), 1+rng.Intn(24))
	}
}

// FuzzDecoderSource is TestDecoderSourceStreams with the fuzzer choosing
// the seed and the geometry.
func FuzzDecoderSource(f *testing.F) {
	f.Add(int64(1), uint8(24), uint8(8))
	f.Add(int64(2), uint8(0), uint8(1))
	f.Add(int64(3), uint8(40), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, k, m uint8) {
		checkSource(t, seed, 1+int(k)%48, 1+int(m)%24)
	})
}
