package lt

import (
	"bytes"
	"math/rand"
	"testing"
	"unsafe"

	"ltnc/internal/bitvec"
	"ltnc/internal/packet"
)

// aliases reports whether a starts at b's first byte.
func aliases(a, b []byte) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }

// TestSplitAliased: every native that fits in the content is a view of it;
// only the natives past its end are copied, zero-padded, and Join inverts
// the split like Split's.
func TestSplitAliased(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, tt := range []struct{ size, k, views int }{
		{16, 4, 4}, {17, 4, 3}, {7, 6, 3}, {10, 6, 5}, {1, 1, 1}, {1000, 7, 6}, {4096, 64, 64},
	} {
		content := make([]byte, tt.size)
		rng.Read(content)
		natives, m, err := SplitAliased(content, tt.k)
		if err != nil || len(natives) != tt.k || m != (tt.size+tt.k-1)/tt.k {
			t.Fatalf("SplitAliased(%d, %d) = %d natives of %d bytes, %v", tt.size, tt.k, len(natives), m, err)
		}
		for i, nat := range natives {
			if len(nat) != m || cap(nat) != m {
				t.Fatalf("size %d k %d: native %d is %d bytes (cap %d), want %d", tt.size, tt.k, i, len(nat), cap(nat), m)
			}
			if in := aliases(nat, content[min(i*m, len(content)-1):]); in != (i < tt.views) {
				t.Fatalf("size %d k %d: native %d aliases the content: %v, want %v", tt.size, tt.k, i, in, i < tt.views)
			}
		}
		back, err := Join(natives, tt.size)
		if err != nil || !bytes.Equal(back, content) {
			t.Fatalf("size %d k %d: Join after SplitAliased: %v", tt.size, tt.k, err)
		}
		if padded, _ := Split(content, tt.k); !bytes.Equal(bytes.Join(natives, nil), bytes.Join(padded, nil)) {
			t.Fatalf("size %d k %d: natives differ from Split's (padding not zero?)", tt.size, tt.k)
		}
	}
	if _, _, err := SplitAliased(nil, 4); err == nil {
		t.Error("SplitAliased(nil) succeeded")
	}
	if _, _, err := SplitAliased([]byte{1}, 0); err == nil {
		t.Error("SplitAliased(k=0) succeeded")
	}
}

// inside reports whether row r lies in buf's memory.
func inside(r, buf []byte) bool {
	p, lo := uintptr(unsafe.Pointer(unsafe.SliceData(r))), uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
	return len(r) > 0 && p >= lo && p < lo+uintptr(len(buf))
}

// TestPlace: a buffer that is not k·m bytes places nothing; placed
// mid-decode, the natives decoded so far move into their slots of dst and
// the rows they leave go back to the arena, and every later native decodes
// into its slot; placing again changes nothing, and placing in another
// buffer moves the natives without recycling the slots they leave; and
// natives seeded as views of dst are neither copied nor recycled.
func TestPlace(t *testing.T) {
	const k, m = 24, 8
	enc, natives := newTestEncoder(t, k, m, 9)
	dec, err := NewDecoder(k, m, nil, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, k*m)
	for dec.DecodedCount() < k/2 {
		dec.Insert(enc.Next())
	}
	if dec.Place(dst[:k*m-1]) {
		t.Fatal("placed into a buffer that is not k·m bytes")
	}
	for x := range k {
		if inside(dec.NativeData(x), dst) {
			t.Fatalf("native %d moved into a buffer that was refused", x)
		}
	}
	_, before := dec.Arena().FreeCounts()
	decoded := dec.DecodedCount()
	if !dec.Place(dst) {
		t.Fatal("a k·m-byte buffer was refused")
	}
	if _, after := dec.Arena().FreeCounts(); after != before+decoded {
		t.Fatalf("the arena got %d rows back from the move, want the %d the decoded natives left", after-before, decoded)
	}
	for !dec.Complete() {
		dec.Insert(enc.Next())
	}
	for x := range k {
		if !aliases(dec.NativeData(x), dst[x*m:]) || !bytes.Equal(dec.NativeData(x), natives[x]) {
			t.Fatalf("native %d is not its slot of dst, or differs", x)
		}
	}
	_, after := dec.Arena().FreeCounts()
	if !dec.Place(dst) {
		t.Fatal("a placed decoder refused its own buffer")
	}
	if _, again := dec.Arena().FreeCounts(); again != after {
		t.Fatalf("placing a placed decoder recycled %d of its slots", again-after)
	}
	for x := range k {
		if !aliases(dec.NativeData(x), dst[x*m:]) {
			t.Fatalf("native %d left its slot when placed again", x)
		}
	}

	// Placed in another buffer, the natives move there, and the slots they
	// leave are not the arena's: none reaches its free list.
	other := make([]byte, k*m)
	if !dec.Place(other) {
		t.Fatal("a second k·m-byte buffer was refused")
	}
	for x := range k {
		if !aliases(dec.NativeData(x), other[x*m:]) || !bytes.Equal(dec.NativeData(x), natives[x]) {
			t.Fatalf("native %d did not move into the second buffer", x)
		}
	}
	if _, moved := dec.Arena().FreeCounts(); moved != after {
		t.Fatalf("moving between buffers put %d rows on the free list, want none", moved-after)
	}

	// A decoder seeded with views of dst — a source's content — is placed
	// in it without handing any of it to the arena.
	arena := bitvec.NewArena(k, m)
	seeded, err := NewDecoderIn(arena, nil, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	for x := range k {
		seeded.InsertOwned(bitvec.Single(k, x), dst[x*m:(x+1)*m:(x+1)*m], -1)
	}
	if !seeded.Place(dst) {
		t.Fatal("the seeded decoder refused the buffer its natives view")
	}
	if _, rows := arena.FreeCounts(); rows != 0 {
		t.Fatalf("placing natives already in their slots put %d rows on the free list", rows)
	}
}

// checkPlace decodes a seeded stream of unit rows — received through
// RowFor once placed, so that an undecoded native's row is its slot —
// coded rows, duplicates of coded rows, and rows a random detector prunes
// (on arrival and as their degree drops), and places dst at two seeded
// steps: before, during or after decoding, or twice. After every step
// every decoded native is the true native, in its slot once placed, and no
// row on the arena's free list lies inside dst.
func checkPlace(t *testing.T, seed int64, k, m int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	enc, natives := newTestEncoder(t, k, m, seed)
	dec, err := NewDecoder(k, m, nil, Hooks{CheckRedundant: func(*bitvec.Vector) bool { return rng.Intn(4) == 0 }})
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, k*m)
	steps := 4*k + rng.Intn(4*k)
	placeAt := [2]int{rng.Intn(steps + 1), rng.Intn(steps + 1)}
	var sent []*packet.Packet
	placed := false
	for step := 0; ; step++ {
		if step == placeAt[0] || step == placeAt[1] {
			if !dec.Place(dst) {
				t.Fatalf("seed %d k %d m %d: Place refused a k·m-byte buffer", seed, k, m)
			}
			placed = true
		}
		if step == steps {
			break
		}
		switch r := rng.Intn(8); {
		case r < 3:
			x := rng.Intn(k)
			if placed {
				row := dec.RowFor(x)
				copy(row, natives[x])
				dec.InsertOwned(bitvec.Single(k, x), row, -1)
			} else {
				dec.Insert(packet.Native(k, x, natives[x]))
			}
		case r < 4 && len(sent) > 0:
			dec.Insert(sent[rng.Intn(len(sent))])
		default:
			p := enc.Next()
			sent = append(sent, p)
			dec.Insert(p)
		}
		for x := range k {
			if !dec.IsDecoded(x) {
				continue
			}
			got := dec.NativeData(x)
			if !bytes.Equal(got, natives[x]) || (placed && m > 0 && !aliases(got, dst[x*m:])) {
				t.Fatalf("seed %d k %d m %d step %d (placed %v): native %d differs or is not in its slot", seed, k, m, step, placed, x)
			}
		}
		arena := dec.Arena()
		_, n := arena.FreeCounts()
		free := make([][]byte, n)
		for i := range free {
			free[i] = arena.Row()
		}
		for i := n - 1; i >= 0; i-- {
			if inside(free[i], dst) {
				t.Fatalf("seed %d k %d m %d step %d: a slot of dst is on the arena's free list", seed, k, m, step)
			}
			arena.PutRow(free[i])
		}
	}
}

// TestDecoderPlace runs checkPlace over seeded geometries and streams.
func TestDecoderPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for seed := int64(1); seed <= 300; seed++ {
		checkPlace(t, seed, 1+rng.Intn(48), rng.Intn(24))
	}
}

// FuzzDecoderPlace is TestDecoderPlace with the fuzzer choosing the seed
// and the geometry.
func FuzzDecoderPlace(f *testing.F) {
	f.Add(int64(1), uint8(24), uint8(8))
	f.Add(int64(2), uint8(0), uint8(1))
	f.Add(int64(3), uint8(40), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, k, m uint8) {
		checkPlace(t, seed, 1+int(k)%48, int(m)%24)
	})
}
