package lt

import (
	"bytes"
	"math/rand"
	"testing"

	"ltnc/internal/bitvec"
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

// TestMoveNatives: a complete decoder's natives move into their slots of
// dst, the rows they leave go back to the arena, a second move changes
// nothing, an incomplete decoder moves nothing, and natives seeded as views
// of dst are neither copied nor recycled.
func TestMoveNatives(t *testing.T) {
	const k, m = 24, 8
	enc, natives := newTestEncoder(t, k, m, 9)
	dec, err := NewDecoder(k, m, nil, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, k*m)
	for !dec.Complete() {
		if dec.MoveNatives(dst) {
			t.Fatal("an incomplete decoder moved its natives")
		}
		dec.Insert(enc.Next())
	}
	if dec.MoveNatives(dst[:k*m-1]) {
		t.Fatal("moved into a buffer that is not k·m bytes")
	}
	_, before := dec.Arena().FreeCounts()
	if !dec.MoveNatives(dst) {
		t.Fatal("a complete decoder did not move")
	}
	_, after := dec.Arena().FreeCounts()
	if after != before+k {
		t.Fatalf("the arena got %d rows back from the move, want %d", after-before, k)
	}
	for x := range k {
		if !aliases(dec.NativeData(x), dst[x*m:]) || !bytes.Equal(dec.NativeData(x), natives[x]) {
			t.Fatalf("native %d is not its slot of dst after the move, or differs", x)
		}
	}
	if !dec.MoveNatives(dst) {
		t.Fatal("a moved decoder no longer sits in dst")
	}
	if _, again := dec.Arena().FreeCounts(); again != after {
		t.Fatalf("moving a moved decoder recycled %d of its slots", again-after)
	}

	// A decoder seeded with views of dst — a source's content — moves into it
	// without handing any of it to the arena.
	arena := bitvec.NewArena(k, m)
	seeded, err := NewDecoderIn(arena, nil, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	for x := range k {
		seeded.InsertOwned(bitvec.Single(k, x), dst[x*m:(x+1)*m:(x+1)*m])
	}
	if !seeded.MoveNatives(dst) {
		t.Fatal("the seeded decoder did not report its natives in place")
	}
	if _, rows := arena.FreeCounts(); rows != 0 {
		t.Fatalf("moving natives already in their slots put %d rows on the free list", rows)
	}
}
