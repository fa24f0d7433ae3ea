package packet

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// testRun is a run of n digests and depth siblings, of an object whose k
// puts it last at index 7 — a full one when n is runDigests — in gens
// generations; the digests, the siblings and the root are random.
func testRun(rng *rand.Rand, id ObjectID, n, depth int) ManifestChunk {
	mc := ManifestChunk{Object: id, K: uint32(7*runDigests + n), M: 16, Gens: 1, Run: 7,
		Digests: make([]byte, n*hashSize), Proof: make([]byte, depth*hashSize)}
	mc.Size = int64(mc.K)*int64(mc.M) - 3
	rng.Read(mc.Root[:])
	rng.Read(mc.Digests)
	rng.Read(mc.Proof)
	return mc
}

func TestManifestChunkRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	id := NewObjectID([]byte("manifest roundtrip"))
	for _, c := range []struct{ n, depth int }{{1, 0}, {17, 3}, {runDigests, MaxManifestDepth}} {
		want := testRun(rng, id, c.n, c.depth)
		body, err := AppendManifestChunk(nil, want)
		if err != nil {
			t.Fatal(err)
		}
		if len(body) != manifestChunkFixed+(c.n+c.depth)*hashSize {
			t.Fatalf("%d digests, %d siblings: %d bytes", c.n, c.depth, len(body))
		}
		mr, err := ParseManifestChunk(body)
		if err != nil {
			t.Fatal(err)
		}
		if !sameRun(mr, want) {
			t.Fatalf("%d digests, %d siblings: parsed %+v", c.n, c.depth, mr)
		}
	}
}

// sameRun reports whether two runs carry the same fields.
func sameRun(a, b ManifestChunk) bool {
	return a.Object == b.Object && a.K == b.K && a.M == b.M && a.Gens == b.Gens && a.Size == b.Size && a.Root == b.Root &&
		a.Run == b.Run && bytes.Equal(a.Digests, b.Digests) && bytes.Equal(a.Proof, b.Proof)
}

func TestManifestChunkParseErrors(t *testing.T) {
	id := NewObjectID([]byte("manifest errors"))
	// Run 1 of 2, the last: two digests, one sibling.
	good, err := AppendManifestChunk(nil, ManifestChunk{Object: id, K: runDigests + 2, M: 8, Size: 100, Gens: 1, Run: 1,
		Digests: make([]byte, 2*hashSize), Proof: make([]byte, hashSize)})
	if err != nil {
		t.Fatal(err)
	}
	mut := func(f func(d []byte)) []byte {
		d := append([]byte(nil), good...)
		f(d)
		return d
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"truncated fixed", good[:manifestChunkFixed-1]},
		{"no digests", good[:manifestChunkFixed]},
		{"truncated data", good[:len(good)-1]},
		{"trailing", append(append([]byte(nil), good...), 0)},
		{"zero total", mut(func(d []byte) { d[72], d[73] = 0, 0 })},       // a run of no digests
		{"huge total", mut(func(d []byte) { d[72], d[73] = 0x04, 0x01 })}, // 1,025 digests, past a run
		{"short run", mut(func(d []byte) { d[73] = 1 })},                  // one digest where k leaves two
		{"range past total", mut(func(d []byte) { d[74] = 2 })},           // two siblings declared, one sent
		{"too deep", mut(func(d []byte) { d[74] = MaxManifestDepth + 1 })},
		{"zero id", mut(func(d []byte) { clear(d[:16]) })},
		{"no natives", mut(func(d []byte) { clear(d[16:20]) })},
		{"no generations", mut(func(d []byte) { clear(d[32:36]) })},
		{"ragged generations", mut(func(d []byte) { d[35] = 4 })},            // 1,026 natives do not split in 4
		{"size past k·m", mut(func(d []byte) { d[30], d[31] = 0x20, 0x11 })}, // 8,209 bytes > 1,026·8
		{"negative size", mut(func(d []byte) { d[24] = 0x80 })},
		{"run past the last", mut(func(d []byte) { d[71] = 2 })},
		{"run past 2³²", mut(func(d []byte) { d[68], d[71] = 0xff, 0xff })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseManifestChunk(tc.data); !errors.Is(err, ErrBadManifestChunk) {
				t.Fatalf("got %v, want ErrBadManifestChunk", err)
			}
		})
	}
	if _, err := ParseManifestChunk(good); err != nil {
		t.Fatalf("good run rejected: %v", err)
	}
}

func TestAppendManifestChunkBounds(t *testing.T) {
	id := NewObjectID([]byte("append bounds"))
	for _, c := range []struct {
		name          string
		k             uint32
		digests, sibs int
	}{
		{"no digests", 1, 0, 0},
		{"ragged digests", 1, hashSize + 1, 0},
		{"oversized run", 2 * runDigests, MaxManifestChunk + hashSize, 0},
		{"ragged proof", 1, hashSize, 1},
		{"too deep", 1, hashSize, (MaxManifestDepth + 1) * hashSize},
		{"digests k does not imply", 2, hashSize, 0},
		{"no natives", 0, hashSize, 0},
	} {
		mc := ManifestChunk{Object: id, K: c.k, M: 1, Gens: 1, Digests: make([]byte, c.digests), Proof: make([]byte, c.sibs)}
		if _, err := AppendManifestChunk(nil, mc); !errors.Is(err, ErrBadManifestChunk) {
			t.Errorf("%s: got %v, want ErrBadManifestChunk", c.name, err)
		}
	}
}

// FuzzManifestRun hardens the MANIFEST body codec: no input panics, and
// every accepted body survives a round trip — its fields re-encode to the
// same bytes (the encoding is canonical) and parse back to the same fields.
func FuzzManifestRun(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	id := NewObjectID([]byte("fuzz manifest"))
	for _, c := range []struct{ n, depth int }{{1, 0}, {3, 2}, {4, MaxManifestDepth}} {
		body, err := AppendManifestChunk(nil, testRun(rng, id, c.n, c.depth))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
		f.Add(body[:len(body)-1])
	}
	// A description of no object: no generations, a ragged split, a size
	// past k·m; and a run past the last.
	body, _ := AppendManifestChunk(nil, testRun(rng, id, 2, 1))
	for _, mut := range []func(d []byte){
		func(d []byte) { clear(d[32:36]) },
		func(d []byte) { d[35] = 7 },
		func(d []byte) { d[24] = 0x7f },
		func(d []byte) { d[71]++ },
	} {
		d := bytes.Clone(body)
		mut(d)
		f.Add(d)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		mr, err := ParseManifestChunk(data)
		if err != nil {
			if !errors.Is(err, ErrBadManifestChunk) {
				t.Fatalf("error %v does not wrap ErrBadManifestChunk", err)
			}
			return
		}
		again, err := AppendManifestChunk(nil, mr)
		if err != nil {
			t.Fatalf("accepted body does not re-encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("non-canonical: %x re-encodes as %x", data, again)
		}
		back, err := ParseManifestChunk(again)
		if err != nil || !sameRun(back, mr) {
			t.Fatalf("round trip: %+v, %v; want %+v", back, err, mr)
		}
	})
}
