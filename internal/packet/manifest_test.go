package packet

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

func TestManifestChunkRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	id := NewObjectID([]byte("manifest roundtrip"))
	for _, c := range []struct{ n, depth int }{{1, 0}, {17, 3}, {MaxManifestChunk / hashSize, MaxManifestDepth}} {
		digests, proof := make([]byte, c.n*hashSize), make([]byte, c.depth*hashSize)
		rng.Read(digests)
		rng.Read(proof)
		body, err := AppendManifestChunk(nil, id, 7, digests, proof)
		if err != nil {
			t.Fatal(err)
		}
		mr, err := ParseManifestChunk(body)
		if err != nil {
			t.Fatal(err)
		}
		if mr.Object != id || mr.Run != 7 || !bytes.Equal(mr.Digests, digests) || !bytes.Equal(mr.Proof, proof) {
			t.Fatalf("%d digests, %d siblings: parsed %+v", c.n, c.depth, mr)
		}
	}
}

func TestManifestChunkParseErrors(t *testing.T) {
	id := NewObjectID([]byte("manifest errors"))
	good, err := AppendManifestChunk(nil, id, 1, make([]byte, 2*hashSize), make([]byte, hashSize))
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
		{"zero total", mut(func(d []byte) { d[20], d[21] = 0, 0 })},       // a run of no digests
		{"huge total", mut(func(d []byte) { d[20], d[21] = 0x04, 0x01 })}, // 1,025 digests, past a run
		{"range past total", mut(func(d []byte) { d[22] = 2 })},           // two siblings declared, one sent
		{"too deep", mut(func(d []byte) { d[22] = MaxManifestDepth + 1 })},
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
		digests, sibs int
	}{
		{"no digests", 0, 0},
		{"ragged digests", hashSize + 1, 0},
		{"oversized run", MaxManifestChunk + hashSize, 0},
		{"ragged proof", hashSize, 1},
		{"too deep", hashSize, (MaxManifestDepth + 1) * hashSize},
	} {
		if _, err := AppendManifestChunk(nil, id, 0, make([]byte, c.digests), make([]byte, c.sibs)); !errors.Is(err, ErrBadManifestChunk) {
			t.Errorf("%s: got %v, want ErrBadManifestChunk", c.name, err)
		}
	}
}

// FuzzManifestRun hardens the MANIFEST body codec: no input panics, and
// every accepted body survives a round trip — its fields re-encode to the
// same bytes (the encoding is canonical) and parse back to the same fields.
func FuzzManifestRun(f *testing.F) {
	id := NewObjectID([]byte("fuzz manifest"))
	for _, c := range []struct{ n, depth int }{{1, 0}, {3, 2}, {4, MaxManifestDepth}} {
		body, err := AppendManifestChunk(nil, id, uint32(c.n), bytes.Repeat([]byte{0xd1}, c.n*hashSize), bytes.Repeat([]byte{0x5b}, c.depth*hashSize))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
		f.Add(body[:len(body)-1])
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
		again, err := AppendManifestChunk(nil, mr.Object, mr.Run, mr.Digests, mr.Proof)
		if err != nil {
			t.Fatalf("accepted body does not re-encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("non-canonical: %x re-encodes as %x", data, again)
		}
		back, err := ParseManifestChunk(again)
		if err != nil || back.Object != mr.Object || back.Run != mr.Run ||
			!bytes.Equal(back.Digests, mr.Digests) || !bytes.Equal(back.Proof, mr.Proof) {
			t.Fatalf("round trip: %+v, %v; want %+v", back, err, mr)
		}
	})
}
