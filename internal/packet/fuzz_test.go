package packet

import (
	"bytes"
	"encoding/binary"
	"testing"

	"ltnc/internal/bitvec"
)

// FuzzUnmarshal hardens the wire decoder against malformed input: it must
// never panic, and every accepted packet must re-encode to the same bytes
// (canonical encoding).
func FuzzUnmarshal(f *testing.F) {
	// Seed corpus: valid packets of assorted shapes plus mutations.
	seeds := []*Packet{
		Native(8, 3, []byte{1, 2, 3}),
		Native(64, 0, nil),
		New(2048, 0),
	}
	big := New(333, 17)
	for i := 0; i < 333; i += 7 {
		big.Vec.Set(i)
	}
	seeds = append(seeds, big)
	tagged := Native(16, 2, []byte{9, 9})
	tagged.Object = NewObjectID([]byte("fuzz"))
	seeds = append(seeds, tagged)
	gen := Native(32, 5, []byte{7, 7, 7})
	gen.Object = NewObjectID([]byte("fuzz gen"))
	gen.Generation = 3
	gen.Generations = 8
	seeds = append(seeds, gen)
	// Stamped rows: a stamp is byte 3 and must survive the round trip.
	stamped := gen.Clone()
	stamped.Stamp = SeqStamp(300)
	seeds = append(seeds, stamped)
	for _, p := range seeds {
		data, err := Marshal(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte{'L', 'T', 1, 0, 0, 0, 0, 0})
	// v2 content-ID edge cases: truncated inside the object ID, a zero ID
	// (must be rejected — zero means "no object" and is v1-only), and a v2
	// header whose announced sizes overflow the actual frame.
	v2, err := Marshal(tagged)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v2[:headerFixed+3])            // cut mid-object-ID
	f.Add(v2[:headerFixed+objectIDSize]) // object ID present, vector missing
	zeroID := append([]byte(nil), v2...)
	for i := 0; i < objectIDSize; i++ {
		zeroID[headerFixed+i] = 0
	}
	f.Add(zeroID)
	oversized := append([]byte(nil), v2...)
	oversized[8], oversized[9] = 0xff, 0xff // k beyond the frame
	f.Add(oversized)
	// v3 generation-field edge cases: the generation id and count live at
	// fixed offsets ([4:8] and [16:20]), so mutations target them exactly —
	// id ≥ count (must be rejected), count 0 and 1 (gen-absent values are
	// v1/v2-only, a v3 frame carrying them is non-canonical), a count over
	// the sanity bound, and a v3 header truncated inside the count.
	v3, err := Marshal(gen)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v3)
	genTooBig := append([]byte(nil), v3...)
	genTooBig[7] = 0xff // generation id 255 ≥ G=8
	f.Add(genTooBig)
	for _, count := range []uint32{0, 1, 1 << 21} {
		mut := append([]byte(nil), v3...)
		binary.BigEndian.PutUint32(mut[headerFixed:], count)
		f.Add(mut)
	}
	f.Add(v3[:headerFixed+2]) // cut mid-generation-count

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Unmarshal(data)
		if err != nil {
			return // rejection is fine; panics are not
		}
		if p.Generations >= 2 && p.Generation >= p.Generations {
			t.Fatalf("accepted generation %d of %d", p.Generation, p.Generations)
		}
		out, err := Marshal(p)
		if err != nil {
			t.Fatalf("accepted packet failed to re-marshal: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("non-canonical encoding: %d in, %d out", len(data), len(out))
		}
	})
}

// FuzzParseWire cross-checks the zero-copy wire parser against the
// io.Reader decoder: both must accept exactly the same frames, and on
// acceptance the views must describe the same packet.
func FuzzParseWire(f *testing.F) {
	tagged := Native(32, 4, []byte{1, 2, 3, 4})
	tagged.Object = NewObjectID([]byte("wire"))
	gen := Native(16, 1, []byte{5})
	gen.Object = NewObjectID([]byte("wire gen"))
	gen.Generation = 1
	gen.Generations = 4
	for _, p := range []*Packet{Native(8, 3, []byte{1, 2, 3}), tagged, gen, New(300, 0)} {
		data, err := Marshal(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)-1])
		Restamp(data, SeqStamp(127)) // stamped DATA parses as unstamped does
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		wv, errView := ParseWire(data)
		p, errRead := Unmarshal(data)
		if (errView == nil) != (errRead == nil) {
			t.Fatalf("parser disagreement: ParseWire err=%v, Unmarshal err=%v", errView, errRead)
		}
		if errView != nil {
			return
		}
		if wv.K != p.K() || wv.M != len(p.Payload) || wv.Object != p.Object ||
			wv.Generation != p.Generation || wv.Generations != p.Generations || wv.Stamp != p.Stamp {
			t.Fatalf("views disagree: %+v vs %v", wv, p)
		}
		vec := bitvec.New(wv.K)
		if err := vec.UnmarshalInto(wv.VecBytes(data)); err != nil {
			t.Fatalf("accepted vector bytes do not unmarshal: %v", err)
		}
		if !vec.Equal(p.Vec) {
			t.Fatal("code vectors disagree between parsers")
		}
		if wv.M > 0 && !bytes.Equal(wv.PayloadBytes(data), p.Payload) {
			t.Fatal("payloads disagree between parsers")
		}
	})
}

// FuzzReadHeader checks the streaming header parser on arbitrary prefixes.
func FuzzReadHeader(f *testing.F) {
	data, err := Marshal(Native(128, 9, make([]byte, 32)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(data[:10])
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := ReadHeader(bytes.NewReader(data))
		if err != nil {
			return
		}
		if h.K < 1 || h.M < 0 || h.Vec == nil || h.Vec.Len() != h.K {
			t.Fatalf("accepted inconsistent header %+v", h)
		}
	})
}
