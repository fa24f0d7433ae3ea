package packet

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
	"testing/quick"

	"ltnc/internal/bitvec"
	"ltnc/internal/opcount"
)

func TestNativePacket(t *testing.T) {
	data := []byte{1, 2, 3, 4}
	p := Native(16, 5, data)
	if p.Degree() != 1 {
		t.Errorf("Degree = %d", p.Degree())
	}
	idx, ok := p.NativeIndex()
	if !ok || idx != 5 {
		t.Errorf("NativeIndex = %d,%v", idx, ok)
	}
	data[0] = 99
	if p.Payload[0] != 1 {
		t.Error("Native did not copy payload")
	}
}

// TestStampRoundTrip: byte 3 carries the stamp through both codecs and
// Restamp, the seven bits under StampFlag are the sequence modulo 128, and
// the stamp is not part of what a packet is (Equal).
func TestStampRoundTrip(t *testing.T) {
	for seq, want := range map[uint64]byte{1: 0x81, 127: 0xFF, 128: 0x80, 300: 0x80 | 300%128} {
		if got := SeqStamp(seq); got != want {
			t.Errorf("SeqStamp(%d) = %#x, want %#x", seq, got, want)
		}
	}
	p := Native(16, 3, []byte{1, 2})
	p.Object, p.Stamp = NewObjectID([]byte("stamp")), SeqStamp(5)
	wire, err := Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	wv, err := ParseWire(wire)
	if err != nil || wv.Stamp != p.Stamp {
		t.Fatalf("ParseWire: stamp %#x, %v; want %#x", wv.Stamp, err, p.Stamp)
	}
	q, err := Unmarshal(wire)
	if err != nil || q.Stamp != p.Stamp || !q.Equal(p) {
		t.Fatalf("Unmarshal: stamp %#x, equal %v, %v", q.Stamp, q.Equal(p), err)
	}
	Restamp(wire, 0)
	if wv, _ := ParseWire(wire); wv.Stamp != 0 {
		t.Errorf("restamped to 0, parses as %#x", wv.Stamp)
	}
	if q.Stamp = 0; !q.Equal(p) {
		t.Error("packets differing only in their stamps compare unequal")
	}
}

func TestNativeIndexNonNative(t *testing.T) {
	p := New(8, 0)
	if _, ok := p.NativeIndex(); ok {
		t.Error("zero packet reported a native index")
	}
	p.Vec.Set(1)
	p.Vec.Set(2)
	if _, ok := p.NativeIndex(); ok {
		t.Error("degree-2 packet reported a native index")
	}
}

func TestXorCombinesVectorAndPayload(t *testing.T) {
	a := Native(8, 1, []byte{0xF0, 0x0F})
	b := Native(8, 3, []byte{0xFF, 0x00})
	var c opcount.Counter
	a.Xor(b, &c, opcount.RecodeControl, opcount.RecodeData)
	if a.Degree() != 2 || !a.Vec.Get(1) || !a.Vec.Get(3) {
		t.Errorf("vector after xor: %v", a.Vec)
	}
	if a.Payload[0] != 0x0F || a.Payload[1] != 0x0F {
		t.Errorf("payload after xor: %v", a.Payload)
	}
	if c.Total(opcount.RecodeControl) == 0 {
		t.Error("control cost not recorded")
	}
	if got := c.Total(opcount.RecodeData); got != 2 {
		t.Errorf("data cost = %d, want 2", got)
	}
}

func TestXorNilCounter(t *testing.T) {
	a := Native(8, 1, []byte{1})
	b := Native(8, 2, []byte{2})
	a.Xor(b, nil, opcount.RecodeControl, opcount.RecodeData) // must not panic
	if a.Payload[0] != 3 {
		t.Errorf("payload = %v", a.Payload)
	}
}

func TestXorControlOnlyPackets(t *testing.T) {
	// m = 0 packets (control-plane simulation) must XOR without panicking.
	a := New(8, 0)
	a.Vec.Set(0)
	b := New(8, 0)
	b.Vec.Set(1)
	a.Xor(b, nil, opcount.RecodeControl, opcount.RecodeData)
	if a.Degree() != 2 {
		t.Errorf("Degree = %d", a.Degree())
	}
}

func TestCloneIndependence(t *testing.T) {
	p := Native(8, 2, []byte{5})
	p.Generation = 7
	q := p.Clone()
	if !q.Equal(p) {
		t.Fatal("clone not equal")
	}
	q.Vec.Set(3)
	q.Payload[0] = 9
	if p.Vec.Get(3) || p.Payload[0] != 5 {
		t.Error("clone shares state with original")
	}
}

func TestEqual(t *testing.T) {
	a := Native(8, 1, []byte{1, 2})
	tests := []struct {
		name string
		make func() *Packet
		want bool
	}{
		{"same", func() *Packet { return Native(8, 1, []byte{1, 2}) }, true},
		{"different vec", func() *Packet { return Native(8, 2, []byte{1, 2}) }, false},
		{"different payload", func() *Packet { return Native(8, 1, []byte{1, 3}) }, false},
		{"different length", func() *Packet { return Native(8, 1, []byte{1}) }, false},
		{"different generation", func() *Packet {
			p := Native(8, 1, []byte{1, 2})
			p.Generation = 1
			return p
		}, false},
	}
	for _, tt := range tests {
		if got := a.Equal(tt.make()); got != tt.want {
			t.Errorf("%s: Equal = %v, want %v", tt.name, got, tt.want)
		}
	}
}

func TestWireRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, k := range []int{1, 7, 8, 64, 65, 2048} {
		for _, m := range []int{0, 1, 16, 300} {
			p := New(k, m)
			for i := 0; i < k; i++ {
				if rng.Intn(3) == 0 {
					p.Vec.Set(i)
				}
			}
			rng.Read(p.Payload)
			p.Generation = uint32(rng.Intn(100))

			data, err := Marshal(p)
			if err != nil {
				t.Fatalf("k=%d m=%d: marshal: %v", k, m, err)
			}
			if len(data) != WireSize(k, m) {
				t.Fatalf("k=%d m=%d: wire size %d, want %d", k, m, len(data), WireSize(k, m))
			}
			q, err := Unmarshal(data)
			if err != nil {
				t.Fatalf("k=%d m=%d: unmarshal: %v", k, m, err)
			}
			if !q.Equal(p) {
				t.Fatalf("k=%d m=%d: roundtrip mismatch", k, m)
			}
		}
	}
}

func TestWireRoundtripQuick(t *testing.T) {
	prop := func(seed int64, kRaw, mRaw uint16, gen uint32) bool {
		k := int(kRaw%512) + 1
		m := int(mRaw % 128)
		rng := rand.New(rand.NewSource(seed))
		p := New(k, m)
		for i := 0; i < k; i++ {
			if rng.Intn(2) == 0 {
				p.Vec.Set(i)
			}
		}
		rng.Read(p.Payload)
		p.Generation = gen
		data, err := Marshal(p)
		if err != nil {
			return false
		}
		q, err := Unmarshal(data)
		return err == nil && q.Equal(p)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestHeaderOnlyRead(t *testing.T) {
	// A receiver must be able to inspect the header and stop without
	// consuming the payload — the binary feedback channel.
	p := Native(64, 9, bytes.Repeat([]byte{0xAB}, 32))
	var buf bytes.Buffer
	if err := Write(&buf, p); err != nil {
		t.Fatal(err)
	}
	h, err := ReadHeader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.K != 64 || h.M != 32 || h.Degree() != 1 || !h.Vec.Get(9) {
		t.Errorf("header = %+v", h)
	}
	if buf.Len() != 32 {
		t.Errorf("payload bytes remaining = %d, want 32", buf.Len())
	}
	// And resume reading if accepted.
	q, err := ReadPayload(&buf, h)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Equal(p) {
		t.Error("resumed packet differs")
	}
}

func TestReadHeaderErrors(t *testing.T) {
	good, err := Marshal(Native(8, 0, []byte{1}))
	if err != nil {
		t.Fatal(err)
	}

	corrupt := func(mutate func([]byte)) []byte {
		c := append([]byte(nil), good...)
		mutate(c)
		return c
	}
	tests := []struct {
		name string
		data []byte
		want error
	}{
		{"bad magic", corrupt(func(b []byte) { b[0] = 'X' }), ErrBadMagic},
		{"bad version", corrupt(func(b []byte) { b[2] = 0xFF }), ErrBadVersion},
		{"zero k", corrupt(func(b []byte) { b[8], b[9], b[10], b[11] = 0, 0, 0, 0 }), ErrCorrupt},
		{"truncated", good[:3], io.ErrUnexpectedEOF},
		{"empty", nil, io.EOF},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := ReadHeader(bytes.NewReader(tt.data))
			if !errors.Is(err, tt.want) {
				t.Errorf("error = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestUnmarshalTrailingGarbage(t *testing.T) {
	data, err := Marshal(Native(8, 0, nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(append(data, 0xEE)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("error = %v, want ErrCorrupt", err)
	}
}

func TestTruncatedPayload(t *testing.T) {
	p := Native(8, 0, []byte{1, 2, 3, 4})
	data, err := Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Read(bytes.NewReader(data[:len(data)-2])); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("error = %v, want unexpected EOF", err)
	}
}

func TestHeaderSize(t *testing.T) {
	if got := HeaderSize(2048); got != 16+256 {
		t.Errorf("HeaderSize(2048) = %d", got)
	}
	if got := WireSize(8, 100); got != 16+1+100 {
		t.Errorf("WireSize(8,100) = %d", got)
	}
}

func TestString(t *testing.T) {
	p := Native(8, 3, []byte{1, 2})
	if got := p.String(); got != "{3}/8+2B" {
		t.Errorf("String = %q", got)
	}
}

func TestXorIsLinearOverPayloads(t *testing.T) {
	// Property: for packets built from native ground truth, the payload of
	// any XOR combination equals the XOR of the natives in its vector.
	const (
		k = 32
		m = 16
	)
	rng := rand.New(rand.NewSource(77))
	natives := make([][]byte, k)
	for i := range natives {
		natives[i] = make([]byte, m)
		rng.Read(natives[i])
	}
	check := func(p *Packet) bool {
		want := make([]byte, m)
		for _, i := range p.Vec.Indices() {
			bitvec.XorBytes(want, natives[i])
		}
		return bytes.Equal(want, p.Payload)
	}
	a := Native(k, 3, natives[3])
	b := Native(k, 7, natives[7])
	c := Native(k, 3, natives[3]) // collides with a
	a.Xor(b, nil, opcount.RecodeControl, opcount.RecodeData)
	if !check(a) {
		t.Error("a⊕b payload inconsistent")
	}
	a.Xor(c, nil, opcount.RecodeControl, opcount.RecodeData)
	if a.Degree() != 1 {
		t.Errorf("collision degree = %d, want 1", a.Degree())
	}
	if !check(a) {
		t.Error("collision payload inconsistent")
	}
}
