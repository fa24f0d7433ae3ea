package bitvec

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// appendBytewise and unmarshalBytewise are the codec one byte at a time:
// the reference the word-wise AppendBinary and UnmarshalInto must match.
func appendBytewise(v *Vector, dst []byte) []byte {
	for i := 0; i < (v.n+7)/8; i++ {
		dst = append(dst, byte(v.words[i/8]>>(uint(i)%8*8)))
	}
	return dst
}

func unmarshalBytewise(v *Vector, data []byte) error {
	if len(data) != (v.n+7)/8 {
		return ErrLengthMismatch
	}
	if r := v.n % 8; r != 0 && data[len(data)-1]>>r != 0 {
		return ErrLengthMismatch
	}
	v.Reset()
	for i, b := range data {
		v.words[i/8] |= uint64(b) << (uint(i) % 8 * 8)
	}
	return nil
}

// FuzzVectorCodec checks the word-wise codec against the byte-wise
// reference for n in [1, 4096]: the same verdict on every body (a wrong
// length, stray bits past n in the last byte), the same bits on every body
// both accept, and an encoding that round-trips byte for byte. A body
// built to n's length is padded from data; exact=false keeps data as it is.
func FuzzVectorCodec(f *testing.F) {
	for _, n := range []uint16{1, 7, 8, 9, 63, 64, 65, 127, 1000, 1023, 1024, 4095, 4096} {
		f.Add(n, []byte{0xff, 0x5a, 0x01}, true)
		f.Add(n, bytes.Repeat([]byte{0xa5}, int(n+7)/8), true)
	}
	f.Add(uint16(12), []byte{0xff, 0x0f}, true) // 4 bits past n=12: rejected
	f.Add(uint16(12), []byte{0xff, 0x0f}, false)
	f.Add(uint16(64), []byte{1, 2, 3}, false) // short body
	f.Fuzz(func(t *testing.T, n16 uint16, data []byte, exact bool) {
		n := 1 + (int(n16)+4095)%4096 // 1..4096 map to themselves
		body := data
		if exact {
			body = make([]byte, (n+7)/8)
			for i := range body {
				if i < len(data) {
					body[i] = data[i]
				} else if len(data) > 0 {
					body[i] = data[i%len(data)] ^ byte(i)
				}
			}
		}
		got, want := New(n), New(n)
		got.Set(n - 1) // stale bits the decode must overwrite
		errGot, errWant := got.UnmarshalInto(body), unmarshalBytewise(want, body)
		if (errGot == nil) != (errWant == nil) {
			t.Fatalf("n=%d len=%d: word-wise says %v, byte-wise %v", n, len(body), errGot, errWant)
		}
		if errGot != nil {
			if !errors.Is(errGot, ErrLengthMismatch) {
				t.Fatalf("n=%d: error %v does not wrap ErrLengthMismatch", n, errGot)
			}
			return
		}
		if !got.Equal(want) {
			t.Fatalf("n=%d: decoded %v, byte-wise %v", n, got, want)
		}
		enc := got.AppendBinary([]byte{0xee})
		if ref := appendBytewise(want, []byte{0xee}); !bytes.Equal(enc, ref) {
			t.Fatalf("n=%d: appended %x, byte-wise %x", n, enc, ref)
		}
		if !bytes.Equal(enc[1:], body) {
			t.Fatalf("n=%d: re-encoded %x, body was %x", n, enc[1:], body)
		}
	})
}

// TestVectorCodecStrayBits pins the rejection at every bit past n in the
// last byte, and the acceptance of the last bit in range, for each
// n mod 8 over a word boundary.
func TestVectorCodecStrayBits(t *testing.T) {
	for _, n := range []int{57, 61, 63, 65, 71, 1023} {
		v := New(n)
		body := make([]byte, (n+7)/8)
		r := uint(n % 8)
		body[len(body)-1] = 1<<r - 1
		if err := v.UnmarshalInto(body); err != nil || !v.Get(n-1) {
			t.Fatalf("n=%d: last bit in range: err %v, set %v", n, err, v.Get(n-1))
		}
		for b := r; b < 8; b++ {
			body[len(body)-1] = 1 << b
			if err := v.UnmarshalInto(body); !errors.Is(err, ErrLengthMismatch) {
				t.Fatalf("n=%d: stray bit %d accepted (err %v)", n, b, err)
			}
		}
	}
}

// BenchmarkVectorCodec1024 times one encode and one decode of a 1,024-bit
// code vector: the header of every DATA frame at k = 1,024.
func BenchmarkVectorCodec1024(b *testing.B) {
	v := randomVec(rand.New(rand.NewSource(1)), 1024)
	buf := v.AppendBinary(nil)
	b.Run("append", func(b *testing.B) {
		dst := make([]byte, 0, len(buf))
		for b.Loop() {
			dst = v.AppendBinary(dst[:0])
		}
	})
	b.Run("unmarshal", func(b *testing.B) {
		w := New(1024)
		for b.Loop() {
			if err := w.UnmarshalInto(buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}
