// Package bitvec implements fixed-length bit vectors over GF(2).
//
// A Vector represents the code vector of an encoded packet: bit i is set
// iff native packet i participates in the linear combination. All linear
// algebra in LT network codes happens over GF(2), so addition of code
// vectors is XOR and the degree of a packet is the population count of its
// vector.
package bitvec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Vector is a fixed-length bit vector over GF(2). The zero value is not
// usable; construct vectors with New or Parse. Vectors of different lengths
// must not be mixed: operations combining two vectors panic if the lengths
// differ, because mixing lengths is always a programming error, never a
// runtime condition.
type Vector struct {
	n     int
	words []uint64
}

// ErrLengthMismatch is returned by fallible operations (e.g. UnmarshalInto)
// when the vector lengths disagree.
var ErrLengthMismatch = errors.New("bitvec: vector length mismatch")

// New returns an all-zero vector of n bits.
func New(n int) *Vector {
	if n < 0 {
		panic("bitvec: negative length")
	}
	return &Vector{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// Single returns a vector of n bits with only bit i set.
func Single(n, i int) *Vector {
	v := New(n)
	v.Set(i)
	return v
}

// FromIndices returns a vector of n bits with exactly the given bits set.
func FromIndices(n int, indices ...int) *Vector {
	v := New(n)
	for _, i := range indices {
		v.Set(i)
	}
	return v
}

// Len returns the number of bits in the vector.
func (v *Vector) Len() int { return v.n }

// Set sets bit i to 1.
func (v *Vector) Set(i int) {
	v.check(i)
	v.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Clear sets bit i to 0.
func (v *Vector) Clear(i int) {
	v.check(i)
	v.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Flip toggles bit i.
func (v *Vector) Flip(i int) {
	v.check(i)
	v.words[i/wordBits] ^= 1 << (uint(i) % wordBits)
}

// Get reports whether bit i is set.
func (v *Vector) Get(i int) bool {
	v.check(i)
	return v.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// PopCount returns the number of set bits (the degree of the code vector).
func (v *Vector) PopCount() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// IsZero reports whether no bit is set.
func (v *Vector) IsZero() bool {
	for _, w := range v.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Xor sets v = v XOR o and returns v. The inner loop is unrolled four
// words at a time: decode elimination XORs vectors millions of times and
// the unrolled form lets the compiler keep the words in registers.
func (v *Vector) Xor(o *Vector) *Vector {
	v.checkSameLen(o)
	xorWords(v.words, o.words)
	return v
}

// xorWords sets dst ^= src word-wise, four words per iteration.
func xorWords(dst, src []uint64) {
	n := len(dst)
	src = src[:n] // eliminate bounds checks below
	i := 0
	for ; i+4 <= n; i += 4 {
		dst[i] ^= src[i]
		dst[i+1] ^= src[i+1]
		dst[i+2] ^= src[i+2]
		dst[i+3] ^= src[i+3]
	}
	for ; i < n; i++ {
		dst[i] ^= src[i]
	}
}

// XorCount sets v = v XOR o and returns the population count of the result.
// It is equivalent to v.Xor(o).PopCount() but makes a single pass.
func (v *Vector) XorCount(o *Vector) int {
	v.checkSameLen(o)
	n := len(v.words)
	src := o.words[:n]
	c := 0
	i := 0
	for ; i+4 <= n; i += 4 {
		w0 := v.words[i] ^ src[i]
		w1 := v.words[i+1] ^ src[i+1]
		w2 := v.words[i+2] ^ src[i+2]
		w3 := v.words[i+3] ^ src[i+3]
		v.words[i], v.words[i+1], v.words[i+2], v.words[i+3] = w0, w1, w2, w3
		c += bits.OnesCount64(w0) + bits.OnesCount64(w1) +
			bits.OnesCount64(w2) + bits.OnesCount64(w3)
	}
	for ; i < n; i++ {
		v.words[i] ^= src[i]
		c += bits.OnesCount64(v.words[i])
	}
	return c
}

// XorPopCount returns the population count of v XOR o without modifying
// either vector. This is the degree the combination would have, used by the
// greedy building step to test candidate packets.
func (v *Vector) XorPopCount(o *Vector) int {
	v.checkSameLen(o)
	n := len(v.words)
	src := o.words[:n]
	c := 0
	i := 0
	for ; i+4 <= n; i += 4 {
		c += bits.OnesCount64(v.words[i]^src[i]) +
			bits.OnesCount64(v.words[i+1]^src[i+1]) +
			bits.OnesCount64(v.words[i+2]^src[i+2]) +
			bits.OnesCount64(v.words[i+3]^src[i+3])
	}
	for ; i < n; i++ {
		c += bits.OnesCount64(v.words[i] ^ src[i])
	}
	return c
}

// AndNotCount returns the number of bits set in o but not in v, without
// modifying either vector (|o \ v|).
func (v *Vector) AndNotCount(o *Vector) int {
	v.checkSameLen(o)
	c := 0
	for i, w := range o.words {
		c += bits.OnesCount64(w &^ v.words[i])
	}
	return c
}

// Or sets v = v OR o and returns v.
func (v *Vector) Or(o *Vector) *Vector {
	v.checkSameLen(o)
	for i, w := range o.words {
		v.words[i] |= w
	}
	return v
}

// OrCount sets v = v OR o and returns the number of newly set bits.
func (v *Vector) OrCount(o *Vector) int {
	v.checkSameLen(o)
	c := 0
	for i, w := range o.words {
		nw := v.words[i] | w
		c += bits.OnesCount64(nw ^ v.words[i])
		v.words[i] = nw
	}
	return c
}

// Equal reports whether v and o have the same length and bits.
func (v *Vector) Equal(o *Vector) bool {
	if v.n != o.n {
		return false
	}
	for i, w := range o.words {
		if v.words[i] != w {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of v.
func (v *Vector) Clone() *Vector {
	c := &Vector{n: v.n, words: make([]uint64, len(v.words))}
	copy(c.words, v.words)
	return c
}

// CopyFrom overwrites v with the bits of o. Lengths must match.
func (v *Vector) CopyFrom(o *Vector) {
	v.checkSameLen(o)
	copy(v.words, o.words)
}

// Reset clears every bit.
func (v *Vector) Reset() {
	for i := range v.words {
		v.words[i] = 0
	}
}

// LowestSet returns the index of the lowest set bit, or -1 if the vector is
// zero.
func (v *Vector) LowestSet() int {
	for i, w := range v.words {
		if w != 0 {
			return i*wordBits + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// NextSet returns the index of the first set bit at or after position i, or
// -1 if there is none.
func (v *Vector) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= v.n {
		return -1
	}
	wi := i / wordBits
	w := v.words[wi] >> (uint(i) % wordBits)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(v.words); wi++ {
		if v.words[wi] != 0 {
			return wi*wordBits + bits.TrailingZeros64(v.words[wi])
		}
	}
	return -1
}

// Indices returns the indices of all set bits in increasing order.
func (v *Vector) Indices() []int {
	out := make([]int, 0, 8)
	for i := v.LowestSet(); i >= 0; i = v.NextSet(i + 1) {
		out = append(out, i)
	}
	return out
}

// AppendIndices appends the indices of all set bits to dst and returns it.
// It allows callers on hot paths to reuse a scratch slice.
func (v *Vector) AppendIndices(dst []int) []int {
	for i := v.LowestSet(); i >= 0; i = v.NextSet(i + 1) {
		dst = append(dst, i)
	}
	return dst
}

// Words exposes the backing words for read-only use (serialization, Gauss
// elimination inner loops). Callers must not retain or mutate the slice.
func (v *Vector) Words() []uint64 { return v.words }

// MarshalBinary encodes the vector body as little-endian words packed into
// ceil(n/8) bytes. The length n is not included; it is carried by the
// packet header (see internal/packet).
func (v *Vector) MarshalBinary() ([]byte, error) {
	return v.AppendBinary(make([]byte, 0, (v.n+7)/8)), nil
}

// AppendBinary appends the MarshalBinary encoding to dst and returns it,
// letting hot-path serializers reuse one buffer across packets.
func (v *Vector) AppendBinary(dst []byte) []byte {
	nb := (v.n + 7) / 8
	full := nb / 8
	for _, w := range v.words[:full] {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	if tail := nb - full*8; tail > 0 {
		var last [8]byte
		binary.LittleEndian.PutUint64(last[:], v.words[full])
		dst = append(dst, last[:tail]...)
	}
	return dst
}

// UnmarshalInto fills v from data produced by MarshalBinary for a vector of
// the same length. Encodings with stray bits beyond n in the final byte
// are rejected: MarshalBinary never emits them, and accepting them would
// let a corrupt wire header set bits past the code length and index out
// of the decoder's native arrays.
func (v *Vector) UnmarshalInto(data []byte) error {
	if len(data) != (v.n+7)/8 {
		return fmt.Errorf("bitvec: body is %d bytes, want %d: %w", len(data), (v.n+7)/8, ErrLengthMismatch)
	}
	if r := v.n % 8; r != 0 && data[len(data)-1]>>r != 0 {
		return fmt.Errorf("bitvec: stray bits beyond length %d: %w", v.n, ErrLengthMismatch)
	}
	full := len(data) / 8
	for i := range full {
		v.words[i] = binary.LittleEndian.Uint64(data[i*8:])
	}
	if tail := data[full*8:]; len(tail) > 0 {
		var last [8]byte
		copy(last[:], tail)
		v.words[full] = binary.LittleEndian.Uint64(last[:])
	}
	return nil
}

// String renders the vector as a compact support set, e.g. "{1,3,7}/16".
func (v *Vector) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	first := true
	for i := v.LowestSet(); i >= 0; i = v.NextSet(i + 1) {
		if !first {
			sb.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&sb, "%d", i)
	}
	fmt.Fprintf(&sb, "}/%d", v.n)
	return sb.String()
}

func (v *Vector) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
}

func (v *Vector) checkSameLen(o *Vector) {
	if v.n != o.n {
		panic(fmt.Sprintf("bitvec: length mismatch %d vs %d", v.n, o.n))
	}
}

// XorBytes sets dst = dst XOR src byte-wise and returns the number of bytes
// processed. It is the payload (data-plane) counterpart of Vector.Xor and
// panics if the lengths differ: payloads of one content always have equal
// size m.
func XorBytes(dst, src []byte) int {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("bitvec: payload length mismatch %d vs %d", len(dst), len(src)))
	}
	// Unrolled word-at-a-time XOR: 32 bytes per iteration. Payload XOR is
	// the data-plane cost of decoding; on the batched ingest path this runs
	// once per packet per elimination step, so the unroll is worth it.
	n := len(dst)
	i := 0
	for ; i+32 <= n; i += 32 {
		putLeUint64(dst[i:], leUint64(dst[i:])^leUint64(src[i:]))
		putLeUint64(dst[i+8:], leUint64(dst[i+8:])^leUint64(src[i+8:]))
		putLeUint64(dst[i+16:], leUint64(dst[i+16:])^leUint64(src[i+16:]))
		putLeUint64(dst[i+24:], leUint64(dst[i+24:])^leUint64(src[i+24:]))
	}
	for ; i+8 <= n; i += 8 {
		putLeUint64(dst[i:], leUint64(dst[i:])^leUint64(src[i:]))
	}
	for ; i < n; i++ {
		dst[i] ^= src[i]
	}
	return n
}

func leUint64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func putLeUint64(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}
