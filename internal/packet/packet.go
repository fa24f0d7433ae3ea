// Package packet defines the encoded-packet representation shared by all
// coding schemes (LT, LTNC, RLNC) and its wire format.
//
// A packet carries a code vector — a GF(2) bitmap over the k native
// packets, "included in the headers of the packets" as in the paper — and
// an m-byte payload equal to the XOR of the native payloads selected by
// the vector. The wire format places the code vector *before* the payload
// so that a receiver can run redundancy detection on the header alone and
// abort the transfer of a non-innovative payload (the paper's binary
// feedback channel, Section III-C-2).
package packet

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"

	"ltnc/internal/bitvec"
	"ltnc/internal/opcount"
)

// ObjectID identifies a content object when many objects are multiplexed
// over one transport (the session layer's 16-byte content ID). The zero
// value means "no object": single-object streams and the original v1 wire
// format carry no ID.
type ObjectID [16]byte

// NewObjectID derives a content ID from the object bytes (truncated
// SHA-256), so that independently-started sources of the same content
// converge on the same sessions.
func NewObjectID(content []byte) ObjectID {
	var id ObjectID
	sum := sha256.Sum256(content)
	copy(id[:], sum[:])
	return id
}

// IsZero reports whether id is the zero ("no object") ID.
func (id ObjectID) IsZero() bool { return id == ObjectID{} }

// String renders the ID as lowercase hex.
func (id ObjectID) String() string { return hex.EncodeToString(id[:]) }

// ParseObjectID parses the 32-hex-digit form produced by String.
func ParseObjectID(s string) (ObjectID, error) {
	var id ObjectID
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != len(id) {
		return id, fmt.Errorf("packet: object id %q is not %d hex bytes", s, len(id))
	}
	copy(id[:], b)
	return id, nil
}

// Packet is one encoded packet: the GF(2) combination Vec of native
// packets together with the combined Payload. Payload may be nil in
// control-plane-only simulations, where only code vectors matter.
type Packet struct {
	Vec     *bitvec.Vector
	Payload []byte
	// Generation identifies the coding generation the packet belongs to
	// when content is split into generations (0 when unused).
	Generation uint32
	// Generations is the total number of coding generations of the
	// packet's object. 0 and 1 both mean "not generation-structured"
	// (the packet's vector spans the whole object) and encode as wire
	// v1/v2; values ≥ 2 mark a generation-coded object — the vector
	// spans only the k/G natives of generation Generation — and encode
	// as wire v3, which carries the count so relays can size their
	// per-generation decode state from DATA headers alone.
	Generations uint32
	// Object identifies the content object the packet belongs to when
	// several objects share a transport (zero when unused; zero-Object
	// packets marshal to the v1 wire format).
	Object ObjectID
	// Stamp is header byte 3: 0, or StampFlag over the low seven bits of
	// the row's send sequence on its link (SeqStamp). It says where the row
	// stands in one sender's stream, not what it carries, so Equal ignores
	// it.
	Stamp byte
}

// StampFlag marks a stamped row's header byte 3; the seven bits under it
// are the row's send sequence modulo 128. Writers before stamps wrote the
// byte 0 and readers ignored it, so a stamp costs no wire version.
const StampFlag = 0x80

// SeqStamp returns the stamp of the seq-th row a sender pushes on one
// (sender → peer, object) link.
func SeqStamp(seq uint64) byte { return StampFlag | byte(seq)&^StampFlag }

// Restamp overwrites the stamp of the packet encoded in wire (as AppendWire
// wrote it): a sender stamps a row where it serializes it, a node forwarding
// another sender's bytes verbatim clears it with 0.
func Restamp(wire []byte, stamp byte) { wire[stampOffset] = stamp }

// New returns an all-zero packet over k native packets with an m-byte
// payload buffer (no buffer if m == 0).
func New(k, m int) *Packet {
	p := &Packet{Vec: bitvec.New(k)}
	if m > 0 {
		p.Payload = make([]byte, m)
	}
	return p
}

// Native returns the degree-1 packet for native index i carrying payload.
// The payload is copied so the caller keeps ownership of data.
func Native(k, i int, data []byte) *Packet {
	p := &Packet{Vec: bitvec.Single(k, i)}
	if len(data) > 0 {
		p.Payload = append([]byte(nil), data...)
	}
	return p
}

// K returns the code length (number of native packets).
func (p *Packet) K() int { return p.Vec.Len() }

// Degree returns the number of native packets combined in p.
func (p *Packet) Degree() int { return p.Vec.PopCount() }

// IsZero reports whether the packet combines no native packets.
func (p *Packet) IsZero() bool { return p.Vec.IsZero() }

// NativeIndex returns the native index of a degree-1 packet and true, or
// (-1, false) if the packet's degree is not 1.
func (p *Packet) NativeIndex() (int, bool) {
	i := p.Vec.LowestSet()
	if i < 0 || p.Vec.NextSet(i+1) >= 0 {
		return -1, false
	}
	return i, true
}

// Xor sets p = p ⊕ o, updating both the code vector and the payload, and
// records the control-word and data-byte costs on c (which may be nil).
// It returns p.
func (p *Packet) Xor(o *Packet, c *opcount.Counter, control, data opcount.Phase) *Packet {
	c.Add(control, opcount.WordOps(p.K(), 1))
	p.Vec.Xor(o.Vec)
	if len(p.Payload) > 0 && len(o.Payload) > 0 {
		c.Add(data, bitvec.XorBytes(p.Payload, o.Payload))
	}
	return p
}

// Clone returns a deep copy of p.
func (p *Packet) Clone() *Packet {
	q := &Packet{Vec: p.Vec.Clone(), Generation: p.Generation, Generations: p.Generations, Object: p.Object, Stamp: p.Stamp}
	if p.Payload != nil {
		q.Payload = append([]byte(nil), p.Payload...)
	}
	return q
}

// genStructured reports whether the packet belongs to a generation-coded
// object (Generations ≥ 2; 0 and 1 are the equivalent unstructured forms).
func genStructured(gens uint32) bool { return gens >= 2 }

// Equal reports whether two packets have identical vectors, payloads,
// generation structure and object ID. Generations 0 and 1 compare equal:
// both mean "not generation-structured" and share a wire encoding.
func (p *Packet) Equal(o *Packet) bool {
	if !p.Vec.Equal(o.Vec) || p.Generation != o.Generation || p.Object != o.Object {
		return false
	}
	if genStructured(p.Generations) != genStructured(o.Generations) {
		return false
	}
	if genStructured(p.Generations) && p.Generations != o.Generations {
		return false
	}
	if len(p.Payload) != len(o.Payload) {
		return false
	}
	for i := range p.Payload {
		if p.Payload[i] != o.Payload[i] {
			return false
		}
	}
	return true
}

// String renders the packet as its support set, e.g. "{1,3}/8+256B".
func (p *Packet) String() string {
	return fmt.Sprintf("%v+%dB", p.Vec, len(p.Payload))
}

// Wire format (version 1)
//
//	magic   "LT"        2 bytes
//	version 0x01        1 byte
//	stamp               1 byte (0, or StampFlag | send sequence mod 128)
//	generation          4 bytes big-endian
//	k                   4 bytes big-endian
//	m                   4 bytes big-endian
//	code vector         ceil(k/8) bytes
//	payload             m bytes
//
// Version 2 inserts a 16-byte object ID between m and the code vector, so
// that many content objects can share one transport. The ID must be
// non-zero: a zero ID means "no object" and must be encoded as version 1,
// which keeps the encoding canonical and v1 readers working on
// single-object streams. Writers pick the version from Packet.Object;
// readers accept both.
//
// Version 3 is the generation-coded form: it inserts a 4-byte generation
// count (G ≥ 2) between m and the object ID, so receivers can size all G
// per-generation decode states from any DATA header without waiting for
// out-of-band metadata. In a v3 header k is the PER-GENERATION code
// length: the vector spans only the k natives of the generation named by
// the generation field, which is what keeps headers O(k/G) no matter how
// large the object grows. A packet with Generations ≤ 1 must encode as
// v1/v2 (gen-absent), which keeps the encoding canonical; readers accept
// all three versions.
const (
	wireV1         = 0x01
	wireV2         = 0x02
	wireV3         = 0x03
	headerFixed    = 2 + 1 + 1 + 4 + 4 + 4
	stampOffset    = 3
	genCountSize   = 4
	objectIDSize   = 16
	maxWireK       = 1 << 24 // sanity bound against corrupt headers
	maxWirePayload = 1 << 30
	maxWireGens    = 1 << 20 // sanity bound on the generation count
)

// MaxGenerations is the largest generation count a v3 header may carry;
// larger values are rejected as corrupt.
const MaxGenerations = maxWireGens

var wireMagic = [2]byte{'L', 'T'}

// Errors returned by the wire codec. ErrBadPacket is the parent of every
// decoding failure: errors.Is(err, ErrBadPacket) matches ErrBadMagic,
// ErrBadVersion and ErrCorrupt alike, so API boundaries can classify
// malformed input without enumerating the specific causes.
var (
	ErrBadPacket  = errors.New("packet: bad packet")
	ErrBadMagic   = fmt.Errorf("%w: bad magic", ErrBadPacket)
	ErrBadVersion = fmt.Errorf("%w: unsupported version", ErrBadPacket)
	ErrCorrupt    = fmt.Errorf("%w: corrupt header", ErrBadPacket)
	// ErrBadGeneration marks an inconsistent generation structure: a v3
	// header whose generation id is outside [0, G) or whose count is out
	// of bounds, and — at the layers above — a packet routed at a coder
	// whose generation geometry does not match. It wraps ErrBadPacket so
	// boundary classification by the parent sentinel keeps working.
	ErrBadGeneration = fmt.Errorf("%w: bad generation", ErrBadPacket)
)

// Header is the decoded fixed-size prefix plus code vector of a packet on
// the wire. Receivers inspect it (degree, redundancy check) before
// deciding whether to read the payload.
type Header struct {
	K          int
	M          int
	Generation uint32
	// Generations is the object's generation count from a v3 header
	// (≥ 2); 0 for gen-absent v1/v2 headers.
	Generations uint32
	Object      ObjectID
	Vec         *bitvec.Vector
	Stamp       byte // header byte 3 (Packet.Stamp)
}

// Degree returns the degree announced by the header's code vector.
func (h Header) Degree() int { return h.Vec.PopCount() }

// HeaderSize returns the number of bytes a v1 header occupies on the wire
// for code length k.
func HeaderSize(k int) int { return headerFixed + (k+7)/8 }

// ObjectHeaderSize returns the number of bytes a v2 (object-tagged) header
// occupies on the wire for code length k.
func ObjectHeaderSize(k int) int { return headerFixed + objectIDSize + (k+7)/8 }

// GenHeaderSize returns the number of bytes a v3 (generation-coded)
// header occupies on the wire for PER-GENERATION code length kPer. It
// depends only on kPer, never on the object's total code length — the
// O(k/G) header property generations buy.
func GenHeaderSize(kPer int) int { return headerFixed + genCountSize + objectIDSize + (kPer+7)/8 }

// WireSize returns the total on-wire size of a v1 packet with code length
// k and payload size m.
func WireSize(k, m int) int { return HeaderSize(k) + m }

// ObjectWireSize returns the total on-wire size of a v2 (object-tagged)
// packet with code length k and payload size m.
func ObjectWireSize(k, m int) int { return ObjectHeaderSize(k) + m }

// GenWireSize returns the total on-wire size of a v3 (generation-coded)
// packet with per-generation code length kPer and payload size m.
func GenWireSize(kPer, m int) int { return GenHeaderSize(kPer) + m }

// WriteHeader writes the header of p to w: version 3 when the packet is
// generation-coded (Generations ≥ 2), version 2 when it is object-tagged,
// version 1 otherwise.
func WriteHeader(w io.Writer, p *Packet) error {
	if genStructured(p.Generations) && p.Generation >= p.Generations {
		return fmt.Errorf("%w: generation %d of %d", ErrBadGeneration, p.Generation, p.Generations)
	}
	buf := make([]byte, headerFixed, headerFixed+genCountSize+objectIDSize)
	buf[0], buf[1] = wireMagic[0], wireMagic[1]
	buf[2] = wireV1
	buf[stampOffset] = p.Stamp
	binary.BigEndian.PutUint32(buf[4:], p.Generation)
	binary.BigEndian.PutUint32(buf[8:], uint32(p.K()))
	binary.BigEndian.PutUint32(buf[12:], uint32(len(p.Payload)))
	switch {
	case genStructured(p.Generations):
		buf[2] = wireV3
		buf = binary.BigEndian.AppendUint32(buf, p.Generations)
		buf = append(buf, p.Object[:]...)
	case !p.Object.IsZero():
		buf[2] = wireV2
		buf = append(buf, p.Object[:]...)
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("packet: write header: %w", err)
	}
	vec, err := p.Vec.MarshalBinary()
	if err != nil {
		return fmt.Errorf("packet: marshal vector: %w", err)
	}
	if _, err := w.Write(vec); err != nil {
		return fmt.Errorf("packet: write vector: %w", err)
	}
	return nil
}

// WritePayload writes the payload of p to w. Call it after WriteHeader
// once the receiver has accepted the transfer.
func WritePayload(w io.Writer, p *Packet) error {
	if len(p.Payload) == 0 {
		return nil
	}
	if _, err := w.Write(p.Payload); err != nil {
		return fmt.Errorf("packet: write payload: %w", err)
	}
	return nil
}

// Write writes the complete packet (header then payload) to w.
func Write(w io.Writer, p *Packet) error {
	if err := WriteHeader(w, p); err != nil {
		return err
	}
	return WritePayload(w, p)
}

// ReadHeader reads and validates a packet header from r.
func ReadHeader(r io.Reader) (Header, error) {
	var h Header
	buf := make([]byte, headerFixed)
	if _, err := io.ReadFull(r, buf); err != nil {
		return h, fmt.Errorf("packet: read header: %w", err)
	}
	if buf[0] != wireMagic[0] || buf[1] != wireMagic[1] {
		return h, ErrBadMagic
	}
	version := buf[2]
	if version != wireV1 && version != wireV2 && version != wireV3 {
		return h, fmt.Errorf("%w: %d", ErrBadVersion, version)
	}
	h.Stamp = buf[stampOffset]
	h.Generation = binary.BigEndian.Uint32(buf[4:])
	k := binary.BigEndian.Uint32(buf[8:])
	m := binary.BigEndian.Uint32(buf[12:])
	if k == 0 || k > maxWireK || m > maxWirePayload {
		return h, fmt.Errorf("%w: k=%d m=%d", ErrCorrupt, k, m)
	}
	h.K, h.M = int(k), int(m)
	if version == wireV3 {
		var gb [genCountSize]byte
		if _, err := io.ReadFull(r, gb[:]); err != nil {
			return h, fmt.Errorf("packet: read generation count: %w", err)
		}
		h.Generations = binary.BigEndian.Uint32(gb[:])
		if h.Generations < 2 || h.Generations > maxWireGens {
			return h, fmt.Errorf("%w: v3 header with G=%d", ErrBadGeneration, h.Generations)
		}
		if h.Generation >= h.Generations {
			return h, fmt.Errorf("%w: generation %d of %d", ErrBadGeneration, h.Generation, h.Generations)
		}
	}
	if version == wireV2 || version == wireV3 {
		if _, err := io.ReadFull(r, h.Object[:]); err != nil {
			return h, fmt.Errorf("packet: read object id: %w", err)
		}
		if version == wireV2 && h.Object.IsZero() {
			return h, fmt.Errorf("%w: v2 header with zero object id", ErrCorrupt)
		}
	}
	vecBytes := make([]byte, (h.K+7)/8)
	if _, err := io.ReadFull(r, vecBytes); err != nil {
		return h, fmt.Errorf("packet: read vector: %w", err)
	}
	h.Vec = bitvec.New(h.K)
	if err := h.Vec.UnmarshalInto(vecBytes); err != nil {
		return h, err
	}
	return h, nil
}

// ReadPayload reads the payload announced by h from r and returns the
// completed packet.
func ReadPayload(r io.Reader, h Header) (*Packet, error) {
	p := &Packet{Vec: h.Vec, Generation: h.Generation, Generations: h.Generations, Object: h.Object, Stamp: h.Stamp}
	if h.M > 0 {
		p.Payload = make([]byte, h.M)
		if _, err := io.ReadFull(r, p.Payload); err != nil {
			return nil, fmt.Errorf("packet: read payload: %w", err)
		}
	}
	return p, nil
}

// Read reads a complete packet from r.
func Read(r io.Reader) (*Packet, error) {
	h, err := ReadHeader(r)
	if err != nil {
		return nil, err
	}
	return ReadPayload(r, h)
}

// Marshal returns the full wire encoding of p.
func Marshal(p *Packet) ([]byte, error) {
	if genStructured(p.Generations) && p.Generation >= p.Generations {
		return nil, fmt.Errorf("%w: generation %d of %d", ErrBadGeneration, p.Generation, p.Generations)
	}
	size := WireSize(p.K(), len(p.Payload))
	switch {
	case genStructured(p.Generations):
		size = GenWireSize(p.K(), len(p.Payload))
	case !p.Object.IsZero():
		size = ObjectWireSize(p.K(), len(p.Payload))
	}
	return AppendWire(make([]byte, 0, size), p), nil
}

// Unmarshal parses a packet from its full wire encoding.
func Unmarshal(data []byte) (*Packet, error) {
	r := &sliceReader{data: data}
	p, err := Read(r)
	if err != nil {
		return nil, err
	}
	if r.off != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(data)-r.off)
	}
	return p, nil
}

type sliceReader struct {
	data []byte
	off  int
}

func (r *sliceReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}
