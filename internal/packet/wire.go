package packet

import (
	"encoding/binary"
	"fmt"
)

// WireView is a validated, zero-copy view of one packet inside a single
// wire buffer (a datagram). It carries the decoded fixed fields and the
// offsets of the code vector and payload, so the receive hot path can
// inspect the header and copy the body straight into arena buffers
// without the io.Reader scaffolding of ReadHeader/ReadPayload.
type WireView struct {
	Version    byte
	Generation uint32
	// Generations is the object's generation count from a v3 header
	// (≥ 2); 0 for gen-absent v1/v2 frames. In a v3 frame K is the
	// PER-GENERATION code length.
	Generations uint32
	K, M        int
	Object      ObjectID
	// Stamp is header byte 3: the row's place in its sender's stream
	// (Packet.Stamp), 0 when the sender did not stamp it.
	Stamp      byte
	vecOff     int
	payloadOff int
}

// VecBytes returns the code-vector bytes of the viewed packet inside
// data, which must be the buffer ParseWire validated.
func (wv WireView) VecBytes(data []byte) []byte { return data[wv.vecOff:wv.payloadOff] }

// PayloadBytes returns the payload bytes of the viewed packet inside
// data, which must be the buffer ParseWire validated.
func (wv WireView) PayloadBytes(data []byte) []byte {
	return data[wv.payloadOff : wv.payloadOff+wv.M]
}

// ParseWire validates a complete packet encoding in data and returns its
// layout without copying or allocating. It enforces the same header
// checks as ReadHeader plus an exact-length check (datagram transports
// deliver whole packets; trailing bytes mean corruption).
func ParseWire(data []byte) (WireView, error) {
	var wv WireView
	if len(data) < headerFixed {
		return wv, fmt.Errorf("%w: %d-byte frame", ErrCorrupt, len(data))
	}
	if data[0] != wireMagic[0] || data[1] != wireMagic[1] {
		return wv, ErrBadMagic
	}
	wv.Version = data[2]
	if wv.Version != wireV1 && wv.Version != wireV2 && wv.Version != wireV3 {
		return wv, fmt.Errorf("%w: %d", ErrBadVersion, wv.Version)
	}
	wv.Stamp = data[stampOffset]
	wv.Generation = binary.BigEndian.Uint32(data[4:])
	k := binary.BigEndian.Uint32(data[8:])
	m := binary.BigEndian.Uint32(data[12:])
	if k == 0 || k > maxWireK || m > maxWirePayload {
		return wv, fmt.Errorf("%w: k=%d m=%d", ErrCorrupt, k, m)
	}
	wv.K, wv.M = int(k), int(m)
	wv.vecOff = headerFixed
	if wv.Version == wireV3 {
		if len(data) < headerFixed+genCountSize {
			return wv, fmt.Errorf("%w: truncated generation count", ErrCorrupt)
		}
		wv.Generations = binary.BigEndian.Uint32(data[headerFixed:])
		if wv.Generations < 2 || wv.Generations > maxWireGens {
			return wv, fmt.Errorf("%w: v3 frame with G=%d", ErrBadGeneration, wv.Generations)
		}
		if wv.Generation >= wv.Generations {
			return wv, fmt.Errorf("%w: generation %d of %d", ErrBadGeneration, wv.Generation, wv.Generations)
		}
		wv.vecOff += genCountSize
	}
	if wv.Version == wireV2 || wv.Version == wireV3 {
		if len(data) < wv.vecOff+objectIDSize {
			return wv, fmt.Errorf("%w: truncated object id", ErrCorrupt)
		}
		copy(wv.Object[:], data[wv.vecOff:])
		if wv.Version == wireV2 && wv.Object.IsZero() {
			return wv, fmt.Errorf("%w: v2 header with zero object id", ErrCorrupt)
		}
		wv.vecOff += objectIDSize
	}
	wv.payloadOff = wv.vecOff + (wv.K+7)/8
	if total := wv.payloadOff + wv.M; len(data) != total {
		return wv, fmt.Errorf("%w: %d-byte frame, want %d", ErrCorrupt, len(data), total)
	}
	// Stray bits beyond k in the final vector byte would index out of the
	// decoder's native arrays; both codecs reject them identically.
	if r := wv.K % 8; r != 0 && data[wv.payloadOff-1]>>r != 0 {
		return wv, fmt.Errorf("%w: stray bits beyond k=%d", ErrCorrupt, wv.K)
	}
	return wv, nil
}

// AppendWire appends the full wire encoding of p to dst and returns it.
// It is the allocation-free counterpart of Marshal for callers that
// serialize into pooled frame buffers. Unlike Marshal it cannot report a
// generation id outside [0, Generations) — callers stamping generations
// (the coder does) must keep them consistent, or receivers will reject
// the frame with ErrBadGeneration.
func AppendWire(dst []byte, p *Packet) []byte {
	version := byte(wireV1)
	switch {
	case genStructured(p.Generations):
		version = wireV3
	case !p.Object.IsZero():
		version = wireV2
	}
	var fixed [headerFixed]byte
	fixed[0], fixed[1] = wireMagic[0], wireMagic[1]
	fixed[2] = version
	fixed[stampOffset] = p.Stamp
	binary.BigEndian.PutUint32(fixed[4:], p.Generation)
	binary.BigEndian.PutUint32(fixed[8:], uint32(p.K()))
	binary.BigEndian.PutUint32(fixed[12:], uint32(len(p.Payload)))
	dst = append(dst, fixed[:]...)
	if version == wireV3 {
		dst = binary.BigEndian.AppendUint32(dst, p.Generations)
	}
	if version != wireV1 {
		dst = append(dst, p.Object[:]...)
	}
	dst = p.Vec.AppendBinary(dst)
	return append(dst, p.Payload...)
}
