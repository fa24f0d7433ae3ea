package packet

import (
	"encoding/binary"
	"fmt"
)

// Manifest run wire body — the payload of the session layer's MANIFEST
// frame kind. An integrity manifest (see internal/integrity) is a list of
// k SHA-256 native digests under a Merkle root the object's ID commits to;
// its leaves are runs of up to MaxManifestChunk bytes of digests, and one
// frame carries one run with its proof, so every frame is checked against
// the ID on its own and nothing is reassembled:
//
//	object  16 bytes   content ID the manifest covers
//	run      4 bytes   run index
//	n        2 bytes   digests in the run, 1..MaxManifestChunk/32
//	depth    1 byte    sibling hashes in the proof, 0..MaxManifestDepth
//	digests 32·n bytes the run's native digests
//	proof   32·depth   the sibling hashes from the run's leaf to the root,
//	                   leaf level first
//
// The codec bounds every count and requires the body to be exactly as
// long as they say, so the encoding is canonical; whether the counts are
// the ones the object's geometry implies, and whether the run hashes to
// the root, is integrity.Manifest.AdoptRun's to check.
const (
	// manifestChunkFixed is the fixed prefix before the digests.
	manifestChunkFixed = 16 + 4 + 2 + 1
	// hashSize is the size of one digest or sibling hash.
	hashSize = 32
	// MaxManifestChunk is the most digest bytes one run carries: 1,024
	// digests, sized so a MANIFEST frame stays under 33 KiB, well inside
	// transport.MaxFrame.
	MaxManifestChunk = 32 * 1024
	// MaxManifestDepth bounds a proof: the depth of a Merkle tree over the
	// runs of the longest code (2^24 natives, 2^14 runs).
	MaxManifestDepth = 14
)

// ErrBadManifestChunk marks a malformed manifest run body: a truncated or
// overlong buffer, or a digest or sibling count out of bounds. It wraps
// ErrBadPacket.
var ErrBadManifestChunk = fmt.Errorf("%w: bad manifest run", ErrBadPacket)

// ManifestChunk is one decoded MANIFEST body: one manifest run.
type ManifestChunk struct {
	Object ObjectID
	Run    uint32
	// Digests and Proof alias the input buffer passed to ParseManifestChunk;
	// copy before retaining.
	Digests []byte
	Proof   []byte
}

// AppendManifestChunk appends the wire body of run r — its digests and its
// proof — and returns the extended slice.
func AppendManifestChunk(dst []byte, object ObjectID, r uint32, digests, proof []byte) ([]byte, error) {
	if len(digests) < hashSize || len(digests) > MaxManifestChunk || len(digests)%hashSize != 0 {
		return dst, fmt.Errorf("%w: %d digest bytes", ErrBadManifestChunk, len(digests))
	}
	if len(proof) > MaxManifestDepth*hashSize || len(proof)%hashSize != 0 {
		return dst, fmt.Errorf("%w: %d proof bytes", ErrBadManifestChunk, len(proof))
	}
	dst = append(dst, object[:]...)
	dst = binary.BigEndian.AppendUint32(dst, r)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(digests)/hashSize))
	dst = append(dst, byte(len(proof)/hashSize))
	dst = append(dst, digests...)
	return append(dst, proof...), nil
}

// ParseManifestChunk decodes a manifest run body. The returned slices alias
// data. Every accepted run holds 1 to MaxManifestChunk/32 digests and at
// most MaxManifestDepth sibling hashes, and re-encodes to data exactly.
func ParseManifestChunk(data []byte) (ManifestChunk, error) {
	var mr ManifestChunk
	if len(data) < manifestChunkFixed {
		return mr, fmt.Errorf("%w: %d bytes", ErrBadManifestChunk, len(data))
	}
	copy(mr.Object[:], data)
	mr.Run = binary.BigEndian.Uint32(data[16:])
	n, depth := int(binary.BigEndian.Uint16(data[20:])), int(data[22])
	if n < 1 || n > MaxManifestChunk/hashSize || depth > MaxManifestDepth {
		return mr, fmt.Errorf("%w: %d digests, %d siblings", ErrBadManifestChunk, n, depth)
	}
	if want := manifestChunkFixed + (n+depth)*hashSize; len(data) != want {
		return mr, fmt.Errorf("%w: %d bytes, want %d", ErrBadManifestChunk, len(data), want)
	}
	d := manifestChunkFixed + n*hashSize
	mr.Digests, mr.Proof = data[manifestChunkFixed:d:d], data[d:]
	return mr, nil
}
