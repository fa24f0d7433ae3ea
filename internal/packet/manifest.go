package packet

import (
	"encoding/binary"
	"fmt"
)

// Manifest run wire body — the payload of the session layer's MANIFEST
// frame kind. An integrity manifest (see internal/integrity) is a list of
// k SHA-256 native digests under a Merkle root the object's ID commits to;
// its leaves are runs of up to MaxManifestChunk bytes of digests, and one
// frame carries one run with its proof and the object's description, so
// every frame is checked against the ID on its own, in any order, and
// nothing is reassembled:
//
//	object  16 bytes   content ID the manifest covers
//	k        4 bytes   natives in the object, ≥ 1
//	m        4 bytes   bytes a native
//	size     8 bytes   content bytes, at most k·max(m, 1)
//	gens     4 bytes   generations, ≥ 1, dividing k
//	root    32 bytes   the manifest's Merkle root
//	run      4 bytes   run index, below ⌈k / (MaxManifestChunk/32)⌉
//	n        2 bytes   digests in the run: MaxManifestChunk/32, fewer in
//	                   the last run, exactly what k leaves it
//	depth    1 byte    sibling hashes in the proof, 0..MaxManifestDepth
//	digests 32·n bytes the run's native digests
//	proof   32·depth   the sibling hashes from the run's leaf to the root,
//	                   leaf level first
//
// The codec bounds every count, checks the description's geometry and the
// run's place in it, and requires the body to be exactly as long as the
// counts say, so the encoding is canonical; whether the description hashes
// to the ID is the session's to check (integrity.ObjectID), and whether the
// proof has the depth the run's index implies and hashes to the root is
// integrity.Manifest.AdoptRun's.
const (
	// manifestChunkFixed is the fixed prefix before the digests.
	manifestChunkFixed = 16 + 4 + 4 + 8 + 4 + hashSize + 4 + 2 + 1
	// hashSize is the size of one digest or sibling hash.
	hashSize = 32
	// MaxManifestChunk is the most digest bytes one run carries: 1,024
	// digests, sized so a MANIFEST frame stays under 33 KiB, well inside
	// transport.MaxFrame.
	MaxManifestChunk = 32 * 1024
	// MaxManifestDepth bounds a proof: the depth of a Merkle tree over the
	// runs of the longest code (2^24 natives, 2^14 runs).
	MaxManifestDepth = 14
	// runDigests is how many digests a run other than the last carries.
	runDigests = MaxManifestChunk / hashSize
)

// ErrBadManifestChunk marks a malformed manifest run body: a truncated or
// overlong buffer, a description no object could have, or a run index,
// digest or sibling count out of bounds. It wraps ErrBadPacket.
var ErrBadManifestChunk = fmt.Errorf("%w: bad manifest run", ErrBadPacket)

// ManifestChunk is one decoded MANIFEST body: one manifest run, and the
// object's description.
type ManifestChunk struct {
	Object ObjectID
	// The description: what the ID commits to besides the root — the
	// object's size, its k natives of m bytes in gens generations — and the
	// root itself.
	K, M, Gens uint32
	Size       int64
	Root       [hashSize]byte
	Run        uint32
	// Digests and Proof alias the input buffer passed to ParseManifestChunk;
	// copy before retaining.
	Digests []byte
	Proof   []byte
}

// AppendManifestChunk appends the wire body of mc and returns the extended
// slice.
func AppendManifestChunk(dst []byte, mc ManifestChunk) ([]byte, error) {
	if len(mc.Digests)%hashSize != 0 || len(mc.Proof) > MaxManifestDepth*hashSize || len(mc.Proof)%hashSize != 0 {
		return dst, fmt.Errorf("%w: %d digest bytes, %d proof bytes", ErrBadManifestChunk, len(mc.Digests), len(mc.Proof))
	}
	if err := mc.check(len(mc.Digests) / hashSize); err != nil {
		return dst, err
	}
	dst = append(dst, mc.Object[:]...)
	dst = binary.BigEndian.AppendUint32(dst, mc.K)
	dst = binary.BigEndian.AppendUint32(dst, mc.M)
	dst = binary.BigEndian.AppendUint64(dst, uint64(mc.Size))
	dst = binary.BigEndian.AppendUint32(dst, mc.Gens)
	dst = append(dst, mc.Root[:]...)
	dst = binary.BigEndian.AppendUint32(dst, mc.Run)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(mc.Digests)/hashSize))
	dst = append(dst, byte(len(mc.Proof)/hashSize))
	dst = append(dst, mc.Digests...)
	return append(dst, mc.Proof...), nil
}

// check holds mc's description and the run's place in it to the codec's
// rules, n the digests the run carries: an ID; a generation split with
// every generation the same code length and at least one native each
// (ragged splits are dropped, as a datagram receiver drops anything
// malformed; the bounds on geometry are the session's admission); a size
// the natives can hold; a run index inside k, and the digests it implies.
func (mc *ManifestChunk) check(n int) error {
	k := uint64(mc.K)
	runs := (k + runDigests - 1) / runDigests
	switch {
	case mc.Object.IsZero(), k == 0, mc.Gens == 0, mc.K%mc.Gens != 0,
		mc.Size < 0, uint64(mc.Size) > k*uint64(max(mc.M, 1)):
		return fmt.Errorf("%w: %d bytes as %d natives of %d bytes in %d generations", ErrBadManifestChunk, mc.Size, mc.K, mc.M, mc.Gens)
	case uint64(mc.Run) >= runs || uint64(n) != min(runDigests, k-uint64(mc.Run)*runDigests):
		return fmt.Errorf("%w: run %d of %d with %d digests", ErrBadManifestChunk, mc.Run, runs, n)
	}
	return nil
}

// ParseManifestChunk decodes a manifest run body. The returned slices alias
// data. Every accepted body describes an object check admits, holds the
// digests its run index implies and at most MaxManifestDepth sibling
// hashes, and re-encodes to data exactly.
func ParseManifestChunk(data []byte) (ManifestChunk, error) {
	var mc ManifestChunk
	if len(data) < manifestChunkFixed {
		return mc, fmt.Errorf("%w: %d bytes", ErrBadManifestChunk, len(data))
	}
	copy(mc.Object[:], data)
	mc.K = binary.BigEndian.Uint32(data[16:])
	mc.M = binary.BigEndian.Uint32(data[20:])
	mc.Size = int64(binary.BigEndian.Uint64(data[24:]))
	mc.Gens = binary.BigEndian.Uint32(data[32:])
	copy(mc.Root[:], data[36:])
	mc.Run = binary.BigEndian.Uint32(data[68:])
	n, depth := int(binary.BigEndian.Uint16(data[72:])), int(data[74])
	if depth > MaxManifestDepth {
		return mc, fmt.Errorf("%w: %d siblings", ErrBadManifestChunk, depth)
	}
	if err := mc.check(n); err != nil {
		return mc, err
	}
	if want := manifestChunkFixed + (n+depth)*hashSize; len(data) != want {
		return mc, fmt.Errorf("%w: %d bytes, want %d", ErrBadManifestChunk, len(data), want)
	}
	d := manifestChunkFixed + n*hashSize
	mc.Digests, mc.Proof = data[manifestChunkFixed:d:d], data[d:]
	return mc, nil
}
