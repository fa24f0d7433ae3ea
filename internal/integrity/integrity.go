// Package integrity provides end-to-end content verification for coded
// dissemination: a manifest of per-native SHA-256 digests distributed
// out-of-band (exactly like a torrent's piece hashes), checked as natives
// are decoded.
//
// The paper notes that, LTNC being linear network codes, "security schemes
// (e.g., homomorphic hashes and signatures) can be directly applied". This
// package is the pragmatic stand-in documented in DESIGN.md §5: it
// verifies decoded natives rather than in-flight encoded packets (which
// homomorphic hashes would allow), and suffices to detect corruption or
// pollution at decode time. The dissemination session carries manifests
// on the wire (MANIFEST frames, DESIGN.md §13) and verifies every
// generation as it completes; examples/broadcast uses the package
// directly as an out-of-band check. An object's ID commits to its
// geometry and to the Merkle root over its manifest's runs of digests
// (ObjectID), as BitTorrent v2's info hash commits to its piece layers, so
// the manifest needs no other channel of trust and each run is checked
// against the ID on its own (AdoptRun).
package integrity

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"ltnc/internal/packet"
)

// DigestSize is the size of one native digest in bytes.
const DigestSize = sha256.Size

// RunLen is how many native digests make one run: the leaves of a
// manifest's Merkle tree are runs of RunLen consecutive digests (the last
// run is shorter), each sized to travel as one MANIFEST frame.
const RunLen = packet.MaxManifestChunk / DigestSize

// Manifest holds one SHA-256 digest per native packet, a run at a time,
// and the Merkle root over its runs. One built from the natives
// (NewManifest) holds every run and its proof; one a receiver expects
// (Expect) holds none until AdoptRun proves one against the root.
type Manifest struct {
	k, m, missing int // missing counts the runs not held
	root          [DigestSize]byte
	runs          [][]byte // run r's digests, nil until held
	proofs        [][]byte // NewManifest's only: run r's sibling hashes
}

// MaxK and MaxM bound the geometry a manifest may declare: at most 2^24
// natives (the packet layer's code-length ceiling) of at most 1 GiB each.
const (
	MaxK = 1 << 24
	MaxM = 1 << 30
)

// ErrCorrupt is wrapped by verification failures: a native that does not
// match its digest, and a run whose proof does not reach the root.
var ErrCorrupt = errors.New("integrity: digest mismatch")

// ErrBadManifest is wrapped by every structural rejection: a geometry
// outside [1, MaxK] × [1, MaxM], a run index past the last run, a run whose
// digest or sibling count is not the one its index implies.
var ErrBadManifest = errors.New("integrity: bad manifest")

// NewManifest digests the k native payloads of a content (as produced by
// lt.Split), over up to GOMAXPROCS goroutines (digestAll), and builds the
// Merkle tree over their runs.
func NewManifest(natives [][]byte) (*Manifest, error) {
	if len(natives) == 0 || len(natives[0]) == 0 {
		return nil, errors.New("integrity: no natives, or empty ones")
	}
	man, err := Expect(len(natives), len(natives[0]), [DigestSize]byte{})
	if err != nil {
		return nil, err
	}
	for i, n := range natives {
		if len(n) != man.m {
			return nil, fmt.Errorf("integrity: native %d has %d bytes, want %d", i, len(n), man.m)
		}
	}
	flat := digestAll(natives)
	level := make([][DigestSize]byte, len(man.runs))
	for r := range man.runs {
		man.runs[r] = flat[r*RunLen*DigestSize : min(len(flat), (r+1)*RunLen*DigestSize)]
		level[r] = leafHash(man.runs[r])
	}
	man.missing, man.proofs = 0, make([][]byte, len(man.runs))
	for span := 1; len(level) > 1; span *= 2 { // span: leaves under a node of level
		for r := range man.runs {
			if sib := r/span ^ 1; sib < len(level) {
				man.proofs[r] = append(man.proofs[r], level[sib][:]...)
			}
		}
		up := make([][DigestSize]byte, (len(level)+1)/2)
		for i := range up {
			if up[i] = level[2*i]; 2*i+1 < len(level) {
				up[i] = nodeHash(level[2*i], level[2*i+1])
			}
		}
		level = up
	}
	man.root = level[0]
	return man, nil
}

// minDigestChunk is the fewest natives one goroutine of digestAll hashes:
// below it a goroutine costs about what it saves.
const minDigestChunk = 256

// digestAll returns the natives' SHA-256 digests end to end, hashed in
// contiguous chunks of at least minDigestChunk natives over up to
// GOMAXPROCS goroutines: each digest lands in its own slot, so the bytes
// are those of one pass in order.
func digestAll(natives [][]byte) []byte {
	flat := make([]byte, len(natives)*DigestSize)
	digest := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sum := sha256.Sum256(natives[i])
			copy(flat[i*DigestSize:], sum[:])
		}
	}
	workers := min(runtime.GOMAXPROCS(0), len(natives)/minDigestChunk)
	if workers <= 1 {
		digest(0, len(natives))
		return flat
	}
	chunk := (len(natives) + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < len(natives); lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			digest(lo, hi)
		}(lo, min(lo+chunk, len(natives)))
	}
	wg.Wait()
	return flat
}

// Expect is the manifest a receiver assembles for k natives of m bytes
// under root, the one the object's ID commits to: it holds no run until
// AdoptRun proves one.
func Expect(k, m int, root [DigestSize]byte) (*Manifest, error) {
	if k < 1 || k > MaxK || m < 1 || m > MaxM {
		return nil, fmt.Errorf("%w: k=%d m=%d outside [1, %d] × [1, %d]", ErrBadManifest, k, m, MaxK, MaxM)
	}
	runs := (k + RunLen - 1) / RunLen
	return &Manifest{k: k, m: m, missing: runs, root: root, runs: make([][]byte, runs)}, nil
}

// Merkle hashing as RFC 6962 does it: leaves and inner nodes hash under
// different prefixes, so no run can pose as a subtree. A level of odd
// length carries its last node up unchanged: the RFC's shape, the left
// subtree over the largest power of two below the leaf count.
func leafHash(run []byte) [DigestSize]byte { return sha256.Sum256(append([]byte{0x00}, run...)) }

func nodeHash(l, r [DigestSize]byte) [DigestSize]byte {
	return sha256.Sum256(append(append([]byte{0x01}, l[:]...), r[:]...))
}

// pathLen is how many sibling hashes run r's proof holds among runs
// leaves: one a level, but for the levels where r's node is carried up.
func pathLen(r, runs int) (n int) {
	for ; runs > 1; r, runs = r/2, (runs+1)/2 {
		if r^1 < runs {
			n++
		}
	}
	return n
}

// idDomain separates object IDs from every other SHA-256 in the protocol.
const idDomain = "ltnc/object/v2"

// ObjectID derives the self-certifying ID of an object of size bytes, k
// natives of m bytes each in gens generations, whose manifest has the given
// Merkle root: SHA-256(idDomain ‖ u64 size ‖ u32 k ‖ u32 gens ‖ u32 m ‖
// root), truncated to 16 bytes. Whoever holds the ID checks the geometry
// and each run of the manifest on arrival, and through the
// manifest every native, so no node hashes a whole object.
func ObjectID(size int64, k, gens, m int, root [DigestSize]byte) packet.ObjectID {
	var buf [len(idDomain) + 8 + 3*4 + DigestSize]byte
	b := append(buf[:0], idDomain...)
	b = binary.BigEndian.AppendUint64(b, uint64(size))
	b = binary.BigEndian.AppendUint32(b, uint32(k))
	b = binary.BigEndian.AppendUint32(b, uint32(gens))
	b = binary.BigEndian.AppendUint32(b, uint32(m))
	b = append(b, root[:]...)
	sum := sha256.Sum256(b)
	var id packet.ObjectID
	copy(id[:], sum[:])
	return id
}

// K returns the number of natives covered.
func (man *Manifest) K() int { return man.k }

// M returns the native payload size.
func (man *Manifest) M() int { return man.m }

// Root returns the Merkle root over the manifest's runs.
func (man *Manifest) Root() [DigestSize]byte { return man.root }

// Runs returns the number of runs.
func (man *Manifest) Runs() int { return len(man.runs) }

// HoldsRun reports whether run r is held.
func (man *Manifest) HoldsRun(r int) bool { return r >= 0 && r < len(man.runs) && man.runs[r] != nil }

// Holds reports whether native x's digest is held: whether its run is. A
// nil manifest holds nothing.
func (man *Manifest) Holds(x int) bool {
	return man != nil && x >= 0 && x < man.k && man.runs[x/RunLen] != nil
}

// Complete reports whether every run is held; a nil manifest is not.
func (man *Manifest) Complete() bool { return man != nil && man.missing == 0 }

// RunProof returns run r's digests and its proof, the sibling hashes from
// its leaf up to the root, leaf level first, of a manifest NewManifest
// built; both alias the manifest.
func (man *Manifest) RunProof(r int) (digests, proof []byte) { return man.runs[r], man.proofs[r] }

// AdoptRun checks run r — its digests and proof as RunProof gives them —
// against the root and holds a copy of its digests if they hash up to it.
// The counts are checked before any hashing: a run index past the last
// run, or a digest or sibling count not the one r implies, wraps
// ErrBadManifest; a run that does not reach the root wraps ErrCorrupt. A
// run already held is kept as it is.
func (man *Manifest) AdoptRun(r int, digests, proof []byte) error {
	if r < 0 || r >= len(man.runs) ||
		len(digests) != min(RunLen, man.k-r*RunLen)*DigestSize || len(proof) != pathLen(r, len(man.runs))*DigestSize {
		return fmt.Errorf("%w: run %d of %d with %d digest and %d proof bytes", ErrBadManifest, r, len(man.runs), len(digests), len(proof))
	}
	if man.runs[r] != nil {
		return nil
	}
	node := leafHash(digests)
	for i, runs := r, len(man.runs); runs > 1; i, runs = i/2, (runs+1)/2 {
		if i^1 >= runs {
			continue // carried up unchanged
		}
		sib := [DigestSize]byte(proof)
		if proof = proof[DigestSize:]; i&1 == 0 {
			node = nodeHash(node, sib)
		} else {
			node = nodeHash(sib, node)
		}
	}
	if node != man.root {
		return fmt.Errorf("%w: run %d does not hash to the root", ErrCorrupt, r)
	}
	man.runs[r] = bytes.Clone(digests)
	man.missing--
	return nil
}

// Verify checks the payload of native x against its digest. A payload
// whose length differs from the manifest's native size m fails before
// hashing — a digest over the wrong number of bytes can collide with
// nothing the manifest promises — and so does a native whose run is not
// held.
func (man *Manifest) Verify(x int, payload []byte) error {
	if !man.Holds(x) {
		return fmt.Errorf("integrity: native %d out of range [0,%d), or its run not held", x, man.k)
	}
	if len(payload) != man.m {
		return fmt.Errorf("%w: native %d payload is %d bytes, manifest covers %d-byte natives",
			ErrCorrupt, x, len(payload), man.m)
	}
	off := x % RunLen * DigestSize
	if sha256.Sum256(payload) != [DigestSize]byte(man.runs[x/RunLen][off:off+DigestSize]) {
		return fmt.Errorf("%w: native %d", ErrCorrupt, x)
	}
	return nil
}

// VerifyAll checks a full set of decoded natives; it returns the first
// mismatch.
func (man *Manifest) VerifyAll(natives [][]byte) error {
	if len(natives) != man.k {
		return fmt.Errorf("integrity: %d natives, manifest covers %d", len(natives), man.k)
	}
	for i, n := range natives {
		if err := man.Verify(i, n); err != nil {
			return err
		}
	}
	return nil
}
