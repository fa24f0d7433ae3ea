package integrity

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"ltnc/internal/packet"
)

func natives(t *testing.T, k, m int, seed int64) [][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	out := make([][]byte, k)
	for i := range out {
		out[i] = make([]byte, m)
		rng.Read(out[i])
	}
	return out
}

func TestNewManifestValidation(t *testing.T) {
	if _, err := NewManifest(nil); err == nil {
		t.Error("empty natives accepted")
	}
	if _, err := NewManifest([][]byte{{1}, {1, 2}}); err == nil {
		t.Error("ragged natives accepted")
	}
}

func TestVerifyAllClean(t *testing.T) {
	ns := natives(t, 8, 32, 1)
	man, err := NewManifest(ns)
	if err != nil {
		t.Fatal(err)
	}
	if man.K() != 8 || man.M() != 32 {
		t.Errorf("K/M = %d/%d", man.K(), man.M())
	}
	if err := man.VerifyAll(ns); err != nil {
		t.Errorf("clean content failed verification: %v", err)
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	ns := natives(t, 8, 32, 2)
	man, err := NewManifest(ns)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), ns[3]...)
	bad[7] ^= 0x01
	if err := man.Verify(3, bad); !errors.Is(err, ErrCorrupt) {
		t.Errorf("corruption not detected: %v", err)
	}
	nsCorrupt := append([][]byte(nil), ns...)
	nsCorrupt[3] = bad
	if err := man.VerifyAll(nsCorrupt); !errors.Is(err, ErrCorrupt) {
		t.Errorf("VerifyAll missed corruption: %v", err)
	}
}

func TestVerifyBounds(t *testing.T) {
	man, _ := NewManifest(natives(t, 4, 8, 3))
	if err := man.Verify(-1, nil); err == nil {
		t.Error("negative index accepted")
	}
	if err := man.Verify(4, nil); err == nil {
		t.Error("out-of-range index accepted")
	}
	if err := man.VerifyAll(make([][]byte, 3)); err == nil {
		t.Error("short set accepted")
	}
}

// TestManifestRunProofs: each run of a manifest built from its natives
// proves itself against the root, alone, in an expecting manifest; any
// flipped bit of a run's index, digests or proof is refused, as is run i's
// proof offered as run j's and every wrong digest or sibling count.
func TestManifestRunProofs(t *testing.T) {
	// 5,123 natives are six runs: RFC 6962's shape, not a power of two.
	for _, k := range []int{1, 1023, 1024, 1025, 5*RunLen + 3, 8188, 16384} {
		t.Run(fmt.Sprint(k), func(t *testing.T) {
			ns := natives(t, k, 2, int64(k))
			full, err := NewManifest(ns)
			if err != nil {
				t.Fatal(err)
			}
			runs := full.Runs()
			if want := (k + RunLen - 1) / RunLen; runs != want || !full.Complete() {
				t.Fatalf("%d runs, complete %v; want %d, true", runs, full.Complete(), want)
			}
			fresh := func() *Manifest {
				man, err := Expect(k, 2, full.Root())
				if err != nil {
					t.Fatal(err)
				}
				return man
			}
			// refused wants err to wrap want, or any error when want is nil.
			refused := func(what string, r int, digests, proof []byte, want error) {
				t.Helper()
				if err := fresh().AdoptRun(r, digests, proof); err == nil || want != nil && !errors.Is(err, want) {
					t.Errorf("%s: got %v, want %v", what, err, want)
				}
			}
			man := fresh()
			if err := man.Verify(0, ns[0]); err == nil {
				t.Error("a native verified against a run not held")
			}
			for r := range runs {
				digests, proof := full.RunProof(r)
				if n := min(RunLen, k-r*RunLen); len(digests) != n*DigestSize {
					t.Fatalf("run %d: %d digest bytes, want %d", r, len(digests), n*DigestSize)
				}
				if man.HoldsRun(r) || man.Complete() {
					t.Fatalf("run %d held before it was adopted", r)
				}
				if err := man.AdoptRun(r, digests, proof); err != nil || !man.HoldsRun(r) {
					t.Fatalf("run %d: %v", r, err)
				}
				for j := range runs {
					if j != r {
						refused(fmt.Sprintf("run %d's proof as run %d", r, j), j, digests, proof, nil)
					}
				}
				for bit := range 16 {
					if j := r ^ 1<<bit; j < runs {
						refused(fmt.Sprintf("run %d as %d", r, j), j, digests, proof, nil)
					} else {
						refused(fmt.Sprintf("run %d as %d", r, j), j, digests, proof, ErrBadManifest)
					}
				}
				for _, at := range []int{0, len(digests) - 1} {
					bad := bytes.Clone(digests)
					bad[at] ^= 0x10
					refused(fmt.Sprintf("run %d, digest byte %d flipped", r, at), r, bad, proof, ErrCorrupt)
				}
				for at := 0; at < len(proof); at += DigestSize {
					bad := bytes.Clone(proof)
					bad[at+7] ^= 0x01
					refused(fmt.Sprintf("run %d, sibling %d flipped", r, at/DigestSize), r, digests, bad, ErrCorrupt)
				}
				extra := make([]byte, DigestSize)
				refused("a digest short", r, digests[:len(digests)-DigestSize], proof, ErrBadManifest)
				refused("a digest over", r, append(bytes.Clone(digests), extra...), proof, ErrBadManifest)
				refused("a sibling over", r, digests, append(bytes.Clone(proof), extra...), ErrBadManifest)
				if len(proof) > 0 {
					refused("a sibling short", r, digests, proof[:len(proof)-DigestSize], ErrBadManifest)
				}
			}
			if !man.Complete() {
				t.Fatal("every run adopted, the manifest not complete")
			}
			if err := man.VerifyAll(ns); err != nil {
				t.Fatalf("the assembled manifest: %v", err)
			}
		})
	}
}

// TestManifestRootShape pins the tree: leaves are SHA-256(0x00 ‖ run), inner
// nodes SHA-256(0x01 ‖ left ‖ right), and five runs hash as RFC 6962 has it,
// the left subtree over the largest power of two below the count.
func TestManifestRootShape(t *testing.T) {
	const k = 4*RunLen + 1
	man, err := NewManifest(natives(t, k, 1, 9))
	if err != nil {
		t.Fatal(err)
	}
	var l [5][DigestSize]byte
	for r := range l {
		digests, _ := man.RunProof(r)
		l[r] = sha256.Sum256(append([]byte{0x00}, digests...))
	}
	node := func(a, b [DigestSize]byte) [DigestSize]byte {
		return sha256.Sum256(append(append([]byte{0x01}, a[:]...), b[:]...))
	}
	if want := node(node(node(l[0], l[1]), node(l[2], l[3])), l[4]); man.Root() != want {
		t.Fatalf("root %x, want %x", man.Root(), want)
	}
}

// TestManifestRoundtrip: a manifest survives the trip through its runs: a
// receiver's manifest that adopts every run of one built from the natives
// holds the same geometry and verifies every native.
func TestManifestRoundtrip(t *testing.T) {
	ns := natives(t, 16, 64, 4)
	man, _ := NewManifest(ns)
	back, err := Expect(man.K(), man.M(), man.Root())
	if err != nil {
		t.Fatal(err)
	}
	for r := range man.Runs() {
		digests, proof := man.RunProof(r)
		if err := back.AdoptRun(r, digests, proof); err != nil {
			t.Fatal(err)
		}
	}
	if err := back.VerifyAll(ns); err != nil || !back.Complete() {
		t.Errorf("roundtripped manifest: complete %v, %v", back.Complete(), err)
	}
	if back.K() != man.K() || back.M() != man.M() {
		t.Error("roundtrip metadata mismatch")
	}
}

// TestUnmarshalErrors: every structural rejection of a manifest taken off
// the wire — a geometry Expect refuses, a run of the wrong digest count —
// wraps ErrBadManifest, and so is told apart from a digest mismatch.
func TestUnmarshalErrors(t *testing.T) {
	man, _ := NewManifest(natives(t, 4, 8, 5))
	digests, proof := man.RunProof(0)
	adopt := func(d []byte) error {
		recv, _ := Expect(4, 8, man.Root())
		return recv.AdoptRun(0, d, proof)
	}
	expect := func(k, m int) error {
		_, err := Expect(k, m, man.Root())
		return err
	}
	tests := []struct {
		name string
		err  error
	}{
		{"short", adopt(digests[:DigestSize])},
		{"truncated digests", adopt(digests[:len(digests)-1])},
		{"trailing", adopt(append(bytes.Clone(digests), 0))},
		{"zero k", expect(0, 8)},
		{"huge k", expect(MaxK+1, 8)},
		{"zero m", expect(4, 0)},
		{"huge m", expect(4, MaxM+1)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if !errors.Is(tt.err, ErrBadManifest) {
				t.Errorf("error %v does not wrap ErrBadManifest", tt.err)
			}
		})
	}
}

func TestNewManifestRejectsEmptyPayloads(t *testing.T) {
	if _, err := NewManifest([][]byte{{}, {}}); err == nil {
		t.Error("zero-length natives accepted")
	}
}

func TestVerifyRejectsWrongLength(t *testing.T) {
	ns := natives(t, 4, 16, 6)
	man, err := NewManifest(ns)
	if err != nil {
		t.Fatal(err)
	}
	// A truncated payload must fail even if an attacker found a
	// same-digest preimage of a different length — the length gate runs
	// before the hash.
	if err := man.Verify(0, ns[0][:8]); !errors.Is(err, ErrCorrupt) {
		t.Errorf("short payload: %v", err)
	}
	if err := man.Verify(0, append(append([]byte(nil), ns[0]...), 0)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("long payload: %v", err)
	}
	if err := man.Verify(0, ns[0]); err != nil {
		t.Errorf("exact payload rejected: %v", err)
	}
}

// TestObjectIDCommitsToEveryField: the ID changes with each field it
// hashes, and its value is pinned — the derivation is the contract between
// every node that serves an object and every node that checks it, on every
// platform (CI runs this under GOARCH=386 too).
func TestObjectIDCommitsToEveryField(t *testing.T) {
	root := sha256.Sum256([]byte("manifest"))
	id := ObjectID(1<<40+1000, 16, 2, 63, root)
	other := root
	other[DigestSize-1] ^= 1
	for i, alt := range []packet.ObjectID{
		ObjectID(1<<40+1001, 16, 2, 63, root),
		ObjectID(1<<40+1000, 17, 2, 63, root),
		ObjectID(1<<40+1000, 16, 1, 63, root),
		ObjectID(1<<40+1000, 16, 2, 64, root),
		ObjectID(1<<40+1000, 16, 2, 63, other),
	} {
		if alt == id {
			t.Errorf("field %d changed, the ID did not", i)
		}
	}
	if got, want := id.String(), "94291673bf93acf23c50756aa5a336cf"; got != want {
		t.Errorf("ObjectID = %s, want %s", got, want)
	}
}

// TestParallelDigestsMatchSequential: the natives are digested in chunks
// over up to GOMAXPROCS goroutines, and the manifest is byte for byte the
// one-goroutine manifest — every digest the native's SHA-256 in its slot,
// the root and every run's proof the same — at k on either side of a run
// and of a chunk boundary, one native, and many.
func TestParallelDigestsMatchSequential(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, k := range []int{1, 1023, 1025, 16384} {
		ns := natives(t, k, 64, int64(k))
		var want *Manifest
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			man, err := NewManifest(ns)
			if err != nil {
				t.Fatal(err)
			}
			for x, n := range ns {
				d, _ := man.RunProof(x / RunLen)
				if sum := sha256.Sum256(n); !bytes.Equal(d[x%RunLen*DigestSize:][:DigestSize], sum[:]) {
					t.Fatalf("k=%d, GOMAXPROCS %d: native %d's digest is not its SHA-256", k, procs, x)
				}
			}
			if want == nil {
				want = man
				continue
			}
			if man.Root() != want.Root() || man.Runs() != want.Runs() {
				t.Fatalf("k=%d: GOMAXPROCS %d gives root %x over %d runs, one goroutine %x over %d",
					k, procs, man.Root(), man.Runs(), want.Root(), want.Runs())
			}
			for r := 0; r < man.Runs(); r++ {
				d, p := man.RunProof(r)
				wd, wp := want.RunProof(r)
				if !bytes.Equal(d, wd) || !bytes.Equal(p, wp) {
					t.Errorf("k=%d: run %d's digests or proof differ at GOMAXPROCS %d", k, r, procs)
				}
			}
		}
	}
}
