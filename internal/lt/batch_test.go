package lt

import (
	"bytes"
	"math/rand"
	"testing"

	"ltnc/internal/bitvec"
	"ltnc/internal/packet"
)

// batchStream builds a decodable stream for k natives of m bytes with the
// adversarial shapes batched ingestion must survive: random insertion
// order, duplicated packets, and stale packets (combinations of natives
// that decode early, arriving long after they are redundant).
func batchStream(t *testing.T, rng *rand.Rand, k, m int) ([]*packet.Packet, [][]byte) {
	t.Helper()
	natives := make([][]byte, k)
	for i := range natives {
		natives[i] = make([]byte, m)
		rng.Read(natives[i])
	}
	var stream []*packet.Packet
	// Every native once (guarantees decodability) plus random mixtures.
	for i := 0; i < k; i++ {
		stream = append(stream, packet.Native(k, i, natives[i]))
	}
	for j := 0; j < 2*k; j++ {
		deg := 1 + rng.Intn(4)
		p := packet.New(k, m)
		for d := 0; d < deg; d++ {
			x := rng.Intn(k)
			if p.Vec.Get(x) {
				continue
			}
			p.Vec.Set(x)
			bitvec.XorBytes(p.Payload, natives[x])
		}
		if p.IsZero() {
			continue
		}
		stream = append(stream, p)
	}
	// Duplicates: resend ~25% of packets verbatim.
	for j := 0; j < len(stream)/4; j++ {
		stream = append(stream, stream[rng.Intn(len(stream))])
	}
	// Random permutation makes some packets stale (their natives decoded
	// by the time they arrive) and scatters the duplicates.
	rng.Shuffle(len(stream), func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })
	return stream, natives
}

func decodeSequential(t *testing.T, stream []*packet.Packet, k, m int) *Decoder {
	t.Helper()
	d, err := NewDecoder(k, m, nil, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range stream {
		d.Insert(p)
	}
	return d
}

func decodeBatched(t *testing.T, stream []*packet.Packet, k, m, batch int) *Decoder {
	t.Helper()
	d, err := NewDecoder(k, m, nil, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(stream); off += batch {
		d.InsertBatch(stream[off:min(off+batch, len(stream)):len(stream)])
	}
	return d
}

// TestBatchedDecodeByteIdentical: for random streams with permutations,
// duplicates and stale packets, batched ingestion must recover exactly
// the same native payloads as the packet-at-a-time path — and the same
// counters, since the batch form is defined as drain-in-arrival-order.
func TestBatchedDecodeByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 25; trial++ {
		k := 8 + rng.Intn(57)
		m := 1 + rng.Intn(64)
		batch := 1 + rng.Intn(17)
		stream, natives := batchStream(t, rng, k, m)

		seq := decodeSequential(t, stream, k, m)
		bat := decodeBatched(t, stream, k, m, batch)

		if !seq.Complete() {
			t.Fatalf("trial %d (k=%d): sequential decode incomplete (%d/%d)", trial, k, seq.DecodedCount(), k)
		}
		if !bat.Complete() {
			t.Fatalf("trial %d (k=%d): batched decode incomplete (%d/%d)", trial, k, bat.DecodedCount(), k)
		}
		for x := 0; x < k; x++ {
			want := natives[x]
			if got := seq.NativeData(x); !bytes.Equal(got, want) {
				t.Fatalf("trial %d: sequential native %d corrupt", trial, x)
			}
			if got := bat.NativeData(x); !bytes.Equal(got, want) {
				t.Fatalf("trial %d: batched native %d differs from source (batch=%d)", trial, x, batch)
			}
		}
		if seq.Received() != bat.Received() || seq.RedundantDropped() != bat.RedundantDropped() {
			t.Fatalf("trial %d: counters diverge: sequential (recv %d, red %d) vs batched (recv %d, red %d)",
				trial, seq.Received(), seq.RedundantDropped(), bat.Received(), bat.RedundantDropped())
		}
	}
}

// TestBatchedDecodePartialStream: byte identity must hold mid-decode too,
// not just at completion — cut the stream short and compare what each
// path recovered.
func TestBatchedDecodePartialStream(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		k := 16 + rng.Intn(48)
		m := 32
		stream, natives := batchStream(t, rng, k, m)
		cut := len(stream) / 2
		seq := decodeSequential(t, stream[:cut], k, m)
		bat := decodeBatched(t, stream[:cut], k, m, 7)
		if seq.DecodedCount() != bat.DecodedCount() {
			t.Fatalf("trial %d: decoded %d sequential vs %d batched", trial, seq.DecodedCount(), bat.DecodedCount())
		}
		for x := 0; x < k; x++ {
			if seq.IsDecoded(x) != bat.IsDecoded(x) {
				t.Fatalf("trial %d: native %d decoded on one path only", trial, x)
			}
			if seq.IsDecoded(x) && !bytes.Equal(bat.NativeData(x), natives[x]) {
				t.Fatalf("trial %d: native %d corrupt on batched path", trial, x)
			}
		}
	}
}

// TestInsertOwnedMatchesInsert: the zero-copy owned-buffer path must be
// indistinguishable from Insert.
func TestInsertOwnedMatchesInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	const (
		k = 32
		m = 16
	)
	stream, natives := batchStream(t, rng, k, m)

	plain := decodeSequential(t, stream, k, m)
	owned, err := NewDecoder(k, m, nil, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range stream {
		vec := owned.Arena().Vec()
		vec.CopyFrom(p.Vec)
		var row []byte
		if len(p.Payload) > 0 {
			row = owned.Arena().Row()
			copy(row, p.Payload)
		}
		owned.InsertOwned(vec, row, -1)
	}
	if !owned.Complete() {
		t.Fatal("owned-buffer decode incomplete")
	}
	for x := 0; x < k; x++ {
		if !bytes.Equal(owned.NativeData(x), natives[x]) {
			t.Fatalf("native %d corrupt on owned path", x)
		}
	}
	if plain.Received() != owned.Received() || plain.StoredCount() != owned.StoredCount() {
		t.Fatalf("paths diverge: plain (recv %d, stored %d) vs owned (recv %d, stored %d)",
			plain.Received(), plain.StoredCount(), owned.Received(), owned.StoredCount())
	}
}
