package experiments

import (
	"bytes"
	"math/rand"
	"testing"

	"ltnc/internal/generation"
	"ltnc/internal/lt"
	"ltnc/internal/packet"
)

// TestGenerationSweep runs a scaled-down generation sweep (one 64 KiB
// object of k = 256 at G = 1, 4 and 16, the ingest loop of
// BenchmarkDecodeIngestGenerations) and pins its invariants: the object
// decodes to its content at every G, the header bytes per frame shrink
// strictly as G grows (the O(k/G) property the sweep tracks), and
// overhead stays ≥ 1.
func TestGenerationSweep(t *testing.T) {
	const k = 256
	content := make([]byte, 64*1024)
	rand.New(rand.NewSource(9000)).Read(content)
	id := packet.NewObjectID(content)
	natives, err := lt.Split(content, k)
	if err != nil {
		t.Fatal(err)
	}
	m := len(natives[0])
	prevHeader := 0
	for gi, G := range []int{1, 4, 16} {
		opts := generation.Options{Generations: G, KPerGeneration: k / G, M: m, Seed: 1, Stream: 9100 + gi}
		src, err := generation.New(opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := src.Seed(natives); err != nil {
			t.Fatal(err)
		}
		sink, err := generation.New(opts)
		if err != nil {
			t.Fatal(err)
		}
		if sink.KPer() != k/G {
			t.Fatalf("G=%d: kPer %d", G, sink.KPer())
		}
		header, taken := 0, 0
		for taken < 8*k && !sink.Complete() {
			z, ok := src.Recode(nil)
			if !ok {
				t.Fatalf("G=%d: recode failed", G)
			}
			z.Object = id
			data, err := packet.Marshal(z)
			if err != nil {
				t.Fatal(err)
			}
			header = len(data) - m
			taken++
			wv, err := packet.ParseWire(data)
			if err != nil {
				t.Fatal(err)
			}
			g := int(wv.Generation)
			if sink.GenComplete(g) {
				continue // aborted on the header, as the session would
			}
			vec := sink.AcquireVec(g)
			if err := vec.UnmarshalInto(wv.VecBytes(data)); err != nil {
				t.Fatal(err)
			}
			if sink.IsRedundant(g, vec) {
				sink.ReleaseVec(g, vec)
				continue
			}
			row := sink.AcquireRow(g)
			copy(row, wv.PayloadBytes(data))
			sink.ReceiveOwned(g, vec, row)
		}
		if !sink.Complete() {
			t.Fatalf("G=%d: object did not decode from %d frames", G, taken)
		}
		rows, err := sink.Data()
		if err != nil {
			t.Fatal(err)
		}
		if got := bytes.Join(rows, nil)[:len(content)]; !bytes.Equal(got, content) {
			t.Fatalf("G=%d: decoded content differs", G)
		}
		overhead := float64(taken) / k
		if overhead < 1 {
			t.Fatalf("G=%d: overhead %.3f < 1", G, overhead)
		}
		if prevHeader != 0 && header >= prevHeader {
			t.Fatalf("header bytes did not shrink: G=%d %dB vs %dB", G, header, prevHeader)
		}
		prevHeader = header
		t.Logf("G=%-3d k/G=%-4d %4d header B/pkt overhead %.3f", G, k/G, header, overhead)
	}
}
