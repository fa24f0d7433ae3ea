package swarm_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ltnc/internal/packet"
	"ltnc/swarm"
	"ltnc/transport"
)

// headerTap wraps a transport and records, for every DATA frame received,
// the parsed wire view and the header size in bytes (frame length minus
// the session type byte and the payload). It proves the O(k/G) header
// property on the actual wire traffic rather than on size formulas.
type headerTap struct {
	transport.Transport
	mu      sync.Mutex
	headers []int
	kPers   []int
	gens    []uint32
	genIDs  []uint32
}

func (h *headerTap) Recv(ctx context.Context) (transport.Frame, error) {
	f, err := h.Transport.Recv(ctx)
	if err != nil || len(f.Data) == 0 || f.Data[0] != 0x01 { // session DATA frame type
		return f, err
	}
	if wv, perr := packet.ParseWire(f.Data[1:]); perr == nil {
		h.mu.Lock()
		h.headers = append(h.headers, len(f.Data)-1-wv.M)
		h.kPers = append(h.kPers, wv.K)
		h.gens = append(h.gens, wv.Generations)
		h.genIDs = append(h.genIDs, wv.Generation)
		h.mu.Unlock()
	}
	return f, err
}

// TestGenerationLargeObjectE2E is the generation acceptance topology: an
// 8 MiB object served as G=8 generations (picked automatically from
// k=8192), pushed through a recoding relay over a lossy, jittery Switch,
// fetched byte-identically — with every DATA header observed at the
// client asserted to be O(k/G): sized by the per-generation code length
// k/G = 1024, independent of the object's total k.
func TestGenerationLargeObjectE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second 8 MiB transfer")
	}
	const (
		size = 8 * 1024 * 1024 // 8 MiB
		k    = 8192            // m = 1 KiB natives; auto G = ceil(k/1024) = 8
		gens = 8
		kPer = k / gens
	)
	sw, err := transport.NewSwitch(transport.SwitchConfig{
		LossRate:   0.02,
		Latency:    100 * time.Microsecond,
		Jitter:     500 * time.Microsecond, // reorders across generations
		QueueDepth: 512,
		Seed:       41,
	})
	if err != nil {
		t.Fatal(err)
	}
	content := make([]byte, size)
	rand.New(rand.NewSource(4242)).Read(content)

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	relay := startNode(t, ctx, swarm.Config{
		Transport: attach(t, sw, "relay"),
		Relay:     true,
		Seed:      51,
		Tick:      250 * time.Microsecond,
	})
	src := startNode(t, ctx, swarm.Config{
		Transport: attach(t, sw, "source"),
		Peers:     []swarm.Addr{"relay"},
		Seed:      52,
		Tick:      250 * time.Microsecond,
	})
	id, err := src.Serve(content, k)
	if err != nil {
		t.Fatal(err)
	}
	srcStats, ok := src.Object(id)
	if !ok || srcStats.Generations != gens || srcStats.KPer != kPer {
		t.Fatalf("automatic generation choice wrong: %+v", srcStats)
	}

	tap := &headerTap{Transport: attach(t, sw, "client")}
	client := startNode(t, ctx, swarm.Config{
		Transport: tap,
		Peers:     []swarm.Addr{"relay"}, // fetch through the relay, never the source
		Seed:      53,
	})

	// Watch snapshots must be monotone in total and per-generation
	// progress even though generations complete in arrival order, not
	// index order.
	var mu sync.Mutex
	var lastDecoded, lastGensComplete, maxGensComplete int
	monotone := true
	stopWatch := client.Watch(id, func(o swarm.ObjectStats) {
		mu.Lock()
		defer mu.Unlock()
		if o.Decoded < lastDecoded || o.GensComplete < lastGensComplete {
			monotone = false
		}
		lastDecoded, lastGensComplete = o.Decoded, o.GensComplete
		if o.GensComplete > maxGensComplete {
			maxGensComplete = o.GensComplete
		}
	})
	defer stopWatch()

	got, report, err := client.Fetch(ctx, id)
	if err != nil {
		t.Fatalf("fetch: %v", err)
	}
	if !bytes.Equal(got, content) {
		t.Fatalf("content mismatch: %d bytes fetched, %d served", len(got), size)
	}
	if report.Stats.Generations != gens || report.Stats.GensComplete != gens {
		t.Fatalf("fetch report generation progress wrong: %+v", report.Stats)
	}

	// The terminal Watch snapshot is delivered asynchronously: Fetch wakes
	// on the done channel, which closes inside the decode path, while the
	// notification dispatches after that batch's locks drop — so give the
	// final snapshot a moment to land before asserting on it.
	watchDeadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		sawAll := maxGensComplete == gens
		mu.Unlock()
		if sawAll || time.Now().After(watchDeadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	if !monotone {
		t.Error("watch snapshots regressed across generations")
	}
	if maxGensComplete != gens {
		t.Errorf("watcher saw %d/%d generations complete", maxGensComplete, gens)
	}
	mu.Unlock()

	// The relay genuinely recoded the generation-structured object.
	rstats, ok := relay.Object(id)
	if !ok || rstats.Received == 0 || rstats.Sent == 0 {
		t.Fatalf("relay did not recode: %+v", rstats)
	}
	if rstats.Generations != gens {
		t.Fatalf("relay learned wrong geometry: %+v", rstats)
	}

	// Every DATA header the client saw is O(k/G): vectors span one
	// generation (k/G = 1024 natives), the count travels in-band, and
	// the byte size matches GenHeaderSize(k/G) — a constant independent
	// of total k, where a flat v2 header over k = 8192 would be
	// ObjectHeaderSize(k) bytes (~6x larger).
	tap.mu.Lock()
	defer tap.mu.Unlock()
	if len(tap.headers) == 0 {
		t.Fatal("tap saw no DATA frames")
	}
	wantHeader := packet.GenHeaderSize(kPer)
	for i, hb := range tap.headers {
		if hb != wantHeader {
			t.Fatalf("frame %d: header %d bytes, want %d", i, hb, wantHeader)
		}
		if tap.kPers[i] != kPer || tap.gens[i] != gens || tap.genIDs[i] >= gens {
			t.Fatalf("frame %d: geometry k=%d G=%d gen=%d", i, tap.kPers[i], tap.gens[i], tap.genIDs[i])
		}
	}
	if flat := packet.ObjectHeaderSize(k); wantHeader >= flat {
		t.Fatalf("generation header %dB not smaller than flat header %dB", wantHeader, flat)
	}
	t.Logf("fetched %d bytes in %v, overhead %.3f; %d DATA headers, each %d B (flat would be %d B)",
		report.Bytes, report.Elapsed, report.Overhead(), len(tap.headers),
		wantHeader, packet.ObjectHeaderSize(k))
}

// TestLargeManifestArrivesBeforeFirstGeneration: a 16 MiB object's
// manifest is 16 MANIFEST frames, 524 KiB — more than a default socket
// receive buffer holds. The source's proof pass sends them once, two a
// round, each ahead of the rows of the generation it proves, and each run
// of digests is checked on arrival alone; so every generation's run is in
// before that generation completes, in every round over loopback UDP: a
// complete generation whose run is held verifies at once, so at no
// snapshot is a generation complete and not verified. A frame lost on the
// way comes again only on the fetcher's need. Without its run no
// generation can verify, and the object cannot complete.
func TestLargeManifestArrivesBeforeFirstGeneration(t *testing.T) {
	const size, k = 16 << 20, 16 << 10
	content := make([]byte, size)
	rand.New(rand.NewSource(16)).Read(content)
	for round := range 10 {
		t.Run(fmt.Sprint("round", round), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			src := startNode(t, ctx, swarm.Config{Listen: "127.0.0.1:0", Seed: int64(2*round + 1)})
			id, err := src.Serve(content, k)
			if err != nil {
				t.Fatal(err)
			}
			dst := startNode(t, ctx, swarm.Config{Listen: "127.0.0.1:0", Seed: int64(2*round + 2)})
			var early atomic.Int32 // generations complete while their runs were not in
			stop := dst.Watch(id, func(o swarm.ObjectStats) {
				if n := o.GensComplete - o.GensVerified; n > 0 {
					early.Store(int32(n))
				}
			})
			defer stop()
			got, rep, err := dst.Fetch(ctx, id, src.LocalAddr())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, content) || !rep.Stats.HaveManifest {
				t.Fatalf("fetch: bytes equal %v, manifest %v", bytes.Equal(got, content), rep.Stats.HaveManifest)
			}
			if n := early.Load(); n > 0 {
				t.Fatalf("%d generations complete before their runs of the manifest were in", n)
			}
		})
	}
}
