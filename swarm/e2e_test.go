package swarm_test

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
	"time"

	"ltnc/swarm"
)

// TestLoopbackEndToEnd wires the public API into the acceptance topology:
// source session → recoding relay → fetch client, over real UDP sockets
// on 127.0.0.1, transferring a >1 MiB object byte-identically. The relay
// is a genuine intermediary: the client subscribes at the relay, never at
// the source, so every byte it decodes travelled through the relay's
// recode path (sessions only emit packets produced by the recoder, never
// raw forwards; see the vec-capture test in internal/session for the
// packet-level proof).
func TestLoopbackEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second UDP transfer")
	}
	const (
		size = 1280 * 1024 // 1.25 MiB
		k    = 1024
	)
	content := make([]byte, size)
	rand.New(rand.NewSource(42)).Read(content)

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// Relay first (no peers: it learns the object from the source's push).
	relay := startNode(t, ctx, swarm.Config{
		Listen: "127.0.0.1:0",
		Relay:  true,
		Seed:   2,
		Tick:   500 * time.Microsecond,
	})

	// Source pushes toward the relay only.
	src := startNode(t, ctx, swarm.Config{
		Listen: "127.0.0.1:0",
		Peers:  []swarm.Addr{relay.LocalAddr()},
		Seed:   3,
		Tick:   500 * time.Microsecond,
	})
	id, err := src.Serve(content, k)
	if err != nil {
		t.Fatal(err)
	}
	if id != swarm.ContentID(content) {
		t.Fatal("served id does not match content hash")
	}

	// Fetch from the relay, never the source.
	client := startNode(t, ctx, swarm.Config{
		Listen: "127.0.0.1:0",
		Seed:   4,
	})
	got, report, err := client.Fetch(ctx, id, relay.LocalAddr())
	if err != nil {
		t.Fatalf("fetch: %v", err)
	}
	if !bytes.Equal(got, content) {
		t.Fatalf("content mismatch: %d bytes fetched, %d served", len(got), size)
	}
	if report.Overhead() < 1 {
		t.Fatalf("overhead %.3f < 1", report.Overhead())
	}
	t.Logf("fetched %d bytes in %v, overhead %.3f, aborted %d",
		report.Bytes, report.Elapsed, report.Overhead(), report.Stats.Aborted)

	// The relay both consumed the source's stream and emitted recoded
	// packets of its own.
	rstats, ok := relay.Object(id)
	if !ok {
		t.Fatal("relay holds no state for the object")
	}
	if rstats.Received == 0 {
		t.Fatal("relay received nothing from the source")
	}
	if rstats.Sent == 0 {
		t.Fatal("relay recoded nothing toward the client")
	}
	t.Logf("relay: received %d, sent %d recoded, decoded %d/%d",
		rstats.Received, rstats.Sent, rstats.Decoded, rstats.K)
}

// TestBootstrapEndToEnd joins a swarm through the membership plane over
// real UDP sockets: the client is configured with nothing but a
// bootstrap address — no peers, no explicit fetch source — and must
// discover the swarm via MEMBER shuffles and fetch byte-identically
// through whatever neighbors gossip surfaces.
func TestBootstrapEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second UDP transfer")
	}
	const (
		size = 96 * 1024
		k    = 256
	)
	content := make([]byte, size)
	rand.New(rand.NewSource(7)).Read(content)

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	src := startNode(t, ctx, swarm.Config{
		Listen: "127.0.0.1:0",
		Seed:   5,
		Tick:   500 * time.Microsecond,
	})
	id, err := src.Serve(content, k)
	if err != nil {
		t.Fatal(err)
	}
	// A relay that itself joined via the bootstrap node.
	relay := startNode(t, ctx, swarm.Config{
		Listen:    "127.0.0.1:0",
		Relay:     true,
		Bootstrap: []swarm.Addr{src.LocalAddr()},
		Seed:      6,
		Tick:      500 * time.Microsecond,
	})
	client := startNode(t, ctx, swarm.Config{
		Listen:    "127.0.0.1:0",
		Bootstrap: []swarm.Addr{src.LocalAddr()},
		Seed:      7,
	})

	got, report, err := client.Fetch(ctx, id) // no source: membership steering
	if err != nil {
		t.Fatalf("bootstrap fetch: %v", err)
	}
	if !bytes.Equal(got, content) {
		t.Fatalf("content mismatch: %d bytes fetched, %d served", len(got), size)
	}
	t.Logf("fetched %d bytes in %v via bootstrap, overhead %.3f",
		report.Bytes, report.Elapsed, report.Overhead())

	// The shuffles must eventually give the client a view of the swarm.
	deadline := time.Now().Add(30 * time.Second)
	for len(client.Neighbors()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("client never selected neighbors from its view")
		}
		time.Sleep(20 * time.Millisecond)
	}
	_ = relay
}
