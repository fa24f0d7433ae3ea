package swarm_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"ltnc"
	"ltnc/swarm"
	"ltnc/transport"
)

// startNode builds a session from cfg, runs it in the background and
// registers cleanup that shuts it down and asserts a clean exit.
func startNode(t *testing.T, ctx context.Context, cfg swarm.Config) *swarm.Session {
	t.Helper()
	s, err := swarm.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runCtx, cancel := context.WithCancel(ctx)
	done := make(chan error, 1)
	go func() { done <- s.Run(runCtx) }()
	t.Cleanup(func() {
		cancel()
		s.Close()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("session exit: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("session did not shut down")
		}
	})
	return s
}

func attach(t *testing.T, sw *transport.Switch, name swarm.Addr) transport.Transport {
	t.Helper()
	tr, err := sw.Attach(name)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestSwitchEndToEndAdverse drives a source → recoding relay → client
// topology over the in-memory Switch with every adverse condition at once
// — frame loss, jitter-induced reordering, and a shallow receive queue
// that overflows under the push bursts — and asserts the transfer still
// completes byte-identically with bounded relay memory. The client fetches
// through its configured peer (no explicit source address) and observes
// progress through Subscribe.
func TestSwitchEndToEndAdverse(t *testing.T) {
	const (
		size = 256 * 1024
		k    = 256
	)
	sw, err := transport.NewSwitch(transport.SwitchConfig{
		LossRate:   0.10,
		Latency:    200 * time.Microsecond,
		Jitter:     2 * time.Millisecond, // >> latency: heavy reordering
		QueueDepth: 4,                    // shallow: bursts overflow
		Seed:       23,
	})
	if err != nil {
		t.Fatal(err)
	}
	content := make([]byte, size)
	rand.New(rand.NewSource(99)).Read(content)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	relay := startNode(t, ctx, swarm.Config{
		Transport:  attach(t, sw, "relay"),
		Relay:      true,
		Seed:       12,
		Tick:       500 * time.Microsecond,
		MaxObjects: 4, // bounded-memory assertion below leans on this
	})
	src := startNode(t, ctx, swarm.Config{
		Transport:   attach(t, sw, "source"),
		Peers:       []swarm.Addr{"relay"},
		Seed:        13,
		Tick:        500 * time.Microsecond,
		Generations: 4, // generations must complete (possibly out of order) under the same adversity
	})
	id, err := src.Serve(content, k)
	if err != nil {
		t.Fatal(err)
	}
	if id != swarm.ContentID(content) {
		t.Fatal("served id does not match content hash")
	}

	client := startNode(t, ctx, swarm.Config{
		Transport: attach(t, sw, "client"),
		Peers:     []swarm.Addr{"relay"}, // fetch asks configured peers
		Seed:      14,
	})
	// Watch sees every notification (no buffer to overflow); Subscribe is
	// the lossy channel form — it may drop snapshots under lag but must
	// deliver at least one.
	var completes atomic.Int64
	stopWatch := client.Watch(id, func(o swarm.ObjectStats) {
		if o.Complete {
			completes.Add(1)
		}
	})
	defer stopWatch()
	events, stop := client.Subscribe(id, 16)
	defer stop()

	got, report, err := client.Fetch(ctx, id)
	if err != nil {
		t.Fatalf("fetch under loss+reorder+overflow: %v", err)
	}
	if !bytes.Equal(got, content) {
		t.Fatalf("content mismatch: %d bytes fetched, %d served", len(got), size)
	}
	if report.Overhead() < 1 {
		t.Fatalf("overhead %.3f < 1", report.Overhead())
	}
	if report.Stats.Generations != 4 || report.Stats.GensComplete != 4 {
		t.Fatalf("generation progress wrong under adversity: %+v", report.Stats)
	}
	t.Logf("fetched %d bytes in %v, overhead %.3f (%d generations)",
		report.Bytes, report.Elapsed, report.Overhead(), report.Stats.Generations)

	// Progress must have flowed: the completion notification fires on a
	// decode worker just after Fetch unblocks, so poll briefly for it.
	for deadline := time.Now().Add(10 * time.Second); completes.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("watcher never saw completion")
		}
		time.Sleep(time.Millisecond)
	}
	seen := 0
	for drained := false; !drained; {
		select {
		case <-events:
			seen++
		default:
			drained = true
		}
	}
	if seen == 0 {
		t.Fatal("no progress snapshots delivered on the subscription channel")
	}

	// The adverse conditions must actually have fired.
	if sw.Lost() == 0 {
		t.Fatal("loss injection never dropped a frame")
	}
	if sw.Dropped() == 0 {
		t.Fatal("queue overflow never dropped a frame")
	}
	t.Logf("switch: %d lost, %d overflow-dropped", sw.Lost(), sw.Dropped())

	// Bounded memory: the relay holds only the learned object, and it
	// both consumed the source's stream and emitted recoded packets.
	if objs := relay.Stats(); len(objs) > 4 {
		t.Fatalf("relay state grew to %d objects under churn, bound 4", len(objs))
	}
	rstats, ok := relay.Object(id)
	if !ok {
		t.Fatal("relay never learned the object")
	}
	if rstats.Received == 0 || rstats.Sent == 0 {
		t.Fatalf("relay did not relay: %+v", rstats)
	}
	t.Logf("relay: received %d, sent %d recoded, decoded %d/%d",
		rstats.Received, rstats.Sent, rstats.Decoded, rstats.K)
}

// TestServeReaderAndFile covers the io-native serve surfaces: both must
// derive the same content ID as Serve on the raw bytes.
func TestServeReaderAndFile(t *testing.T) {
	sw, err := transport.NewSwitch(transport.SwitchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	content := make([]byte, 64*1024)
	rand.New(rand.NewSource(5)).Read(content)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s := startNode(t, ctx, swarm.Config{Transport: attach(t, sw, "a")})

	id, err := s.ServeReader(bytes.NewReader(content), 64)
	if err != nil {
		t.Fatal(err)
	}
	if id != swarm.ContentID(content) {
		t.Fatal("ServeReader id mismatch")
	}

	other := append([]byte(nil), content...)
	other[0] ^= 1
	path := filepath.Join(t.TempDir(), "obj.bin")
	if err := os.WriteFile(path, other, 0o644); err != nil {
		t.Fatal(err)
	}
	id2, err := s.ServeFile(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	if id2 != swarm.ContentID(other) {
		t.Fatal("ServeFile id mismatch")
	}
	if _, err := s.ServeFile(filepath.Join(t.TempDir(), "missing"), 64); err == nil {
		t.Fatal("missing file accepted")
	}

	stats, ok := s.Object(id)
	if !ok || !stats.Complete || !stats.Pinned {
		t.Fatalf("served object stats: %+v (ok=%v)", stats, ok)
	}
}

// TestWatchBeforeServe registers a watcher for an object the session does
// not hold yet; serving the content later must fire the watcher with a
// complete snapshot (placeholder adoption).
func TestWatchBeforeServe(t *testing.T) {
	sw, err := transport.NewSwitch(transport.SwitchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s := startNode(t, ctx, swarm.Config{Transport: attach(t, sw, "a")})

	content := make([]byte, 16*1024)
	rand.New(rand.NewSource(6)).Read(content)
	id := swarm.ContentID(content)

	var calls, completes atomic.Int64
	cancelWatch := s.Watch(id, func(o swarm.ObjectStats) {
		calls.Add(1)
		if o.Complete {
			completes.Add(1)
		}
	})
	defer cancelWatch()
	if calls.Load() != 1 {
		t.Fatalf("immediate snapshot not delivered (calls=%d)", calls.Load())
	}
	if completes.Load() != 0 {
		t.Fatal("empty placeholder reported complete")
	}

	if _, err := s.Serve(content, 32); err != nil {
		t.Fatalf("serve over watched placeholder: %v", err)
	}
	if completes.Load() == 0 {
		t.Fatal("watcher never saw completion after Serve")
	}

	// A second Serve of the same content is a duplicate.
	if _, err := s.Serve(content, 32); err == nil {
		t.Fatal("duplicate serve accepted")
	}
}

// TestFetchNoPeers asserts the typed error when a fetch has nowhere to
// go.
func TestFetchNoPeers(t *testing.T) {
	sw, err := transport.NewSwitch(transport.SwitchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s := startNode(t, ctx, swarm.Config{Transport: attach(t, sw, "a")})
	var id swarm.ObjectID
	id[0] = 1
	if _, _, err := s.Fetch(ctx, id); !errors.Is(err, swarm.ErrNoPeers) {
		t.Fatalf("fetch with no peers: %v", err)
	}
}

// TestConfigValidation covers New's error paths.
func TestConfigValidation(t *testing.T) {
	if _, err := swarm.New(swarm.Config{}); err == nil {
		t.Fatal("config without transport or listen accepted")
	}
	if _, err := swarm.New(swarm.Config{Listen: "not an address"}); err == nil {
		t.Fatal("malformed listen address accepted")
	}
	sw, err := transport.NewSwitch(transport.SwitchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := swarm.New(swarm.Config{Transport: attach(t, sw, "a"), Tick: -time.Second}); err == nil {
		t.Fatal("negative tick accepted")
	}
}

// TestNodeOptionsPlumbing checks that the root package's functional
// options reach the session: a WithSeed override makes two sessions'
// recoded streams deterministic, observed as byte-identical fetches, and
// disabling redundancy detection still converges.
func TestNodeOptionsPlumbing(t *testing.T) {
	sw, err := transport.NewSwitch(transport.SwitchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	content := make([]byte, 32*1024)
	rand.New(rand.NewSource(7)).Read(content)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	src := startNode(t, ctx, swarm.Config{
		Transport: attach(t, sw, "src"),
		Tick:      500 * time.Microsecond,
		Node:      []ltnc.Option{ltnc.WithSeed(77), ltnc.WithRedundancyDetection(false)},
	})
	id, err := src.Serve(content, 64)
	if err != nil {
		t.Fatal(err)
	}
	client := startNode(t, ctx, swarm.Config{
		Transport: attach(t, sw, "client"),
		Node:      []ltnc.Option{ltnc.WithSeed(78)},
	})
	got, _, err := client.Fetch(ctx, id, "src")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("content mismatch with node options set")
	}
}

// TestGenerationsConfigPlumbing checks the generation-count resolution
// order — ltnc.WithGenerations beats Config.Generations beats the
// automatic choice — and the typed error for nonsense counts.
func TestGenerationsConfigPlumbing(t *testing.T) {
	sw, err := transport.NewSwitch(transport.SwitchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	content := make([]byte, 8*1024)
	rand.New(rand.NewSource(9)).Read(content)

	serveGens := func(name swarm.Addr, cfg swarm.Config, k int) int {
		t.Helper()
		cfg.Transport = attach(t, sw, name)
		s := startNode(t, ctx, cfg)
		id, err := s.Serve(append([]byte(nil), content...), k)
		if err != nil {
			t.Fatal(err)
		}
		stats, ok := s.Object(id)
		if !ok {
			t.Fatal("served object missing")
		}
		return stats.Generations
	}

	if g := serveGens("cfg", swarm.Config{Generations: 4}, 64); g != 4 {
		t.Errorf("Config.Generations: G = %d, want 4", g)
	}
	if g := serveGens("opt", swarm.Config{
		Generations: 4,
		Node:        []ltnc.Option{ltnc.WithGenerations(2)},
	}, 64); g != 2 {
		t.Errorf("WithGenerations override: G = %d, want 2", g)
	}
	// Automatic: small k stays single-generation, large k chunks.
	if g := serveGens("auto-small", swarm.Config{}, 64); g != 1 {
		t.Errorf("auto G for k=64: %d, want 1", g)
	}
	if g := serveGens("auto-large", swarm.Config{}, 4096); g != 4 {
		t.Errorf("auto G for k=4096: %d, want 4", g)
	}

	if _, err := swarm.New(swarm.Config{Listen: "127.0.0.1:0", Generations: -1}); !errors.Is(err, ltnc.ErrBadGeneration) {
		t.Errorf("negative G err = %v, want ltnc.ErrBadGeneration", err)
	}
}
