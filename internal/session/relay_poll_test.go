package session

import (
	"bytes"
	"context"
	"slices"
	"testing"
	"time"

	"ltnc/internal/transport"
)

// TestPolluterThroughRelay is the laundering regression: a fetcher pulls
// through an honest relay while a polluter sprays forged unit rows at it.
// The forged rows land pre-manifest, get recoded into the fetcher's
// push-back toward the relay, and the relay must NOT convict the honest
// fetcher for them (conviction requires solicitation; the relay never
// REQ'd the fetcher). The fetcher itself convicts the polluter — its
// forged unit rows are digest-checked on arrival once the manifest is
// held — and completes byte-identically.
func TestPolluterThroughRelay(t *testing.T) {
	sw, err := transport.NewSwitch(transport.SwitchConfig{QueueDepth: 1024, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	const (
		gens = 4
		kPer = 16
		m    = 64
	)
	src := startSession(t, attach(t, sw, "source"), func(c *Config) { c.Relay = false })
	relay := startSession(t, attach(t, sw, "relay"), func(c *Config) { c.Relay = true })
	dst := startSession(t, attach(t, sw, "dest"), nil)
	polluterPort(t, attach(t, sw, "polluter"), kPer, m, gens, 8, false)

	src.AddPeer("relay")

	content := testContent(gens*kPer*m, 31)
	id, err := src.Serve(content, gens*kPer, gens)
	if err != nil {
		t.Fatal(err)
	}

	// The relay answers the fetcher's REQ with META and manifest once it
	// holds both; a REQ that beat them would get the manifest only at the
	// META resend, after the paced fetch is over.
	for o, _ := relay.Object(id); !o.HaveManifest; o, _ = relay.Object(id) {
		if o.Complete {
			t.Fatal("set-up: the relay completed the object without its manifest")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	got, stats, err := dst.Fetch(ctx, id, "relay", "polluter")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("fetched content differs under pollution")
	}
	if !stats.HaveManifest {
		t.Fatal("manifest never reached the fetcher")
	}
	// The conviction may land moments after completion: the polluter
	// keeps streaming, and any forged unit row arriving after the
	// manifest convicts it on the spot.
	deadline := time.Now().Add(10 * time.Second)
	var banned []transport.Addr
	for time.Now().Before(deadline) {
		if banned = dst.BannedPeers(); slices.Contains(banned, "polluter") {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !slices.Contains(banned, "polluter") {
		t.Fatalf("banned = %v, want the polluter convicted", banned)
	}
	if slices.Contains(banned, "relay") {
		t.Fatalf("honest relay convicted: banned = %v", banned)
	}
	// The honest fetcher pushed recodes of a poisoned, manifest-less
	// buffer back at the relay; solicitation gating must keep it clean.
	if rb := relay.BannedPeers(); len(rb) != 0 {
		t.Fatalf("relay banned %v; push-back peers must never be convicted", rb)
	}
}
