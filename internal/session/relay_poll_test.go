package session

import (
	"bytes"
	"slices"
	"testing"

	"ltnc/internal/packet"
	"ltnc/internal/transport"
)

// TestPolluterThroughRelay is the laundering regression, on one virtual
// clock: a fetcher pulls through an honest relay while a polluter sprays
// forged unit rows at it, the first of them landing before the manifest
// does. The fetcher holds the relay as a standing push peer as well, and
// pushes nothing back up that edge until every generation has verified:
// until then its decoder may hold forged rows, and recodes of them would
// launder the poison into the relay, which would have to convict it. The
// fetcher convicts the polluter — its unit rows are digest-checked on
// arrival once the manifest is in — and completes byte-identically; the
// relay, which never asked the fetcher for anything, convicts nobody.
func TestPolluterThroughRelay(t *testing.T) {
	const k, m, seed = 64, 64, 31
	n := newStepNet(t, k, m, seed, nil, "source", "relay", "dest")
	n.delay = n.nodes["source"].cfg.Tick / 2
	relay, dst := n.nodes["relay"], n.nodes["dest"]
	content := testContent(k*m, seed)
	// The relay answers the fetcher's subscription with the manifest once
	// it holds it.
	for tick := 0; ; tick++ {
		if o, _ := relay.Object(n.id); o.HaveManifest {
			break
		}
		if tick == 50 {
			t.Fatal("set-up: the relay never got the manifest")
		}
		n.tick()
	}
	sprayed := 0
	spray := func() { // eight forged unit rows, straight into the fetcher's inbox
		for range 8 {
			payload := bytes.Repeat([]byte{0xB6}, m)
			payload[0] = byte(sprayed)
			p := packet.Native(k, sprayed%k, payload)
			p.Object = n.id
			sprayed++
			wire, err := packet.Marshal(p)
			if err != nil {
				t.Fatal(err)
			}
			n.recs["dest"].deliver("polluter", append([]byte{packet.FrameData}, wire...))
		}
	}
	asked, pushedBack := false, 0
	n.lose = func(from, to transport.Addr, f []byte) bool {
		if r, ok := parseReport(f); to == "polluter" && ok && r.Flags&packet.ReportComplete == 0 && !asked {
			asked = true
			spray() // the polluter answers at once; the relay is half a tick away
		}
		if from == "dest" && to == "relay" && f[0] == packet.FrameData {
			if o, _ := dst.Object(n.id); !o.Complete {
				pushedBack++
			}
		}
		return false
	}
	dst.AddPeer("relay")
	fetch, err := dst.BeginFetch(n.id, "relay", "polluter")
	if err != nil {
		t.Fatal(err)
	}
	defer fetch.End()
	banned := func() bool { return slices.Contains(dst.BannedPeers(), "polluter") }
	for tick := 0; tick < 2000; tick++ {
		if _, _, _, ok := fetch.Result(); ok && banned() {
			break
		}
		if asked {
			spray()
		}
		n.tick()
	}
	data, stats, err, ok := fetch.Result()
	if !ok || err != nil || !bytes.Equal(data, content) {
		t.Fatalf("fetch under pollution: ok=%v err=%v, bytes equal %v", ok, err, bytes.Equal(data, content))
	}
	if !stats.HaveManifest || stats.GensVerified != 1 {
		t.Fatalf("complete with %+v: want the manifest, every generation verified", stats)
	}
	if stats.Polluted == 0 {
		t.Fatal("set-up: no forged row landed before the manifest")
	}
	if b := dst.BannedPeers(); !slices.Equal(b, []transport.Addr{"polluter"}) {
		t.Fatalf("the fetcher banned %v, want the polluter alone", b)
	}
	if pushedBack != 0 {
		t.Fatalf("the fetcher pushed %d rows back at the relay before every generation verified", pushedBack)
	}
	if rb := relay.BannedPeers(); len(rb) != 0 {
		t.Fatalf("the relay banned %v; push-back peers must never be convicted", rb)
	}
}
