package session

import (
	"bytes"
	"testing"

	"ltnc/internal/integrity"
	"ltnc/internal/packet"
	"ltnc/internal/transport"
)

// Proof goes once, ahead of the rows it proves (DESIGN.md §13): a node
// sends a row of a native toward a peer only once the MANIFEST frame of the
// native's run has gone to that peer, and it holds the run itself.

// runsOf returns the manifest runs a DATA frame's natives fall in, one entry
// per native it carries; nil for any other frame.
func runsOf(t *testing.T, f []byte) []int {
	t.Helper()
	if f[0] != packet.FrameData {
		return nil
	}
	h, err := packet.ReadHeader(bytes.NewReader(f[1:]))
	if err != nil {
		t.Fatal(err)
	}
	var runs []int
	for _, i := range h.Vec.Indices() {
		runs = append(runs, (int(h.Generation)*h.K+i)/integrity.RunLen)
	}
	return runs
}

// TestRowsFollowTheirProof is the wire-order oracle: source → relay →
// fetcher on the stepper, an object of two runs (G = 2, a run a
// generation), every link dropping a fifth of what it carries, seeds 1–10.
// On each link no DATA frame carrying a native of run r leaves before that
// link's first MANIFEST frame of run r has, and the relay sends no row of a
// run it does not hold; every fetch completes.
func TestRowsFollowTheirProof(t *testing.T) {
	const k, gens, m, p = 2 * integrity.RunLen, 2, 8, 0.20
	for seed := int64(1); seed <= 10; seed++ {
		c := newStepNetG(t, k, gens, m, 61, nil, "src", "relay", "dst").subscribe()
		c.delay = c.nodes["src"].cfg.Tick / 2
		drop := lossy(seed, p)
		proven := map[[2]transport.Addr]map[uint32]bool{}
		c.lose = func(from, to transport.Addr, f []byte) bool {
			link := [2]transport.Addr{from, to}
			if proven[link] == nil {
				proven[link] = map[uint32]bool{}
			}
			if f[0] == packet.FrameManifest {
				mr, err := packet.ParseManifestChunk(f[1:])
				if err != nil {
					t.Fatal(err)
				}
				proven[link][mr.Run] = true
			}
			for _, r := range runsOf(t, f) {
				if !proven[link][uint32(r)] {
					t.Fatalf("seed %d: %s sent %s a row of run %d ahead of the run", seed, from, to, r)
				}
				if st := c.nodes[from].objects[c.id]; from == "relay" && !st.man.HoldsRun(r) {
					t.Fatalf("seed %d: the relay sent a row of run %d, which it does not hold", seed, r)
				}
			}
			return drop(from, to, f)
		}
		ticks := 0
		for ; ticks < 2000 && !c.fetched().Complete; ticks++ {
			c.tick()
		}
		if !c.fetched().Complete {
			t.Fatalf("seed %d: fetch incomplete after %d ticks", seed, ticks)
		}
		t.Logf("seed %d: %d ticks", seed, ticks)
	}
}
