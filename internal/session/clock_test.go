package session

import (
	"bytes"
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"ltnc/internal/integrity"
	"ltnc/internal/packet"
	"ltnc/internal/transport"
)

// TestRunRefusesVirtualClock: Run keeps real time. A session on a virtual
// clock is stepped by the clock's owner, so Run refuses it at once, before
// it starts a goroutine.
func TestRunRefusesVirtualClock(t *testing.T) {
	s, _, _ := pushSession(t, "source", nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() { errc <- s.Run(ctx) }()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("Run on a virtual clock returned nil")
		}
	case <-time.After(time.Second):
		cancel()
		<-errc
		t.Fatal("Run on a virtual clock ran instead of refusing")
	}
	if s.shards != nil {
		t.Fatal("Run started its decode workers before refusing")
	}
}

// realTime names the package time functions that read or wait on the wall
// clock.
var realTime = map[string]bool{
	"Now": true, "Since": true, "Until": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true, "After": true, "Tick": true, "Sleep": true,
}

// parseNonTest parses a directory's non-test Go files.
func parseNonTest(t *testing.T, dir string) []*ast.File {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }, 0)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			files = append(files, f)
		}
	}
	return files
}

// realTimeRef reports the real-time function n refers to, if any.
func realTimeRef(n ast.Node) (string, bool) {
	sel, ok := n.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "time" && realTime[sel.Sel.Name] {
		return "time." + sel.Sel.Name, true
	}
	return "", false
}

// TestOneGoroutinePerVirtualClock holds the drivers to their kinds of
// time: virtual time ⇒ one goroutine, goroutines ⇒ real time. In the
// session only Run's push goroutine (pushLoop) reads or waits on the wall
// clock — everything else reads Config.Clock, so Step runs on whatever
// instant its caller set — and the lab starts no goroutine and reads real
// time only to report its own wall-clock cost (Report.WallElapsed).
func TestOneGoroutinePerVirtualClock(t *testing.T) {
	for _, f := range parseNonTest(t, ".") {
		for _, d := range f.Decls {
			fn, _ := d.(*ast.FuncDecl)
			ast.Inspect(d, func(n ast.Node) bool {
				if ref, ok := realTimeRef(n); ok && (fn == nil || fn.Name.Name != "pushLoop") {
					t.Errorf("session: %s outside pushLoop", ref)
				}
				return true
			})
		}
	}
	// The lab: no go statement, and the wall clock read only by what fills
	// in Report.WallElapsed — start := time.Now(), then time.Since(start).
	for _, f := range parseNonTest(t, filepath.Join("..", "simnet")) {
		for _, d := range f.Decls {
			var refs []string
			wall := false
			ast.Inspect(d, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.GoStmt:
					t.Errorf("simnet starts a goroutine")
				case *ast.SelectorExpr:
					if ref, ok := realTimeRef(n); ok {
						refs = append(refs, ref)
					}
					wall = wall || n.Sel.Name == "WallElapsed"
				}
				return true
			})
			if len(refs) > 0 && (!wall || !slices.Equal(refs, []string{"time.Now", "time.Since"})) {
				t.Errorf("simnet reads real time (%v) for more than Report.WallElapsed", refs)
			}
		}
	}
}

// TestVirtualClockEndToEnd runs the full source → relay → fetch pipeline
// with every session timer on a shared virtual clock, each hop taking half
// a Tick: nothing crosses a hop while the clock stands still — receipts
// clock the push, and a receipt too is a frame on the way — and the whole
// transfer completes inside a few hundred virtual milliseconds.
func TestVirtualClockEndToEnd(t *testing.T) {
	n := newStepNet(t, 64, 64, 3, func(c *Config) { c.Relay = true }, "source", "relay", "fetcher")
	n.delay = n.nodes["source"].cfg.Tick / 2
	fetcher := n.nodes["fetcher"]
	f, err := fetcher.BeginFetch(n.id, "relay")
	if err != nil {
		t.Fatal(err)
	}
	defer f.End()
	// With the clock frozen the fetch must not complete: the subscription is still
	// on its way to the relay.
	n.settle()
	if _, _, _, done := f.Result(); done {
		t.Fatal("fetch completed with frozen clock")
	}
	for ticks := 0; ; ticks++ {
		if data, _, err, done := f.Result(); done {
			if err != nil {
				t.Fatalf("fetch: %v", err)
			}
			if !bytes.Equal(data, testContent(64*64, 3)) {
				t.Fatalf("fetched %d bytes differ from served content", len(data))
			}
			return
		}
		if n.clk.Since(transport.VClockBase) > 10*time.Second {
			t.Fatalf("fetch incomplete after %v of virtual time", n.clk.Since(transport.VClockBase))
		}
		n.tick()
	}
}

// TestVirtualProofResend: proof goes to a peer once, in one pass, and only
// a need brings a run of it again. A configured peer that never answers
// gets each run of the manifest once in a virtual second; a relay, and a
// cache, whose first run is lost learn it from the need beside their
// receipts, and get no third copy.
func TestVirtualProofResend(t *testing.T) {
	const k, m = 3 * integrity.RunLen, 8
	// copies counts MANIFEST frame f in runs, under its run's index, and
	// returns the index.
	copies := func(t *testing.T, runs map[uint32]int, f []byte) uint32 {
		mr, err := packet.ParseManifestChunk(f[1:])
		if err != nil {
			t.Fatal(err)
		}
		runs[mr.Run]++
		return mr.Run
	}
	t.Run("silent", func(t *testing.T) {
		n := newStepNet(t, k, m, 1, nil, "source")
		n.nodes["source"].AddPeer("sink")
		runs := map[uint32]int{}
		n.lose = func(_, to transport.Addr, f []byte) bool {
			if to == "sink" && f[0] == packet.FrameManifest {
				copies(t, runs, f)
			}
			return false
		}
		n.run(time.Second)
		if len(runs) != 3 || runs[0] != 1 || runs[1] != 1 || runs[2] != 1 {
			t.Fatalf("a silent peer got runs %v in a virtual second, want each of 3 runs once", runs)
		}
	})
	for _, node := range []transport.Addr{"relay", "cache"} {
		t.Run(string(node), func(t *testing.T) {
			n := newStepNet(t, k, m, 2, func(c *Config) {
				if c.Transport.LocalAddr() == "cache" {
					c.CacheBudget = 4 << 20 // room for full rank: the cache reports completion
				}
			}, "source", node)
			n.nodes["source"].AddPeer(node)
			runs, needs := map[uint32]int{}, 0
			n.lose = func(from, to transport.Addr, f []byte) bool {
				if r, _ := parseReport(f); from == node && isNeed(f) && r.Need == 0 {
					needs++
				}
				if to != node || f[0] != packet.FrameManifest {
					return false
				}
				return copies(t, runs, f) == 0 && runs[0] == 1
			}
			for i := 0; i < 100; i++ {
				if o, ok := n.nodes[node].Object(n.id); ok && o.HaveManifest {
					break
				}
				n.tick()
			}
			if o, ok := n.nodes[node].Object(n.id); !ok || !o.HaveManifest {
				t.Fatalf("%s never held the manifest: %+v", node, o)
			}
			n.run(time.Second)
			if runs[0] != 2 || runs[1] != 1 || runs[2] != 1 || needs == 0 {
				t.Fatalf("runs %v went to the %s, %d needs for run 0 came back; want the lost first run twice, after a need, and every other once",
					runs, node, needs)
			}
		})
	}
}

// TestVirtualIdleEviction pins idle eviction to the virtual clock: a
// relay-learned object is evicted once IdleTimeout of VIRTUAL time
// passes, and not before.
func TestVirtualIdleEviction(t *testing.T) {
	n := newStepNet(t, 16, 32, 5, func(c *Config) { c.IdleTimeout = 10 * time.Second }, "relay")
	relay := n.nodes["relay"]

	// Teach the relay an object by its description.
	id, desc := fakeObject("idle", 16, 32, 200, 1)
	n.recs["relay"].deliver("feeder", desc)
	learned := func() bool {
		_, ok := relay.Object(id)
		return ok
	}
	if n.settle(); !learned() {
		t.Fatalf("relay never learned the object")
	}
	if n.run(relay.cfg.IdleTimeout - time.Second); !learned() {
		t.Fatalf("object evicted %v into an idle timeout of %v", n.clk.Since(transport.VClockBase), relay.cfg.IdleTimeout)
	}
	// Eviction sweeps once a second, for what has been idle longer than the
	// timeout: the sweep of second 11 finds it.
	if n.run(3 * time.Second); learned() {
		t.Fatalf("object still held %v after its last use", n.clk.Since(transport.VClockBase))
	}
}
