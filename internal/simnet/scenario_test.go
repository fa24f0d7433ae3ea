package simnet

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// seedFlag lets a failing scenario be replayed exactly:
//
//	go test ./internal/simnet -run TestScenarioChurn50 -seed=12345
//
// Every scenario failure prints that line with the seed it ran under.
var seedFlag = flag.Int64("seed", 0, "override the scenario seed (0 = test default); failures print a replay line")

// runScenario executes a named scenario and enforces its invariants,
// printing a seed-replay line on any failure.
func runScenario(t *testing.T, name string, defaultSeed int64) *Report {
	t.Helper()
	seed := defaultSeed
	if *seedFlag != 0 {
		seed = *seedFlag
	}
	rep := runScenarioSeed(t, name, seed)
	if t.Failed() {
		t.Logf("reproduce with: go test ./internal/simnet -run %s -seed=%d", t.Name(), seed)
	}
	return rep
}

// firstRuns shares a catalog scenario's run between the tests that read
// it: a run is a pure function of (scenario, seed) — which is what
// TestCatalogDeterministic, with rerunScenario, holds the lab to — so the
// acceptance test of a scenario and the property test need not both pay
// for the same one.
var firstRuns sync.Map // "name/seed" → *firstRun

type firstRun struct {
	once sync.Once
	rep  *Report
	err  error
}

// runScenarioSeed returns the named scenario's run on seed — run now, or
// already by another test — checked for a clean report.
func runScenarioSeed(t *testing.T, name string, seed int64) *Report {
	t.Helper()
	v, _ := firstRuns.LoadOrStore(fmt.Sprintf("%s/%d", name, seed), new(firstRun))
	run := v.(*firstRun)
	run.once.Do(func() { run.rep, run.err = runNamed(name, seed) })
	return checkReport(t, name, seed, run.rep, run.err)
}

// rerunScenario is a run of its own, whatever ran before.
func rerunScenario(t *testing.T, name string, seed int64) *Report {
	t.Helper()
	rep, err := runNamed(name, seed)
	return checkReport(t, name, seed, rep, err)
}

func runNamed(name string, seed int64) (*Report, error) {
	sc, err := Named(name, seed)
	if err != nil {
		return nil, err
	}
	sc.Trace = true
	return sc.Run(context.Background())
}

func checkReport(t *testing.T, name string, seed int64, rep *Report, err error) *Report {
	t.Helper()
	if err != nil {
		t.Fatalf("scenario %s seed %d: %v", name, seed, err)
	}
	for _, v := range rep.Violations {
		t.Errorf("scenario %s seed %d: invariant violated: %s", name, seed, v)
	}
	if rep.FetchesFailed > 0 {
		t.Errorf("scenario %s seed %d: %d fetches failed (of %d)", name, seed, rep.FetchesFailed, len(rep.Fetches))
	}
	if rep.FetchesCompleted == 0 {
		t.Errorf("scenario %s seed %d: nothing completed", name, seed)
	}
	t.Logf("scenario %s seed %d: %d completed / %d crashed, virtual %v in wall %v, mean overhead %.2f, max header %dB",
		name, seed, rep.FetchesCompleted, rep.FetchesCrashed,
		rep.VirtualElapsed.Round(time.Millisecond), rep.WallElapsed.Round(time.Millisecond),
		rep.MeanOverhead, rep.MaxHeaderBytes)
	return rep
}

// sameReport requires two reports to agree in everything but the wall
// time they took: trace hash, virtual elapsed, frame counts, the fetch
// matrix row by row, cache counters, violations.
func sameReport(t *testing.T, a, b *Report) {
	t.Helper()
	enc := func(r *Report) []string {
		c := *r
		c.WallElapsed = 0
		out, err := json.MarshalIndent(&c, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		return strings.Split(string(out), "\n")
	}
	la, lb := enc(a), enc(b)
	for i := range min(len(la), len(lb)) {
		if la[i] != lb[i] {
			t.Fatalf("scenario %s seed %d: same seed, different runs; first difference at report line %d:\n  %s\n  %s",
				a.Scenario, a.Seed, i+1, la[i], lb[i])
		}
	}
	if len(la) != len(lb) {
		t.Fatalf("scenario %s seed %d: same seed, reports of %d and %d lines", a.Scenario, a.Seed, len(la), len(lb))
	}
}

// TestScenarioChurn50 is the acceptance scale case: a 50-node swarm with
// 20% fetcher churn over a lossy jittery fabric. Every surviving and
// joining fetcher must finish byte-identical with bounded overhead, with
// Watch progress monotone throughout — and the run resolves from its seed
// (the reproduction line on failure replays it event for event).
func TestScenarioChurn50(t *testing.T) {
	t.Parallel()
	rep := runScenario(t, "churn50", 1)
	if rep.FetchesCrashed == 0 {
		t.Errorf("churn scenario crashed nothing — churn did not happen")
	}
	// 20% of 40 fetchers crash and are replaced: the joiners' fetches are
	// part of the completion count, so completed + crashed covers the
	// whole (initial + joined) × objects matrix.
	if got := rep.FetchesCompleted + rep.FetchesCrashed; got != len(rep.Fetches) {
		t.Errorf("fetch accounting: %d completed + %d crashed != %d total",
			rep.FetchesCompleted, rep.FetchesCrashed, len(rep.Fetches))
	}
}

// TestScenarioChurn50Reproducible pins (Seed, Scenario) → run: two runs
// with the same seed are the same run — every frame's fate and instant
// (TraceHash), the virtual time taken, every fetch's row including which
// churn victims completed before their crash — while a different seed
// resolves a different timeline.
func TestScenarioChurn50Reproducible(t *testing.T) {
	t.Parallel()
	ra := runScenarioSeed(t, "churn50", 7)
	rb := rerunScenario(t, "churn50", 7)
	sameReport(t, ra, rb)
	if ra.TraceHash == "" || ra.FetchesCrashed == 0 {
		t.Errorf("nothing to compare: trace hash %q, %d crashed", ra.TraceHash, ra.FetchesCrashed)
	}
	// The differing-seed probe only needs the resolved timeline, not the
	// protocol outcome: truncate its virtual horizon so it returns almost
	// immediately (its fetches simply don't finish, which is fine).
	c, _ := Named("churn50", 8)
	c.Duration = 50 * time.Millisecond
	c.MaxOverhead = 0
	rc, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ra.TimelineHash == rc.TimelineHash {
		t.Errorf("different seeds resolved the same timeline")
	}
}

// TestScenarioPartitionHeal drives the 3-hop chain that partitions
// between r1 and r2 at 50ms and heals at 3s: no fetcher can complete
// while the far side is cut off, so every completion must land strictly
// after the heal — and still complete, byte-identical.
func TestScenarioPartitionHeal(t *testing.T) {
	t.Parallel()
	rep := runScenario(t, "partition3hop", 1)
	const healAt = 3 * time.Second
	for _, f := range rep.Fetches {
		if f.Completed && f.CompletedAt <= healAt {
			t.Errorf("node %s completed at %v, before the %v heal — data crossed the partition",
				f.Node, f.CompletedAt, healAt)
		}
	}
	if rep.Net.DropPartition == 0 {
		t.Errorf("partition dropped no frames — it never took effect")
	}
}

// TestScenarioRelayCrash: fetchers subscribed at two relays keep
// completing when one crashes mid-fetch.
func TestScenarioRelayCrash(t *testing.T) {
	t.Parallel()
	rep := runScenario(t, "relay-crash", 1)
	if rep.FetchesCrashed != 0 {
		t.Errorf("no fetcher crashes were scheduled, yet %d fetches report crashed", rep.FetchesCrashed)
	}
	if rep.Net.DropDown == 0 {
		t.Errorf("crashed relay absorbed no frames — the crash never took effect")
	}
}

// TestScenarioAsymUplink: harsh uplinks (loss + latency + bandwidth cap)
// under a clean downlink still converge with bounded overhead.
func TestScenarioAsymUplink(t *testing.T) {
	t.Parallel()
	runScenario(t, "asym-uplink", 1)
}

func TestScenarioSmoke(t *testing.T) {
	t.Parallel()
	runScenario(t, "smoke", 1)
}

// TestScenarioHarshMultihop: the feedback loop's stress case — a 3-relay
// powerline chain at 40% per-hop loss. Receipts push every hop's loss
// estimate toward the ceiling and name the natives each hop still lacks,
// and the fetches must still complete byte-identically within the horizon.
func TestScenarioHarshMultihop(t *testing.T) {
	t.Parallel()
	rep := runScenario(t, "harsh-multihop", 1)
	if rep.Net.DropLoss == 0 {
		t.Error("no frames were lost — the harsh fabric never bit")
	}
	// A hop that repeats what its peer's frontier lacks costs k/(1 − p)
	// frames and what lost receipts make it repeat in vain; blind LT repair
	// behind the systematic pass cost twice that and more.
	sc, _ := Named("harsh-multihop", 1)
	k, p := sc.Objects[0].K, sc.Link.Loss
	if bound := int64(1.5 / (1 - p) * float64(k)); rep.MaxFlowDataFrames > bound {
		t.Errorf("one hop carried %d DATA frames for k = %d at %.0f%% loss, want at most 1.5·k/(1 − p) = %d", rep.MaxFlowDataFrames, k, 100*p, bound)
	}
	t.Logf("most DATA frames on one hop: %d (k = %d, k/(1 − p) = %.0f)", rep.MaxFlowDataFrames, k, float64(k)/(1-p))
}

// TestScenarioFeedbackFrames pins what receivers spend reporting: one
// report carries the counters, completion and the need, at most once a
// batch per (object, upstream, generation), so FEEDBACK frames stay within
// a few hundred on the lines that answered DATA one frame at a time when
// completion and the need had FEEDBACK kinds of their own (561 and 1,228
// frames then). The count includes the subscriptions, which are reports.
func TestScenarioFeedbackFrames(t *testing.T) {
	t.Parallel()
	for _, c := range []struct {
		name string
		most int64
	}{{"asym-uplink", 400}, {"edge-cache", 600}} {
		rep := runScenarioSeed(t, c.name, 1)
		t.Logf("%s 1: %d FEEDBACK frames, %d DATA frames", c.name, rep.FeedbackFrames, rep.DataFrames)
		if rep.FeedbackFrames == 0 || rep.FeedbackFrames > c.most {
			t.Errorf("%s 1: %d FEEDBACK frames, want 1 to %d", c.name, rep.FeedbackFrames, c.most)
		}
	}
}

// TestScenarioEdgeCache is the cache-tier acceptance case: 8 fetchers
// pull one hot object exclusively from 3 budgeted partial caches. Every
// fetch completes byte-identically (runScenario checks that), no cache
// ever decodes, and the origin sends exactly the k DATA frames a single
// lossless fetcher would have needed — its systematic pass, once, into the
// head of the cache chain; the flash crowd is absorbed by recoding from
// cached rows, the offload this tier exists for.
func TestScenarioEdgeCache(t *testing.T) {
	t.Parallel()
	rep := runScenario(t, "edge-cache", 1)
	sc, _ := Named("edge-cache", 1)
	k := sc.Objects[0].K
	bound := int64(k)
	if rep.OriginDataFrames == 0 {
		t.Fatal("origin sent no DATA frames — the object never entered the swarm")
	}
	if rep.OriginDataFrames > bound {
		t.Errorf("origin sent %d DATA frames for a k=%d object, offload bound is %d",
			rep.OriginDataFrames, k, bound)
	}
	if len(rep.CacheTiers) != sc.Caches {
		t.Fatalf("report covers %d caches, want %d", len(rep.CacheTiers), sc.Caches)
	}
	for name, cs := range rep.CacheTiers {
		if cs.ServedFrames == 0 {
			t.Errorf("cache %s served no frames", name)
		}
		if cs.Used > cs.Budget {
			t.Errorf("cache %s over budget: %d > %d", name, cs.Used, cs.Budget)
		}
	}
	t.Logf("origin data frames %d (bound %d) for %d fetchers", rep.OriginDataFrames, bound, sc.Fetchers)
}

// TestScenarioEdgeCacheReproducible pins determinism for the cache tier:
// same seed, same run — the origin-frame count and every cache's counters
// (Report.CacheTiers) included.
func TestScenarioEdgeCacheReproducible(t *testing.T) {
	t.Parallel()
	a := runScenarioSeed(t, "edge-cache", 5)
	b := rerunScenario(t, "edge-cache", 5)
	sameReport(t, a, b)
	if len(a.CacheTiers) == 0 || a.OriginDataFrames == 0 {
		t.Errorf("nothing to compare: %d cache tiers, %d origin frames", len(a.CacheTiers), a.OriginDataFrames)
	}
}

// TestScenarioPollutedSwarm is the pollution-defense acceptance case: 2
// of the 8 serving peers forge wire-perfect garbage rows at every
// fetcher. Every fetch must still complete byte-identically (runScenario
// checks that), pollution must actually land and be quarantined, both
// polluters must stand convicted by the time each poisoned fetch
// completes, and the forged stream plus the re-fetch traffic must not
// inflate total DATA frames beyond 2× a clean run of the same swarm.
func TestScenarioPollutedSwarm(t *testing.T) {
	t.Parallel()
	rep := runScenario(t, "polluted-swarm", 1)

	sc, err := Named("polluted-swarm", 1)
	if err != nil {
		t.Fatal(err)
	}
	polluters := make([]string, sc.Polluters)
	for i := range polluters {
		polluters[i] = fmt.Sprintf("p%d", i)
	}

	poisoned := 0
	for _, f := range rep.Fetches {
		if !f.Completed {
			continue // already a failure via runScenario
		}
		if f.Polluted == 0 {
			continue
		}
		poisoned++
		// A poisoned fetch cannot have completed with its attackers still
		// trusted: each quarantine bans the solicited sender whose row
		// released the generation's first false native, and a unit row
		// or an audited one convicts a polluter on the spot.
		for _, p := range polluters {
			if !slices.Contains(f.Banned, p) {
				t.Errorf("node %s completed a poisoned fetch (%d quarantines) without convicting %s (banned: %v)",
					f.Node, f.Polluted, p, f.Banned)
			}
		}
	}
	if poisoned == 0 {
		t.Error("no fetch recorded a pollution event — the forged stream never landed")
	}
	if rep.ForgedDataFrames == 0 {
		t.Error("polluters sent no DATA frames — the attack never ran")
	}

	// Overhead bound: total DATA on the fabric (forged stream included)
	// stays within 2× the clean run of the identical swarm minus the
	// polluters.
	clean := sc
	clean.Polluters = 0
	cleanRep, err := clean.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(cleanRep.Violations) != 0 || cleanRep.FetchesFailed != 0 {
		t.Fatalf("clean baseline run misbehaved: %v", cleanRep.Violations)
	}
	if cleanRep.DataFrames == 0 {
		t.Fatal("clean baseline counted no DATA frames")
	}
	if bound := 2 * cleanRep.DataFrames; rep.DataFrames > bound {
		t.Errorf("polluted run sent %d DATA frames (%d forged), over the 2× clean bound %d",
			rep.DataFrames, rep.ForgedDataFrames, bound)
	}
	t.Logf("polluted run: %d poisoned fetches, %d DATA frames (%d forged) vs clean %d",
		poisoned, rep.DataFrames, rep.ForgedDataFrames, cleanRep.DataFrames)
}

// TestScenarioPollutedMesh: every node of the mesh forwards, so forged
// rows reach nodes with downstreams of their own. The run's emit oracle
// and its honest-ban check (runScenario) hold only if no node forwards a
// native its manifest run does not prove; this pins that the attack
// landed at all.
func TestScenarioPollutedMesh(t *testing.T) {
	t.Parallel()
	rep := runScenario(t, "polluted-mesh", 1)
	poisoned := 0
	for _, f := range rep.Fetches {
		if f.Polluted > 0 {
			poisoned++
		}
	}
	if rep.ForgedDataFrames == 0 || poisoned == 0 {
		t.Errorf("%d forged DATA frames, %d poisoned fetches: the forged stream never landed", rep.ForgedDataFrames, poisoned)
	}
}

// TestScenarioLyingReceivers wires the lying-receiver actor into the
// polluted-swarm harness: 2 polluters forge garbage rows while 2 liars
// subscribe everywhere by flooding forged kind-6 reports — one
// claiming nothing ever arrived and all of it departed, trying to pin the
// senders' loss estimates at the ceiling, one over-claiming, running its
// counters backwards and wrapping them ten times a tick, trying to turn
// its window over faster than any receiver could. The estimator's clamps
// must hold — every honest fetch still completes byte-identically, within
// its per-fetch reception overhead bound (enforced as run violations), with
// the polluters still convicted — and no sender may put more than
// adapt.TickCeiling DATA frames toward one receiver into one Tick of
// virtual time (the fabric tap checks every frame), forged receipts,
// flooded receipts or not. The committed polluted-swarm catalog entry stays
// untouched; this is a clone, so its regression seeds keep replaying bytes.
// Every sender is receipt-clocked, so the one run is the paced one.
func TestScenarioLyingReceivers(t *testing.T) {
	t.Parallel()
	t.Run("paced", runLyingReceivers)
}

func runLyingReceivers(t *testing.T) {
	sc, err := Named("polluted-swarm", 1)
	if err != nil {
		t.Fatal(err)
	}
	sc.Name = "polluted-swarm+liars"
	sc.Liars = 2
	rep, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("invariant violated: %s", v)
	}
	if rep.FetchesFailed > 0 {
		t.Errorf("%d fetches failed (of %d) — the liars starved honest peers", rep.FetchesFailed, len(rep.Fetches))
	}
	if rep.FetchesCompleted != len(rep.Fetches) {
		t.Errorf("only %d of %d fetches completed", rep.FetchesCompleted, len(rep.Fetches))
	}
	if rep.ForgedDataFrames == 0 {
		t.Error("polluters sent no DATA frames — the attack never ran")
	}
	if rep.Nodes != sc.Sources+sc.Relays+sc.Fetchers+sc.Polluters+sc.Liars {
		t.Errorf("report counts %d nodes, want the full population including liars", rep.Nodes)
	}
	poisoned := 0
	for _, f := range rep.Fetches {
		if f.Completed && f.Polluted > 0 {
			poisoned++
			for i := 0; i < sc.Polluters; i++ {
				if p := fmt.Sprintf("p%d", i); !slices.Contains(f.Banned, p) {
					t.Errorf("node %s completed a poisoned fetch without convicting %s (banned: %v)", f.Node, p, f.Banned)
				}
			}
		}
	}
	t.Logf("liar run: %d/%d fetches completed (%d poisoned), %d DATA frames (%d forged)",
		rep.FetchesCompleted, len(rep.Fetches), poisoned, rep.DataFrames, rep.ForgedDataFrames)
}

// TestScenarioPacedLongRoundTrip runs a receipt-clocked swarm outside the
// range its pacer is designed for: 25 ms links under a 10 ms Tick, so a
// round trip is five ticks and every row ages out of its sender's window
// before the receipt that names it can arrive (internal/adapt,
// TestRoundTripBeyondTwoTicks). The window is then no bound on what is in
// the network — receiver queues do overflow here, which the coding
// absorbs — so what this pins is what must hold anyway: every fetch
// completes byte-identically at a reception overhead near 1 on the
// lossless fabric, and no sender passes adapt.TickCeiling DATA frames
// toward one receiver in one Tick (the fabric tap, a run violation).
func TestScenarioPacedLongRoundTrip(t *testing.T) {
	t.Parallel()
	seed := int64(1)
	if *seedFlag != 0 {
		seed = *seedFlag
	}
	sc := Scenario{
		Name:    "paced-long-rtt",
		Seed:    seed,
		Sources: 1, Relays: 2, Fetchers: 4,
		Objects:         []ObjectSpec{{Size: 256 << 10, K: 1024}},
		PeersPerFetcher: 2,
		Tick:            10 * time.Millisecond,
		Link:            LinkConfig{Latency: 25 * time.Millisecond},
		Duration:        60 * time.Second,
		MaxOverhead:     1.1,
	}
	rep, err := sc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("invariant violated: %s", v)
	}
	if rep.FetchesFailed > 0 || rep.FetchesCompleted != sc.Fetchers {
		t.Errorf("%d of %d fetches completed, %d failed", rep.FetchesCompleted, sc.Fetchers, rep.FetchesFailed)
	}
	if t.Failed() {
		t.Logf("reproduce with: go test ./internal/simnet -run %s -seed=%d", t.Name(), seed)
	}
	t.Logf("%d DATA frames, %d dropped at full queues, virtual %v, mean overhead %.3f",
		rep.DataFrames, rep.Net.DropQueue, rep.VirtualElapsed.Round(time.Millisecond), rep.MeanOverhead)
}

// TestSeedCorpus replays the regression corpus: seeds that once broke a
// scenario (or probe interesting corners) are kept in testdata/seeds.txt
// with the trace hash of their run, and replayed on every run, so a fixed
// failure stays fixed and a change in what the swarm puts on the wire
// shows. A protocol change moves the hashes; re-pin them deliberately, as
// with TestPushGolden — the failure prints the new line.
func TestSeedCorpus(t *testing.T) {
	t.Parallel()
	f, err := os.Open("testdata/seeds.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			t.Fatalf("testdata/seeds.txt:%d: want `scenario seed tracehash`, got %q", lineNo, line)
		}
		name, want := fields[0], fields[2]
		seed, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			t.Fatalf("testdata/seeds.txt:%d: bad seed: %v", lineNo, err)
		}
		t.Run(fmt.Sprintf("%s-%d", name, seed), func(t *testing.T) {
			if got := runScenarioSeed(t, name, seed).TraceHash; got != want {
				t.Errorf("testdata/seeds.txt:%d: the run's trace hash changed; if the protocol was meant to change, re-pin:\n%s %d %s",
					lineNo, name, seed, got)
			}
			if t.Failed() {
				t.Logf("reproduce with: go test ./internal/simnet -run 'TestSeedCorpus/%s-%d'; any scenario test replays a seed with -seed=%d", name, seed, seed)
			}
		})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestCatalogDeterministic is the lab's promise as a property of the whole
// catalog: every scenario, on two seeds, run twice, gives the same report
// both times — trace hash, virtual time, overhead, per-node DATA counts,
// fetch matrix (sameReport) — and a clean one. It must hold under -race
// and GOMAXPROCS=1 alike: one goroutine runs a scenario whatever the host
// offers. The entries the catalog marks for the soak build run there only,
// and the thousand-session ones twice only there; the ordinary run still
// takes them once per seed, for a clean report.
func TestCatalogDeterministic(t *testing.T) {
	for _, name := range List() {
		if named[name].soak && !soakBuild {
			continue
		}
		sc, _ := Named(name, 1)
		big := sc.Sources+sc.Relays+sc.Fetchers >= 1000
		for _, seed := range []int64{1, 2} {
			t.Run(fmt.Sprintf("%s-%d", name, seed), func(t *testing.T) {
				t.Parallel()
				if testing.Short() && big {
					t.Skip("1,000-session swarm skipped in -short mode")
				}
				first := runScenarioSeed(t, name, seed)
				if big && !soakBuild {
					return
				}
				sameReport(t, first, rerunScenario(t, name, seed))
				if t.Failed() {
					t.Logf("reproduce with: go test ./internal/simnet -run '%s'", t.Name())
				}
			})
		}
	}
}

// TestNamedCatalog keeps the catalog wired: every listed name resolves
// and validates.
func TestNamedCatalog(t *testing.T) {
	if len(List()) < 5 {
		t.Fatalf("catalog shrank: %v", List())
	}
	for _, name := range List() {
		sc, err := Named(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		if sc.Seed != 3 || sc.Name != name {
			t.Errorf("scenario %q: seed/name not threaded (%d, %q)", name, sc.Seed, sc.Name)
		}
		if err := sc.setDefaults(); err != nil {
			t.Errorf("scenario %q does not validate: %v", name, err)
		}
	}
	if _, err := Named("no-such", 1); err == nil {
		t.Errorf("unknown scenario resolved")
	}
}

// TestScenarioFlashCrowd1k is the membership-plane acceptance case:
// 1,000 sessions flash-join a swarm knowing only 3 bootstrap nodes,
// discover each other through PEX view shuffles, and fetch
// byte-identically (runScenario checks that) — while two polluters that
// gossiped themselves in as maximum-capacity relays are convicted and
// never re-enter any view. Bounded views and the never-re-admit
// guarantee are enforced as run violations (sampled and at teardown);
// this test additionally pins that the machinery actually engaged.
func TestScenarioFlashCrowd1k(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("1,000-session swarm skipped in -short mode")
	}
	rep := runScenario(t, "flash-crowd-1k", 1)
	if got := len(rep.Fetches); got < 1000 {
		t.Errorf("fetch matrix covers %d sessions, want 1000", got)
	}
	if rep.ViewConvergedAt == 0 {
		t.Error("views never converged")
	}
	if rep.ViewBound == 0 || rep.ViewMax > rep.ViewBound {
		t.Errorf("view occupancy %d over bound %d", rep.ViewMax, rep.ViewBound)
	}
	if rep.ForgedDataFrames == 0 {
		t.Error("polluters sent nothing — the adversary never engaged")
	}
	convictions := 0
	for _, f := range rep.Fetches {
		if len(f.Banned) > 0 {
			convictions++
		}
	}
	if convictions == 0 {
		t.Error("no session convicted a polluter — discovery never exposed the attack")
	}
	t.Logf("flash-crowd-1k: views converged at %v (min %d / mean %.1f / bound %d), %d sessions with convictions",
		rep.ViewConvergedAt, rep.ViewMin, rep.ViewMean, rep.ViewBound, convictions)
}

// TestScenarioAsym9010: 270 plain fetchers and 30 relay/source nodes
// with no static wiring at all — capacity-weighted neighbor selection
// must find and favor the 10% serving tier through gossip alone.
func TestScenarioAsym9010(t *testing.T) {
	t.Parallel()
	rep := runScenario(t, "asym-90-10", 1)
	if rep.ViewConvergedAt == 0 {
		t.Error("views never converged")
	}
}

// TestScenarioMemberChurn: a 300-session gossip mesh under sustained
// 20% churn. Crash victims age out of their neighbors' views, and every
// replacement joins through the bootstrap set alone; all surviving and
// joining fetches complete byte-identically.
func TestScenarioMemberChurn(t *testing.T) {
	t.Parallel()
	rep := runScenario(t, "member-churn", 1)
	if rep.FetchesCrashed == 0 {
		t.Error("churn crashed nothing — the scenario did not bite")
	}
	if got := rep.FetchesCompleted + rep.FetchesCrashed; got != len(rep.Fetches) {
		t.Errorf("fetch accounting: %d completed + %d crashed != %d total",
			rep.FetchesCompleted, rep.FetchesCrashed, len(rep.Fetches))
	}
}
