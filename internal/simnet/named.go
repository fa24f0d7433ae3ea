package simnet

import (
	"fmt"
	"sort"
	"time"
)

// namedScenario is one catalog entry: a short description for listings
// and the seed-parameterized constructor. soak marks the entries only the
// soak build's tests run (-tags soak).
type namedScenario struct {
	desc string
	soak bool
	make func(seed int64) Scenario
}

// named is the catalog of ready-made scenarios; cmd/ltnc-sim runs them by
// name and the scenario test suite pins them as regression cases. Each
// takes the seed so a failing run's printed seed replays exactly.
var named = map[string]namedScenario{
	"smoke": {
		desc: "minimal sanity swarm: one source, one relay, two fetchers on a clean fabric",
		make: func(seed int64) Scenario {
			return Scenario{
				Name:    "smoke",
				Seed:    seed,
				Sources: 1, Relays: 1, Fetchers: 2,
				Objects:  []ObjectSpec{{Size: 8 << 10, K: 32}},
				Link:     LinkConfig{Latency: 2 * time.Millisecond},
				Duration: 30 * time.Second,
			}
		},
	},
	"churn50": {
		desc: "50-node swarm over a lossy jittery fabric, 20% of fetchers crash mid-fetch and are replaced",
		make: func(seed int64) Scenario {
			return Scenario{
				Name:    "churn50",
				Seed:    seed,
				Sources: 2, Relays: 8, Fetchers: 40,
				Objects: []ObjectSpec{
					{Size: 48 << 10, K: 192, Generations: 4},
					{Size: 16 << 10, K: 64},
				},
				PeersPerFetcher: 2,
				Link:            LinkConfig{Loss: 0.05, Latency: 5 * time.Millisecond, Jitter: 3 * time.Millisecond},
				Churn:           ChurnSpec{Fraction: 0.2, Start: 40 * time.Millisecond, Interval: 10 * time.Millisecond}, // inside the initial fetches: 58–140 ms in (seed 1)
				Duration:        60 * time.Second,
				MaxOverhead:     1.25,
			}
		},
	},
	"partition3hop": {
		desc: "three-hop relay chain partitioned between r1 and r2 until a 3s heal; completion only after recovery",
		make: func(seed int64) Scenario {
			return Scenario{
				Name:    "partition3hop",
				Seed:    seed,
				Sources: 1, Relays: 3, Fetchers: 2,
				Objects: []ObjectSpec{{Size: 32 << 10, K: 128}},
				Wiring:  WiringLine,
				Link:    LinkConfig{Loss: 0.02, Latency: 5 * time.Millisecond},
				Timeline: []Event{
					{At: 50 * time.Millisecond, Kind: EvPartition, Groups: [][]string{
						{"s0", "r0", "r1"},
						{"r2", "f0", "f1"},
					}},
					{At: 3 * time.Second, Kind: EvHeal},
				},
				Duration:    60 * time.Second,
				MaxOverhead: 1.25,
			}
		},
	},
	"relay-crash": {
		desc: "one of two relays crashes mid-fetch; the swarm must finish through the survivor",
		make: func(seed int64) Scenario {
			return Scenario{
				Name:    "relay-crash",
				Seed:    seed,
				Sources: 1, Relays: 2, Fetchers: 4,
				Objects:         []ObjectSpec{{Size: 32 << 10, K: 128}},
				PeersPerFetcher: 2, // = both relays
				Link:            LinkConfig{Loss: 0.03, Latency: 4 * time.Millisecond, Jitter: 2 * time.Millisecond},
				// Mid-fetch: the fetches complete ~100 ms in.
				Timeline: []Event{
					{At: 50 * time.Millisecond, Kind: EvCrash, Node: "r0"},
				},
				Duration:    60 * time.Second,
				MaxOverhead: 1.25,
			}
		},
	},
	"harsh-multihop": {
		desc: "brutal loss: a 3-relay powerline chain at 40% per-hop loss; receipts pace every hop and frontier repair fills the gaps so fetches still finish",
		make: func(seed int64) Scenario {
			return Scenario{
				Name:    "harsh-multihop",
				Seed:    seed,
				Sources: 1, Relays: 3, Fetchers: 2,
				Objects:  []ObjectSpec{{Size: 16 << 10, K: 64}},
				Wiring:   WiringLine,
				Link:     LinkConfig{Loss: 0.4, Latency: 5 * time.Millisecond},
				Duration: 120 * time.Second,
				// At 40% per-hop loss the repair stream is mostly what gets
				// through; reception overhead counts only arrivals, but it
				// legitimately runs hot here (1.55 at the worst of seeds
				// 1–20).
				MaxOverhead: 2.5,
			}
		},
	},
	"asym-uplink": {
		desc: "edge clients behind 20%-loss, 40ms, 64KiB/s uplinks under a clean downlink",
		make: func(seed int64) Scenario {
			return Scenario{
				Name:    "asym-uplink",
				Seed:    seed,
				Sources: 1, Relays: 2, Fetchers: 6,
				Objects:         []ObjectSpec{{Size: 24 << 10, K: 96}},
				PeersPerFetcher: 2,
				Link:            LinkConfig{Loss: 0.01, Latency: 3 * time.Millisecond},
				Uplink:          &LinkConfig{Loss: 0.2, Latency: 40 * time.Millisecond, BandwidthBPS: 64 << 10},
				Duration:        60 * time.Second,
				MaxOverhead:     1.25,
			}
		},
	},
	"edge-cache": {
		desc: "flash crowd behind a chain of budgeted partial caches: 8 fetchers pull a hot object from 3 caches that never decode, and the origin serves it roughly once",
		make: func(seed int64) Scenario {
			return Scenario{
				Name:    "edge-cache",
				Seed:    seed,
				Sources: 1, Caches: 3, Fetchers: 8,
				// One hot 64 KiB object in 4 generations; each cache's
				// budget comfortably fits it (~70 KiB of rows), so full
				// coverage — and full origin offload — is reachable.
				Objects:         []ObjectSpec{{Size: 64 << 10, K: 256, Generations: 4}},
				CacheBudget:     160 << 10,
				PeersPerFetcher: 2,
				Link:            LinkConfig{Latency: 2 * time.Millisecond},
				Duration:        60 * time.Second,
				MaxOverhead:     1.25,
			}
		},
	},
	"polluted-swarm": {
		desc: "Byzantine swarm: 2 of 8 serving peers forge garbage rows at every subscriber; fetchers must quarantine, convict and re-fetch to byte-identical completion",
		make: func(seed int64) Scenario {
			return Scenario{
				Name:    "polluted-swarm",
				Seed:    seed,
				Sources: 1, Relays: 6, Polluters: 2, Fetchers: 4,
				// One 64 KiB object in 4 generations: big enough that the
				// forged stream races real decoding, small enough that
				// quarantine and refill resolve well inside the horizon.
				Objects:         []ObjectSpec{{Size: 64 << 10, K: 256, Generations: 4}},
				PeersPerFetcher: 2, // honest relays; every polluter is added on top
				Link:            LinkConfig{Latency: 2 * time.Millisecond},
				Duration:        60 * time.Second,
				// Poisoned generations are decoded, discarded and re-fetched:
				// reception overhead legitimately includes the forged rows
				// (1.49 at the worst of seeds 1–20).
				MaxOverhead: 2.5,
			}
		},
	},
	"polluted-mesh": {
		desc: "Byzantine mesh: 2 polluters spray 8 recoding fetchers, so forged rows reach nodes that forward; a node pushes on only natives its manifest run proves, and no honest node is convicted",
		make: func(seed int64) Scenario {
			return Scenario{
				Name:    "polluted-mesh",
				Seed:    seed,
				Sources: 1, Fetchers: 8, Polluters: 2,
				Wiring:          WiringMesh,
				Objects:         []ObjectSpec{{Size: 64 << 10, K: 256, Generations: 4}},
				PeersPerFetcher: 2,
				Link:            LinkConfig{Latency: 2 * time.Millisecond},
				Duration:        60 * time.Second,
				MaxOverhead:     2.5,
			}
		},
	},
	"flash-crowd-1k": {
		desc: "1,000 sessions flash-join a 3-node bootstrap through the membership plane while 2 polluters gossip themselves in; every fetch byte-identical, views bounded, convicts never re-admitted",
		make: func(seed int64) Scenario {
			return Scenario{
				Name:    "flash-crowd-1k",
				Seed:    seed,
				Sources: 3, Fetchers: 1000, Polluters: 2,
				// Mesh: every joiner recodes, so the crowd absorbs itself —
				// the 3 bootstrap sources seed the epidemic and gossip does
				// the rest. Nobody is statically wired to anybody.
				Wiring:    WiringMesh,
				Bootstrap: 3,
				ViewSize:  32, ShufflePeriod: 100 * time.Millisecond,
				ViewConvergeBy: 30 * time.Second,
				Objects:        []ObjectSpec{{Size: 8 << 10, K: 32}},
				Tick:           25 * time.Millisecond,
				Link:           LinkConfig{Latency: 2 * time.Millisecond},
				Duration:       120 * time.Second,
			}
		},
	},
	"asym-90-10": {
		desc: "90% plain fetchers / 10% relays at 300 nodes: capacity-weighted neighbor selection must steer the crowd at the relay tier via gossip alone",
		make: func(seed int64) Scenario {
			return Scenario{
				Name:    "asym-90-10",
				Seed:    seed,
				Sources: 2, Relays: 28, Fetchers: 270,
				Bootstrap: 3, // both sources + r0
				ViewSize:  32, ShufflePeriod: 100 * time.Millisecond,
				ViewConvergeBy: 30 * time.Second,
				Objects:        []ObjectSpec{{Size: 16 << 10, K: 64}},
				Tick:           25 * time.Millisecond,
				Link:           LinkConfig{Latency: 2 * time.Millisecond},
				Duration:       120 * time.Second,
			}
		},
	},
	"asym-90-10-1k": {
		soak: true,
		desc: "the 90/10 asymmetry at 1,000 sessions: 900 plain fetchers steered at 100 relays (-tags soak)",
		make: func(seed int64) Scenario {
			return Scenario{
				Name:    "asym-90-10-1k",
				Seed:    seed,
				Sources: 3, Relays: 97, Fetchers: 900,
				Bootstrap: 3,
				ViewSize:  32, ShufflePeriod: 100 * time.Millisecond,
				ViewConvergeBy: 60 * time.Second,
				Objects:        []ObjectSpec{{Size: 16 << 10, K: 64}},
				Tick:           25 * time.Millisecond,
				Link:           LinkConfig{Latency: 2 * time.Millisecond},
				Duration:       180 * time.Second,
			}
		},
	},
	"member-churn": {
		desc: "300-session gossip mesh under sustained 20% churn: joiners arrive with nothing but the bootstrap set and the views heal around the crashes",
		make: func(seed int64) Scenario {
			return Scenario{
				Name:    "member-churn",
				Seed:    seed,
				Sources: 2, Fetchers: 290,
				Wiring:    WiringMesh,
				Bootstrap: 2,
				// No ViewConvergeBy: under sustained churn there is rarely
				// an instant where every live view is simultaneously full —
				// fresh joiners always have cold views. The gate here is
				// healing and completion, not a convergence deadline.
				ViewSize: 32, ShufflePeriod: 100 * time.Millisecond,
				Objects:  []ObjectSpec{{Size: 16 << 10, K: 64}},
				Tick:     25 * time.Millisecond,
				Link:     LinkConfig{Latency: 2 * time.Millisecond},
				Churn:    ChurnSpec{Fraction: 0.2, Start: 30 * time.Millisecond, Interval: 5 * time.Millisecond}, // half the initial fetches are done 180 ms in (seed 1)
				Duration: 120 * time.Second,
			}
		},
	},
	"member-churn-1k": {
		soak: true,
		desc: "sustained 20% churn over a 1,000-session gossip mesh: 200 mid-fetch crashes, every replacement joins via 3 bootstrap nodes (-tags soak)",
		make: func(seed int64) Scenario {
			return Scenario{
				Name:    "member-churn-1k",
				Seed:    seed,
				Sources: 3, Fetchers: 1000,
				Wiring:    WiringMesh,
				Bootstrap: 3,
				// No ViewConvergeBy, as in member-churn: churn keeps some
				// live view cold at every sample instant by design.
				ViewSize: 32, ShufflePeriod: 100 * time.Millisecond,
				Objects:  []ObjectSpec{{Size: 8 << 10, K: 32}},
				Tick:     25 * time.Millisecond,
				Link:     LinkConfig{Latency: 2 * time.Millisecond},
				Churn:    ChurnSpec{Fraction: 0.2, Start: 100 * time.Millisecond, Interval: 2 * time.Millisecond}, // half the initial fetches are done 270 ms in (seed 1)
				Duration: 180 * time.Second,
			}
		},
	},
	"soak": {
		soak: true,
		desc: "60-node recoding mesh, heavy loss, mid-run partition and 30% churn over four objects (-tags soak)",
		make: func(seed int64) Scenario {
			return Scenario{
				Name:    "soak",
				Seed:    seed,
				Sources: 1, Fetchers: 59,
				Wiring: WiringMesh,
				Objects: []ObjectSpec{
					{Size: 128 << 10, K: 512, Generations: 8},
					{Size: 64 << 10, K: 256, Generations: 4},
					{Size: 32 << 10, K: 128},
					{Size: 48 << 10, K: 192, Generations: 2},
				},
				PeersPerFetcher: 3,
				Link:            LinkConfig{Loss: 0.1, Latency: 8 * time.Millisecond, Jitter: 4 * time.Millisecond},
				Churn:           ChurnSpec{Fraction: 0.3, Start: 60 * time.Millisecond, Interval: 20 * time.Millisecond},
				// The partition must overlap the initial bulk transfer to bite:
				// it opens at 100 ms (the k=512 object is still streaming; its
				// fetches complete ~230 ms in) and heals at 4s, stranding the
				// f0–f9 side from the source mid-object.
				Timeline: []Event{
					{At: 100 * time.Millisecond, Kind: EvPartition, Groups: [][]string{
						{"f0", "f1", "f2", "f3", "f4", "f5", "f6", "f7", "f8", "f9"},
						{"s0", "f10", "f11", "f12", "f13", "f14", "f15"},
					}},
					{At: 4 * time.Second, Kind: EvHeal},
				},
				Duration:    5 * time.Minute,
				MaxOverhead: 1.25,
			}
		},
	},
}

// List returns the catalog of named scenarios, sorted.
func List() []string {
	out := make([]string, 0, len(named))
	for name := range named {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ScenarioInfo summarizes one catalog entry for listings: what the
// scenario exercises and how big it is.
type ScenarioInfo struct {
	Name      string
	Desc      string
	Sources   int
	Relays    int
	Caches    int
	Fetchers  int
	Polluters int
	Liars     int
	Bootstrap int // membership-mode bootstrap nodes (0 = static wiring)
	Objects   int
	Wiring    Wiring
}

// Catalog returns the named scenarios with their descriptions and
// resolved population sizes, sorted by name.
func Catalog() []ScenarioInfo {
	out := make([]ScenarioInfo, 0, len(named))
	for _, name := range List() {
		e := named[name]
		sc := e.make(1)
		if err := sc.setDefaults(); err != nil {
			// Catalog entries are compiled in; a broken one is a bug the
			// scenario tests catch. Report it as-declared.
			sc = e.make(1)
		}
		out = append(out, ScenarioInfo{
			Name:      name,
			Desc:      e.desc,
			Sources:   sc.Sources,
			Relays:    sc.Relays,
			Caches:    sc.Caches,
			Fetchers:  sc.Fetchers,
			Polluters: sc.Polluters,
			Liars:     sc.Liars,
			Bootstrap: sc.Bootstrap,
			Objects:   len(sc.Objects),
			Wiring:    sc.Wiring,
		})
	}
	return out
}

// Named returns the catalog scenario with the given name, parameterized
// by seed (0 = the scenario's default seed 1).
func Named(name string, seed int64) (Scenario, error) {
	e, ok := named[name]
	if !ok {
		return Scenario{}, fmt.Errorf("simnet: unknown scenario %q (have %v)", name, List())
	}
	return e.make(seed), nil
}
