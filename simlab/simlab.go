// Package simlab is the public face of the deterministic virtual-time
// swarm laboratory: declare a Scenario — a population of real
// dissemination sessions (sources, recoding relays, fetchers) on a shaped
// network fabric plus a timeline of churn, crash, partition and link
// events — and Run it. Time is virtual and the whole swarm is stepped on
// the caller's goroutine: a minute of protocol time (push ticks, proof
// repair, idle eviction, fetch retries) passes in a fraction of a wall
// second, and everything the engine randomizes derives from the scenario
// seed, so two runs of one (Seed, Scenario) return the same Report —
// every frame's fate (TraceHash), the virtual time taken, every fetch's
// row — WallElapsed excepted.
//
// The run checks the invariants the dissemination protocol promises and
// reports any breach in Report.Violations: every fetch completes
// byte-identical to the served content, Watch progress is monotone,
// every DATA frame carries exactly the O(k/G) header the generation
// layer promises, reception overhead stays under the scenario bound, and
// the swarm never deadlocks (fetches still outstanding at the virtual
// deadline, Scenario.Duration, have failed).
//
// Run a named scenario from the catalog:
//
//	sc, _ := simlab.Named("churn50", 1)
//	rep, err := sc.Run(context.Background())
//	if err != nil || !rep.Ok() { ... }
//
// or declare one:
//
//	sc := simlab.Scenario{
//		Seed: 7, Sources: 1, Relays: 3, Fetchers: 10,
//		Objects: []simlab.ObjectSpec{{Size: 1 << 20, K: 4096, Generations: 4}},
//		Link:    simlab.LinkConfig{Loss: 0.05, Latency: 10 * time.Millisecond},
//		Churn:   simlab.ChurnSpec{Fraction: 0.2},
//	}
//
// The ltnc-sim command exposes the same catalog on the command line
// (`ltnc-sim -scenario churn50`, JSON on stdout). This package is a
// facade over internal/simnet; see DESIGN.md §11 for the architecture —
// the single-threaded stepper over one event heap, the order within an
// instant, and what is seeded.
package simlab

import (
	"ltnc/internal/cache"
	"ltnc/internal/simnet"
)

// Scenario declares a virtual-time swarm experiment; see the package
// documentation and the field docs for the vocabulary. The zero value of
// every field selects a sensible default.
type Scenario = simnet.Scenario

// ObjectSpec describes one object served into the swarm: content size,
// code length and generation count.
type ObjectSpec = simnet.ObjectSpec

// LinkConfig shapes one directed link: loss probability, latency, jitter,
// bandwidth and MTU.
type LinkConfig = simnet.LinkConfig

// ChurnSpec generates crash-and-rejoin events over the fetcher
// population.
type ChurnSpec = simnet.ChurnSpec

// Event is one scheduled occurrence on a scenario timeline; EventKind
// discriminates crash, join, partition, heal and link reshaping.
type Event = simnet.Event
type EventKind = simnet.EventKind

// The timeline event kinds.
const (
	EvCrash     = simnet.EvCrash
	EvJoin      = simnet.EvJoin
	EvPartition = simnet.EvPartition
	EvHeal      = simnet.EvHeal
	EvSetLink   = simnet.EvSetLink
)

// Wiring selects how the population is peered: star (fetchers subscribe
// at relays), line (a multihop relay chain), or mesh (every fetcher is
// also a recoding relay).
type Wiring = simnet.Wiring

// The wiring shapes.
const (
	WiringStar = simnet.WiringStar
	WiringLine = simnet.WiringLine
	WiringMesh = simnet.WiringMesh
)

// Report is the outcome of one scenario run; FetchResult one (node,
// object) fetch within it. Report.Ok is the "run was clean" summary;
// Report.Violations itemizes any invariant breach.
type Report = simnet.Report
type FetchResult = simnet.FetchResult

// NetStats aggregates the fabric's frame accounting: sent, delivered and
// every drop cause (loss, MTU, queue overflow, down node, partition).
type NetStats = simnet.Stats

// CacheTierStats snapshots one edge cache's occupancy and policy
// counters in a Report (budget, bytes used, rows, served frames, …).
type CacheTierStats = cache.Stats

// ScenarioInfo summarizes one catalog entry for listings: description
// and resolved population sizes.
type ScenarioInfo = simnet.ScenarioInfo

// List returns the names of the catalog scenarios (churn, partition/heal,
// relay crash, asymmetric uplink, edge cache, soak, …).
func List() []string { return simnet.List() }

// Catalog returns the named scenarios with their descriptions and
// resolved node/object counts, sorted by name.
func Catalog() []ScenarioInfo { return simnet.Catalog() }

// Named returns the catalog scenario with the given name, parameterized
// by seed (0 = the default seed 1). Run it with Scenario.Run.
func Named(name string, seed int64) (Scenario, error) { return simnet.Named(name, seed) }
