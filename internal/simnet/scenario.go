package simnet

import (
	"fmt"
	"time"

	"ltnc/internal/cache"
)

// Wiring selects how a scenario's nodes are peered.
type Wiring int

const (
	// WiringStar: sources push to every relay; each fetcher subscribes at
	// PeersPerFetcher relays chosen by the scenario RNG.
	WiringStar Wiring = iota
	// WiringLine: sources push into a relay chain r0 → r1 → … (each hop a
	// recoding intermediary); fetchers subscribe at the last relay — the
	// multihop shape of the powerline/smart-grid line of work.
	WiringLine
	// WiringMesh: no designated relays — every fetcher is also a recoding
	// relay and peers with PeersPerFetcher random mesh nodes; sources
	// push to a few of them. The closest shape to the paper's flat
	// epidemic dissemination.
	WiringMesh
)

func (w Wiring) String() string {
	switch w {
	case WiringStar:
		return "star"
	case WiringLine:
		return "line"
	case WiringMesh:
		return "mesh"
	default:
		return fmt.Sprintf("wiring(%d)", int(w))
	}
}

// ObjectSpec describes one object served into the swarm.
type ObjectSpec struct {
	// Size is the content length in bytes; K the code length; Generations
	// the generation count G (0 or 1 = single generation).
	Size        int
	K           int
	Generations int
}

// ChurnSpec generates crash/join events over the fetcher population.
type ChurnSpec struct {
	// Fraction of the initial fetchers crashed over the churn window
	// (each mid-fetch crash is followed by a fresh joiner fetching the
	// same objects, unless NoReplace).
	Fraction  float64
	Start     time.Duration // first crash (default 500ms)
	Interval  time.Duration // spacing between crashes (default 250ms)
	NoReplace bool
}

// EventKind discriminates timeline events.
type EventKind int

// The scenario timeline vocabulary.
const (
	EvCrash     EventKind = iota + 1 // node vanishes abruptly (port down, session dead)
	EvJoin                           // a fresh fetcher joins and starts fetching
	EvPartition                      // split the fabric into Groups
	EvHeal                           // remove the partition
	EvSetLink                        // reshape the directed link From → To
)

func (k EventKind) String() string {
	switch k {
	case EvCrash:
		return "crash"
	case EvJoin:
		return "join"
	case EvPartition:
		return "partition"
	case EvHeal:
		return "heal"
	case EvSetLink:
		return "setlink"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// Event is one scheduled occurrence on a scenario's timeline.
type Event struct {
	At     time.Duration // virtual offset from scenario start
	Kind   EventKind
	Node   string     // EvCrash / EvJoin target
	Groups [][]string // EvPartition groups (node names)
	From   string     // EvSetLink endpoints
	To     string
	Link   LinkConfig // EvSetLink shape
}

// Scenario declares a virtual-time swarm experiment: a population of real
// sessions (sources, recoding relays, fetchers) on a shaped fabric, a
// timeline of churn and partition events, and the invariant bounds the
// run is checked against. Run executes it, on one goroutine; everything
// the engine randomizes derives from Seed, so the whole run — timeline,
// traffic, every frame's fate — replays from (Seed, Scenario).
type Scenario struct {
	Name string
	Seed int64

	// Population. Sources serve the objects (round-robin); relays recode;
	// fetchers fetch every object. Defaults: 1 source, 2 relays, 4
	// fetchers, one 16 KiB / k=64 object.
	Sources  int
	Relays   int
	Fetchers int
	Objects  []ObjectSpec

	// Polluters adds Byzantine actors to the swarm: raw ports that answer
	// subscriptions with wire-perfect forged DATA rows (valid
	// geometry, garbage payloads) and ignore all feedback — the adversary
	// the session layer's integrity manifests and blame/quarantine
	// machinery exist for. Every fetcher subscribes at all polluters on
	// top of its honest relay picks, so each fetch is exposed; under mesh
	// wiring every fetcher forwards too, so forged rows reach nodes that
	// push onward. Requires star or mesh wiring without a cache tier.
	Polluters int

	// Liars adds lying-receiver actors (liar.go): raw ports that flood
	// every source and relay, for every object, with reports forged
	// through packet.AppendReport — each not flagged complete a
	// subscription too — and drain the pushes they draw. Even-numbered
	// liars claim nothing received and everything departed, every
	// liarEvery (the play against the loss estimate); odd-numbered ones
	// over-claim, run their counters backwards and wrap them, and forge
	// departure counts, frontiers and flags, every liarFlood (the play
	// against the receipt-clocked window). Honest fetches must still
	// complete. Requires static star wiring without caches or
	// membership mode.
	Liars int

	// Caches inserts a tier of budgeted partial-cache sessions between
	// the sources and the fetchers: sources push into a cache chain
	// c0 → c1 → …, fetchers subscribe at caches only, and the caches
	// retain innovative rows (never decoding) under CacheBudget bytes
	// each (default 256 KiB). With Caches set, Relays defaults to 0 and
	// the report counts source-sent DATA frames — the origin-offload
	// measurement. See internal/cache.
	Caches      int
	CacheBudget int64

	// Bootstrap, when positive, replaces static wiring with the epidemic
	// membership plane: the first Bootstrap nodes (sources first, then
	// relays) are the only addresses anyone is configured with, every
	// session joins by PEX view shuffles (session.Config.Bootstrap), and
	// fetches run with no explicit source — subscription steering follows the
	// gossip-discovered, capacity-weighted neighbor sets. PeersPerFetcher
	// and the static wiring rules are ignored; Wiring still decides
	// whether fetchers recode (WiringMesh) or stay plain (WiringStar).
	// Polluters advertise themselves into the gossip like any ambitious
	// peer would, so conviction is reached through discovery, not wiring.
	Bootstrap int
	// ViewSize bounds each session's partial view (0 = session default);
	// ShufflePeriod paces the view shuffles (0 = session default).
	ViewSize      int
	ShufflePeriod time.Duration
	// ViewConvergeBy, when set, is the view-convergence bound: a
	// violation is recorded unless some sampled virtual instant at or
	// before this deadline sees every live member session's view filled
	// to the convergence target — min(view bound, live members − 1, half
	// the view bound). A run whose fetches all resolve earlier stays up
	// until the bound is settled one way or the other.
	ViewConvergeBy time.Duration

	// Wiring and fabric shape.
	Wiring          Wiring
	PeersPerFetcher int // relays (or mesh peers) each fetcher subscribes at (default 2)
	Link            LinkConfig
	// Uplink, when set, overrides every fetcher→relay (or mesh) direction
	// — the asymmetric-uplink knob (e.g. slow, lossy last-mile uplinks
	// under a clean downlink).
	Uplink     *LinkConfig
	QueueDepth int
	Grid       time.Duration
	Trace      bool

	// Session tuning (virtual durations). Every session is receipt-clocked,
	// and the run checks, on every DATA frame crossing the fabric, that no
	// sender put more than adapt.TickCeiling of them toward one receiver
	// for one object into one Tick of virtual time: the ceiling no receipt
	// stream, forged or flooded, can lift.
	Tick        time.Duration // default 10ms
	IdleTimeout time.Duration // default: session default (60s)

	// Dynamics.
	Churn    ChurnSpec
	Timeline []Event

	// Bounds. Duration caps virtual time (default 60s) — incomplete
	// fetches then fail the run, which is how a deadlock shows; MaxOverhead
	// bounds each completed fetch's reception overhead (received/K; 0 =
	// unchecked).
	Duration    time.Duration
	MaxOverhead float64
}

func (sc *Scenario) setDefaults() error {
	if sc.Seed == 0 {
		sc.Seed = 1
	}
	if sc.Sources == 0 {
		sc.Sources = 1
	}
	if sc.Relays == 0 && sc.Caches == 0 && sc.Wiring != WiringMesh && sc.Bootstrap == 0 {
		sc.Relays = 2
	}
	if sc.Fetchers == 0 {
		sc.Fetchers = 4
	}
	if sc.Sources < 1 || sc.Relays < 0 || sc.Caches < 0 || sc.Fetchers < 1 || sc.Polluters < 0 || sc.Liars < 0 {
		return fmt.Errorf("simnet: population %d/%d/%d/%d/%d/%d invalid", sc.Sources, sc.Relays, sc.Caches, sc.Fetchers, sc.Polluters, sc.Liars)
	}
	if err := sc.checkTiers(); err != nil {
		return err
	}
	if len(sc.Objects) == 0 {
		sc.Objects = []ObjectSpec{{Size: 16 << 10, K: 64}}
	}
	for i, o := range sc.Objects {
		if o.Size < 1 || o.K < 1 {
			return fmt.Errorf("simnet: object %d: size %d / k %d invalid", i, o.Size, o.K)
		}
	}
	if sc.PeersPerFetcher == 0 {
		sc.PeersPerFetcher = 2
	}
	if sc.Tick == 0 {
		sc.Tick = 10 * time.Millisecond
	}
	if sc.Duration == 0 {
		sc.Duration = 60 * time.Second
	}
	if sc.Churn.Fraction < 0 || sc.Churn.Fraction > 1 {
		return fmt.Errorf("simnet: churn fraction %v outside [0,1]", sc.Churn.Fraction)
	}
	if sc.Churn.Start == 0 {
		sc.Churn.Start = 500 * time.Millisecond
	}
	if sc.Churn.Interval == 0 {
		sc.Churn.Interval = 250 * time.Millisecond
	}
	return nil
}

// checkTiers validates which optional tiers — liars, membership,
// polluters, caches — go with which wiring, and defaults the cache budget.
func (sc *Scenario) checkTiers() error {
	if sc.Liars > 0 && (sc.Wiring != WiringStar || sc.Caches > 0 || sc.Bootstrap > 0) {
		return fmt.Errorf("simnet: liar tier requires static star wiring without caches")
	}
	if sc.Bootstrap < 0 || sc.ViewSize < 0 || sc.ShufflePeriod < 0 || sc.ViewConvergeBy < 0 {
		return fmt.Errorf("simnet: membership knobs %d/%d/%v/%v invalid", sc.Bootstrap, sc.ViewSize, sc.ShufflePeriod, sc.ViewConvergeBy)
	}
	if sc.Bootstrap > 0 {
		if sc.Caches > 0 {
			return fmt.Errorf("simnet: membership mode does not cover the cache-chain tier")
		}
		if sc.Wiring == WiringLine {
			return fmt.Errorf("simnet: membership mode replaces wiring; use star or mesh")
		}
		if sc.Bootstrap > sc.Sources+sc.Relays {
			return fmt.Errorf("simnet: %d bootstrap nodes but only %d sources+relays", sc.Bootstrap, sc.Sources+sc.Relays)
		}
	}
	if sc.Polluters > 0 && sc.Bootstrap == 0 && (sc.Wiring == WiringLine || sc.Caches > 0) {
		return fmt.Errorf("simnet: polluter tier requires star or mesh wiring without caches")
	}
	if sc.Caches > 0 {
		if sc.Wiring != WiringStar {
			return fmt.Errorf("simnet: cache tier requires star wiring")
		}
		if sc.CacheBudget == 0 {
			sc.CacheBudget = 256 << 10
		}
		if sc.CacheBudget < 0 {
			return fmt.Errorf("simnet: cache budget %d invalid", sc.CacheBudget)
		}
	}
	if sc.Wiring == WiringMesh && sc.Relays != 0 {
		return fmt.Errorf("simnet: mesh wiring has no designated relays")
	}
	return nil
}

// FetchResult is the outcome of one (node, object) fetch.
type FetchResult struct {
	Node        string        `json:"node"`
	Object      string        `json:"object"`
	Completed   bool          `json:"completed"`
	Crashed     bool          `json:"crashed,omitempty"` // node crashed before completion (expected under churn)
	Bytes       int           `json:"bytes,omitempty"`
	Overhead    float64       `json:"overhead,omitempty"`
	CompletedAt time.Duration `json:"completed_at,omitempty"` // virtual
	Err         string        `json:"err,omitempty"`
	// Polluted counts the quarantine events the fetch survived; Banned is
	// the node's conviction list at fetch resolution (polluter scenarios).
	Polluted int64    `json:"polluted,omitempty"`
	Banned   []string `json:"banned,omitempty"`
}

// Report is the outcome of one scenario run.
type Report struct {
	Scenario string `json:"scenario"`
	Seed     int64  `json:"seed"`
	Nodes    int    `json:"nodes"` // peak population

	Fetches          []FetchResult `json:"fetches"`
	FetchesCompleted int           `json:"fetches_completed"`
	FetchesCrashed   int           `json:"fetches_crashed"`
	FetchesFailed    int           `json:"fetches_failed"`

	VirtualElapsed time.Duration `json:"virtual_elapsed"`
	WallElapsed    time.Duration `json:"wall_elapsed"`
	MeanOverhead   float64       `json:"mean_overhead"` // over completed fetches
	MaxHeaderBytes int           `json:"max_header_bytes"`

	// OriginDataFrames counts DATA frames sent by source nodes onto the
	// fabric — the origin-load measurement a cache tier is judged by
	// (with Caches > 0, fetchers subscribe at the caches, so the origin
	// serves the object roughly once no matter how many fetchers pull).
	OriginDataFrames int64 `json:"origin_data_frames"`
	// CacheTiers snapshots each cache node's partial-cache counters at
	// teardown, keyed by node name (cache-tier scenarios only).
	CacheTiers map[string]cache.Stats `json:"cache_tiers,omitempty"`

	// Membership (Bootstrap > 0): partial-view occupancy across the live
	// member sessions at teardown against the configured bound, and the
	// first sampled virtual instant at which every live member's view had
	// reached the convergence target (0 = never observed converged).
	ViewBound       int           `json:"view_bound,omitempty"`
	ViewMin         int           `json:"view_min,omitempty"`
	ViewMax         int           `json:"view_max,omitempty"`
	ViewMean        float64       `json:"view_mean,omitempty"`
	ViewConvergedAt time.Duration `json:"view_converged_at,omitempty"`

	// DataFrames counts every DATA frame offered to the fabric by anyone —
	// the total a polluted run's traffic inflation is judged against.
	// ForgedDataFrames is the slice of that total sent by polluter actors.
	// MaxFlowDataFrames is the most DATA frames any one honest sender
	// offered for one object toward one receiver: what a hop cost, to hold
	// against k/(1 − loss).
	DataFrames        int64 `json:"data_frames"`
	ForgedDataFrames  int64 `json:"forged_data_frames,omitempty"`
	MaxFlowDataFrames int64 `json:"max_flow_data_frames"`
	// FeedbackFrames counts every FEEDBACK frame offered to the fabric.
	FeedbackFrames int64 `json:"feedback_frames"`

	Net Stats `json:"net"`
	// TimelineHash digests the resolved event schedule (churn victims,
	// join specs, partitions) and TraceHash, when Trace was set, the
	// per-frame delivery trace. Like everything in the report but
	// WallElapsed they are identical across runs of one (Seed, Scenario).
	TimelineHash string `json:"timeline_hash"`
	TraceHash    string `json:"trace_hash,omitempty"`

	// Violations lists every invariant breach observed: non-byte-identical
	// fetch, non-monotone Watch, header over bound, overhead over bound,
	// unexpected session error, an instant of the fabric that would not
	// settle. A clean run has none.
	Violations []string `json:"violations,omitempty"`
}

// Ok reports whether the run completed every surviving fetch with no
// invariant violations.
func (r *Report) Ok() bool {
	return len(r.Violations) == 0 && r.FetchesFailed == 0 && r.FetchesCompleted > 0
}
