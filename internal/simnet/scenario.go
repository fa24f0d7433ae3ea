package simnet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"ltnc/internal/adapt"
	"ltnc/internal/cache"
	"ltnc/internal/packet"
	"ltnc/internal/session"
	"ltnc/internal/transport"
	"ltnc/internal/xrand"
)

// dataTag is the session wire protocol's DATA frame type byte (see the
// internal/session package doc); the header-bound invariant recognizes
// DATA frames by it.
const dataTag = 0x01

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
// run is checked against. Run executes it; everything the engine
// randomizes derives from Seed, so the resolved timeline — and, for a
// given interleaving, the traffic — replays from (Seed, Scenario).
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
	// REQ subscriptions with wire-perfect forged DATA rows (valid
	// geometry, garbage payloads) and ignore all feedback — the adversary
	// the session layer's integrity manifests and blame/quarantine
	// machinery exist for. Every fetcher subscribes at all polluters on
	// top of its honest relay picks, so each fetch is exposed. Requires
	// star wiring without a cache tier.
	Polluters int

	// Liars adds lying-receiver actors (Adaptive swarms only): raw ports
	// that REQ-subscribe at every source and relay for every object, drain
	// the resulting pushes, and flood forged kind-5 receipt reports — the
	// even-numbered ones claiming they received nothing (the extortion
	// play against the adaptive loop, trying to pin the sender's loss
	// estimate at the ceiling and divert redundancy budget away from
	// honest peers), the odd-numbered ones over-claiming, running their
	// counters backwards and wrapping them, ten times a tick (the play
	// against the receipt-clocked window: every forged receipt empties it).
	// The estimator's clamps (MaxLoss, budget never above the static
	// satiation limit, never more than adapt.TickCeiling rows a tick) must
	// keep honest fetches completing. Requires static star wiring without
	// caches or membership mode.
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
	// fetches run with no explicit source — REQ steering follows the
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
	// before this deadline (or teardown, if every fetch resolves earlier)
	// sees every live member session's view filled to the convergence
	// target — min(view bound, live members − 1, half the view bound).
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

	// Session tuning (virtual durations).
	Tick           time.Duration // default 10ms
	Burst          int           // default 2; BurstPaced leaves it to the receipts
	Aggressiveness float64       // default: session default (0.01)
	IdleTimeout    time.Duration // default: session default (60s)
	// Adaptive turns on every session's loss-tuned redundancy budget
	// (session.Config.Adaptive; DESIGN.md §16): the per-peer loss estimate
	// the receipt reports feed sets it instead of the static constant.
	Adaptive bool

	// Dynamics.
	Churn    ChurnSpec
	Timeline []Event

	// Bounds. Duration caps virtual time (default 60s) — incomplete
	// fetches then fail the run; MaxOverhead bounds each completed
	// fetch's reception overhead (received/K; 0 = unchecked); WallBudget
	// is the real-time no-deadlock watchdog (default 90s).
	Duration    time.Duration
	MaxOverhead float64
	WallBudget  time.Duration
}

// BurstPaced as Scenario.Burst runs every session receipt-clocked — the
// session default, session.Config.Burst unset — where the zero value keeps
// meaning the lab's fixed two frames a tick. A paced run also checks, on
// every DATA frame crossing the fabric, that no sender put more than
// adapt.TickCeiling of them toward one receiver for one object into one
// Tick of virtual time: the ceiling no receipt stream, forged or
// flooded, can lift.
const BurstPaced = -1

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
	if sc.Liars > 0 {
		if !sc.Adaptive {
			return fmt.Errorf("simnet: liar tier requires the adaptive loop")
		}
		if sc.Wiring != WiringStar || sc.Caches > 0 || sc.Bootstrap > 0 {
			return fmt.Errorf("simnet: liar tier requires static star wiring without caches")
		}
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
	if sc.Polluters > 0 && sc.Bootstrap == 0 && (sc.Wiring != WiringStar || sc.Caches > 0) {
		return fmt.Errorf("simnet: polluter tier requires star wiring without caches")
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
	if sc.Burst == 0 {
		sc.Burst = 2
	}
	if sc.Burst < BurstPaced {
		return fmt.Errorf("simnet: burst %d invalid", sc.Burst)
	}
	if sc.Duration == 0 {
		sc.Duration = 60 * time.Second
	}
	if sc.WallBudget == 0 {
		sc.WallBudget = 90 * time.Second
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
	DataFrames       int64 `json:"data_frames"`
	ForgedDataFrames int64 `json:"forged_data_frames,omitempty"`

	Net Stats `json:"net"`
	// TimelineHash digests the resolved event schedule (churn victims,
	// join specs, partitions): identical across runs of the same
	// (Seed, Scenario) by construction.
	TimelineHash string `json:"timeline_hash"`
	// TraceHash digests the per-frame delivery trace when Trace was set.
	TraceHash string `json:"trace_hash,omitempty"`

	// Violations lists every invariant breach observed: non-byte-identical
	// fetch, non-monotone Watch, header over bound, overhead over bound,
	// unexpected session error, wall-budget (deadlock) watchdog. A clean
	// run has none.
	Violations []string `json:"violations,omitempty"`
	Stalls     int64    `json:"stalls"`
}

// Ok reports whether the run completed every surviving fetch with no
// invariant violations.
func (r *Report) Ok() bool {
	return len(r.Violations) == 0 && r.FetchesFailed == 0 && r.FetchesCompleted > 0
}

type objGeom struct {
	kPer, gens, m int
	wireSize      int // exact expected DATA frame size on the wire
}

type simNode struct {
	name    string
	sess    *session.Session
	port    *Port
	cancel  context.CancelFunc
	removeQ func()
	runDone chan struct{}

	mu      sync.Mutex
	crashed bool
}

type joinSpec struct {
	name  string
	peers []string
}

// runner holds one scenario execution.
type runner struct {
	sc  Scenario
	net *Net

	contents map[packet.ObjectID][]byte
	geom     map[packet.ObjectID]objGeom
	ids      []packet.ObjectID

	// srcSet marks source addresses and pollSet polluter addresses;
	// inspect counts their DATA frames (both read-only after setup, so
	// safe on the sender goroutines).
	srcSet  map[transport.Addr]bool
	pollSet map[transport.Addr]bool

	// bootAddrs is the membership-mode bootstrap set every session is
	// configured with (read-only after setup); viewConvergedAt is the
	// first sampled virtual time the whole live population's views had
	// reached the convergence target.
	bootAddrs       []transport.Addr
	viewConvergedAt time.Duration

	mu          sync.Mutex
	nodes       map[string]*simNode
	violations  []string
	results     []FetchResult
	outstanding int
	pendingJoin int
	allDone     chan struct{} // closed when outstanding == pendingJoin == 0
	maxHeader   int
	originData  int64
	dataFrames  int64
	forgedData  int64
	// ticks counts, in a paced run, the DATA frames of the tick in progress
	// per (sender, receiver, object): the pacer's tick index is the clock
	// divided by Tick, which the tap can read as well as the session.
	ticks map[flowKey]tickCount
}

type flowKey struct {
	from, to transport.Addr
	obj      packet.ObjectID
}

type tickCount struct {
	tick int64
	n    int
}

func (r *runner) violatef(format string, args ...any) {
	r.mu.Lock()
	if len(r.violations) < 64 { // enough to diagnose, bounded against floods
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

// Run executes the scenario and returns its report. The returned error
// covers setup problems only; protocol misbehavior lands in
// Report.Violations so the caller sees the full picture.
func (sc Scenario) Run(ctx context.Context) (*Report, error) {
	if err := sc.setDefaults(); err != nil {
		return nil, err
	}
	wallStart := time.Now()

	r := &runner{
		sc:       sc,
		contents: make(map[packet.ObjectID][]byte),
		geom:     make(map[packet.ObjectID]objGeom),
		nodes:    make(map[string]*simNode),
		allDone:  make(chan struct{}),
	}
	net, err := New(Config{
		Seed:        sc.Seed,
		DefaultLink: sc.Link,
		QueueDepth:  sc.QueueDepth,
		Grid:        sc.Grid,
		Trace:       sc.Trace,
		Inspect:     r.inspect,
	})
	if err != nil {
		return nil, err
	}
	r.net = net
	defer net.Close()

	// Everything random about the setup — content bytes, fetcher wiring,
	// churn victims — comes from this one RNG, consumed in a fixed order
	// before the fabric starts, so the resolved run is a pure function of
	// (Seed, Scenario).
	setupRng := rand.New(rand.NewSource(xrand.DeriveSeed(sc.Seed, 0x5ce)))

	// Content and geometry.
	for _, spec := range sc.Objects {
		content := make([]byte, spec.Size)
		setupRng.Read(content)
		id := packet.NewObjectID(content)
		r.contents[id] = content
		r.ids = append(r.ids, id)
	}

	ctx, cancelAll := context.WithCancel(ctx)
	defer cancelAll()

	// Population. Names double as fabric addresses.
	srcNames := make([]string, sc.Sources)
	for i := range srcNames {
		srcNames[i] = fmt.Sprintf("s%d", i)
	}
	relayNames := make([]string, sc.Relays)
	for i := range relayNames {
		relayNames[i] = fmt.Sprintf("r%d", i)
	}
	cacheNames := make([]string, sc.Caches)
	for i := range cacheNames {
		cacheNames[i] = fmt.Sprintf("c%d", i)
	}
	fetcherNames := make([]string, sc.Fetchers)
	for i := range fetcherNames {
		fetcherNames[i] = fmt.Sprintf("f%d", i)
	}
	pollNames := make([]string, sc.Polluters)
	for i := range pollNames {
		pollNames[i] = fmt.Sprintf("p%d", i)
	}
	liarNames := make([]string, sc.Liars)
	for i := range liarNames {
		liarNames[i] = fmt.Sprintf("l%d", i)
	}
	r.srcSet = make(map[transport.Addr]bool, sc.Sources)
	for _, name := range srcNames {
		r.srcSet[transport.Addr(name)] = true
	}
	r.pollSet = make(map[transport.Addr]bool, sc.Polluters)
	for _, name := range pollNames {
		r.pollSet[transport.Addr(name)] = true
	}
	if sc.Bootstrap > 0 {
		bootNames := append(append([]string(nil), srcNames...), relayNames...)[:sc.Bootstrap]
		for _, name := range bootNames {
			r.bootAddrs = append(r.bootAddrs, transport.Addr(name))
		}
	}

	// Wiring resolution (consumes setupRng in fixed order).
	fetcherTargets := func() []string {
		switch {
		case sc.Caches > 0:
			// Cache tier: fetchers never touch the origin directly — the
			// whole point is that the caches absorb the flash crowd.
			return cacheNames
		case sc.Wiring == WiringLine:
			if sc.Relays > 0 {
				return []string{relayNames[sc.Relays-1]}
			}
			return srcNames
		case sc.Wiring == WiringMesh:
			return fetcherNames
		default:
			return relayNames
		}
	}
	pickPeers := func(exclude string) []string {
		if sc.Bootstrap > 0 {
			// Membership mode: nobody is statically wired — every session
			// (initial population and churn joiners alike) finds the swarm
			// through the bootstrap nodes and its PEX view.
			return nil
		}
		pool := make([]string, 0, len(fetcherTargets()))
		for _, t := range fetcherTargets() {
			if t != exclude {
				pool = append(pool, t)
			}
		}
		k := min(sc.PeersPerFetcher, len(pool))
		idx := xrand.SampleDistinct(setupRng, len(pool), k)
		out := make([]string, k)
		for i, j := range idx {
			out[i] = pool[j]
		}
		if sc.Wiring == WiringMesh {
			// Mesh peers churn away for good (a rejoiner is a new address),
			// and the protocol has no peer discovery: a fetcher whose whole
			// peer set dies would be stranded by wiring, not by any protocol
			// property. Keep the origin in every mesh peer set — the
			// "tracker/origin stays reachable" assumption — so fetches are
			// always completable and a failure means a real protocol bug.
			out = append(out, srcNames...)
		}
		// Every fetcher subscribes at every polluter on top of its honest
		// picks: the adversarial scenarios must expose each fetch to the
		// forged stream, or conviction would hinge on sampling luck.
		out = append(out, pollNames...)
		sort.Strings(out)
		return out
	}
	fetcherPeers := make(map[string][]string, sc.Fetchers)
	for _, name := range fetcherNames {
		fetcherPeers[name] = pickPeers(name)
	}
	for _, name := range fetcherNames {
		r.applyUplinkFor(name, fetcherPeers[name])
	}

	// Timeline resolution: explicit events plus generated churn. A
	// user-declared EvJoin names a node the setup loops never wired;
	// resolve its peers here (deterministically, from the same RNG) so
	// the joiner is fetchable — the protocol has no peer discovery, and
	// an unwired joiner could never complete.
	timeline := append([]Event(nil), sc.Timeline...)
	for _, ev := range timeline {
		if ev.Kind == EvJoin && fetcherPeers[ev.Node] == nil {
			fetcherPeers[ev.Node] = pickPeers(ev.Node)
		}
	}
	if sc.Churn.Fraction > 0 {
		crashes := int(sc.Churn.Fraction*float64(sc.Fetchers) + 0.5)
		victims := xrand.SampleDistinct(setupRng, sc.Fetchers, min(crashes, sc.Fetchers))
		at := sc.Churn.Start
		for gen, vi := range victims {
			victim := fetcherNames[vi]
			timeline = append(timeline, Event{At: at, Kind: EvCrash, Node: victim})
			if !sc.Churn.NoReplace {
				name := fmt.Sprintf("%s.%d", victim, gen+1)
				fetcherPeers[name] = pickPeers(name)
				timeline = append(timeline, Event{At: at, Kind: EvJoin, Node: name})
			}
			at += sc.Churn.Interval
		}
	}
	sort.SliceStable(timeline, func(i, j int) bool { return timeline[i].At < timeline[j].At })
	timelineHash := hashTimeline(timeline, fetcherPeers)

	// Sessions. Nothing moves until net.Start(): virtual time is frozen,
	// so the whole population comes up at t=0 regardless of how long wall
	// setup takes.
	per := func(i int) int64 { return xrand.DeriveSeed(sc.Seed, 0x900d+i) }
	nodeIdx := 0
	startNode := func(name string, relay bool, cacheBudget int64, peers []string) (*simNode, error) {
		port, err := net.Attach(transport.Addr(name))
		if err != nil {
			return nil, err
		}
		cfg := session.Config{
			Transport:      port,
			Tick:           sc.Tick,
			Burst:          max(sc.Burst, 0),
			Aggressiveness: sc.Aggressiveness,
			IdleTimeout:    sc.IdleTimeout,
			Relay:          relay,
			CacheBudget:    cacheBudget,
			DecodeWorkers:  1,
			IngestQueue:    256,
			Seed:           per(nodeIdx),
			HaveSeed:       true,
			Clock:          net.Clock(),
			Adaptive:       sc.Adaptive,
		}
		if sc.Bootstrap > 0 {
			cfg.Bootstrap = r.bootAddrs
			cfg.ViewSize = sc.ViewSize
			cfg.ShufflePeriod = sc.ShufflePeriod
		}
		nodeIdx++
		sess, err := session.New(cfg)
		if err != nil {
			port.Close()
			return nil, err
		}
		for _, p := range peers {
			sess.AddPeer(transport.Addr(p))
		}
		nctx, cancel := context.WithCancel(ctx)
		nd := &simNode{
			name:    name,
			sess:    sess,
			port:    port,
			cancel:  cancel,
			removeQ: net.AddQuiescer(func() bool { return sess.Busy() == 0 }),
			runDone: make(chan struct{}),
		}
		go func() {
			defer close(nd.runDone)
			err := sess.Run(nctx)
			if err != nil && ctx.Err() == nil && !nd.isCrashed() {
				r.violatef("node %s: session run error: %v", name, err)
			}
		}()
		r.mu.Lock()
		r.nodes[name] = nd
		r.mu.Unlock()
		return nd, nil
	}

	// Sources: serve the objects round-robin and learn the resulting
	// geometry (the ground truth the header-bound invariant checks
	// against).
	for i, name := range srcNames {
		var peers []string
		switch {
		case sc.Bootstrap > 0:
			// Membership mode: sources discover relays and fellow swarm
			// members through their own views like everyone else.
		case sc.Caches > 0:
			// The origin pushes into the cache chain head only; each cache
			// feeds the next, so the object crosses the origin's uplink
			// once regardless of the crowd size.
			peers = cacheNames[:1]
		case sc.Wiring == WiringLine:
			if sc.Relays > 0 {
				peers = relayNames[:1]
			}
		case sc.Wiring == WiringMesh:
			for j := 0; j < min(3, sc.Fetchers); j++ {
				peers = append(peers, fetcherNames[j])
			}
		default:
			peers = relayNames
		}
		nd, err := startNode(name, false, 0, peers)
		if err != nil {
			return nil, err
		}
		for oi, id := range r.ids {
			if oi%sc.Sources != i {
				continue
			}
			spec := sc.Objects[oi]
			gens := max(spec.Generations, 1)
			if _, err := nd.sess.Serve(r.contents[id], spec.K, gens); err != nil {
				return nil, fmt.Errorf("simnet: serve object %d: %w", oi, err)
			}
			st, ok := nd.sess.Object(id)
			if !ok {
				return nil, fmt.Errorf("simnet: served object %d not found", oi)
			}
			wire := 1 + packet.ObjectWireSize(st.KPer, st.M)
			if st.Generations > 1 {
				wire = 1 + packet.GenWireSize(st.KPer, st.M)
			}
			r.geom[id] = objGeom{kPer: st.KPer, gens: st.Generations, m: st.M, wireSize: wire}
		}
	}

	// Polluter actors: attached once the sources have resolved every
	// object's geometry, which the forgeries must reproduce exactly.
	var polluters []*polluter
	for _, name := range pollNames {
		pl, err := startPolluter(ctx, net, name, r.geom, r.bootAddrs)
		if err != nil {
			return nil, err
		}
		polluters = append(polluters, pl)
	}

	// Liar actors: lying receivers that subscribe at every serving node
	// (sources and relays — the star's push side) and flood forged
	// under-claiming receipt reports at them.
	var liars []*liar
	if sc.Liars > 0 {
		servers := make([]transport.Addr, 0, sc.Sources+sc.Relays)
		for _, name := range srcNames {
			servers = append(servers, transport.Addr(name))
		}
		for _, name := range relayNames {
			servers = append(servers, transport.Addr(name))
		}
		for i, name := range liarNames {
			claims, every := [][2]uint32{{0, 0}}, liarEvery // "I received nothing", forever
			if i%2 == 1 {
				claims, every = liarClaims, liarFlood
			}
			ln, err := startLiar(ctx, net, name, claims, every, r.ids, servers)
			if err != nil {
				return nil, err
			}
			liars = append(liars, ln)
		}
	}

	// Relay chain / star.
	for i, name := range relayNames {
		var peers []string
		if sc.Wiring == WiringLine && i+1 < sc.Relays {
			peers = []string{relayNames[i+1]}
		}
		if _, err := startNode(name, true, 0, peers); err != nil {
			return nil, err
		}
	}

	// Cache tier: a chain c0 → c1 → …, each node a budgeted partial
	// cache that learns objects from its upstream's pushes and serves
	// them onward by recoding from cached rows.
	for i, name := range cacheNames {
		var peers []string
		if i+1 < sc.Caches {
			peers = []string{cacheNames[i+1]}
		}
		if _, err := startNode(name, false, sc.CacheBudget, peers); err != nil {
			return nil, err
		}
	}

	// Fetchers (mesh fetchers double as relays).
	for _, name := range fetcherNames {
		nd, err := startNode(name, sc.Wiring == WiringMesh, 0, fetcherPeers[name])
		if err != nil {
			return nil, err
		}
		r.launchFetches(ctx, nd)
	}

	// Timeline scheduling: events run on the scheduler goroutine at exact
	// virtual offsets, in resolved order.
	for _, ev := range timeline {
		ev := ev
		if ev.Kind == EvJoin {
			r.mu.Lock()
			r.pendingJoin++
			r.mu.Unlock()
		}
		net.After(ev.At, func() { r.applyEvent(ctx, ev, startNode, fetcherPeers) })
	}
	// Virtual deadline: whatever is unfinished then has failed.
	net.After(sc.Duration, cancelAll)

	// Membership sampling: at virtual intervals, enforce the bounded-view
	// invariant on every live session and record the first instant the
	// whole live population's views reached the convergence target.
	if sc.Bootstrap > 0 {
		const viewSampleEvery = 250 * time.Millisecond
		var sample func()
		sample = func() {
			if ctx.Err() != nil {
				return
			}
			r.sampleViews()
			net.After(viewSampleEvery, sample)
		}
		net.After(viewSampleEvery, sample)
	}

	net.Start()

	// Wait for every fetch (including joiners') to resolve; the wall
	// budget is the no-deadlock invariant.
	watchdog := time.NewTimer(sc.WallBudget)
	defer watchdog.Stop()
	select {
	case <-r.allDone:
	case <-watchdog.C:
		r.violatef("wall budget %v exceeded with fetches outstanding (deadlock?)", sc.WallBudget)
		cancelAll()
		select {
		case <-r.allDone:
		case <-time.After(10 * time.Second):
			r.violatef("fetches still stuck after cancellation")
		}
	case <-ctx.Done():
		<-r.allDone
	}
	virtualElapsed := net.Elapsed()

	// Teardown: stop every session, then the fabric.
	r.mu.Lock()
	nodes := make([]*simNode, 0, len(r.nodes))
	for _, nd := range r.nodes {
		nodes = append(nodes, nd)
	}
	r.mu.Unlock()

	// Membership invariants, checked against the survivors before their
	// sessions stop: views within bound, convicted peers absent from every
	// view and neighbor set (the never-re-admit guarantee, end-state), and
	// the convergence deadline met.
	var viewMin, viewMax, viewSum, viewBound, viewed int
	if sc.Bootstrap > 0 {
		r.sampleViews() // final convergence sample when every fetch resolved early
		for _, nd := range nodes {
			ms := nd.sess.MemberStats()
			if !ms.Enabled {
				continue
			}
			viewBound = ms.ViewCap
			if ms.ViewLen > ms.ViewCap {
				r.violatef("node %s: view %d over bound %d at teardown", nd.name, ms.ViewLen, ms.ViewCap)
			}
			for _, b := range nd.sess.BannedPeers() {
				if slices.Contains(ms.View, b) {
					r.violatef("node %s: convicted peer %s present in its view at teardown", nd.name, b)
				}
				if slices.Contains(ms.Neighbors, b) || slices.Contains(ms.PushNeighbors, b) {
					r.violatef("node %s: convicted peer %s present in its neighbor sets at teardown", nd.name, b)
				}
			}
			if viewed == 0 || ms.ViewLen < viewMin {
				viewMin = ms.ViewLen
			}
			viewMax = max(viewMax, ms.ViewLen)
			viewSum += ms.ViewLen
			viewed++
		}
		r.mu.Lock()
		convergedAt := r.viewConvergedAt
		r.mu.Unlock()
		if sc.ViewConvergeBy > 0 && (convergedAt == 0 || convergedAt > sc.ViewConvergeBy) {
			r.violatef("views not converged by %v (first full convergence sample: %v)", sc.ViewConvergeBy, convergedAt)
		}
	}

	cancelAll()
	var cacheTiers map[string]cache.Stats
	for _, nd := range nodes {
		if cs, ok := nd.sess.CacheStats(); ok {
			if cacheTiers == nil {
				cacheTiers = make(map[string]cache.Stats)
			}
			cacheTiers[nd.name] = cs
		}
		nd.removeQ()
		nd.sess.Close()
		nd.cancel()
	}
	for _, nd := range nodes {
		<-nd.runDone
	}
	for _, pl := range polluters {
		pl.close()
	}
	for _, ln := range liars {
		ln.close()
	}

	rep := &Report{
		Scenario:       sc.Name,
		Seed:           sc.Seed,
		Nodes:          sc.Sources + sc.Relays + sc.Caches + sc.Fetchers + sc.Polluters + sc.Liars,
		CacheTiers:     cacheTiers,
		VirtualElapsed: virtualElapsed,
		WallElapsed:    time.Since(wallStart),
		TimelineHash:   timelineHash,
		Stalls:         net.Stats().Stalls,
	}
	r.mu.Lock()
	rep.Fetches = append(rep.Fetches, r.results...)
	rep.Violations = append(rep.Violations, r.violations...)
	rep.MaxHeaderBytes = r.maxHeader
	rep.OriginDataFrames = r.originData
	rep.DataFrames = r.dataFrames
	rep.ForgedDataFrames = r.forgedData
	if sc.Bootstrap > 0 {
		rep.ViewBound = viewBound
		rep.ViewMin, rep.ViewMax = viewMin, viewMax
		if viewed > 0 {
			rep.ViewMean = float64(viewSum) / float64(viewed)
		}
		rep.ViewConvergedAt = r.viewConvergedAt
	}
	r.mu.Unlock()
	sort.Slice(rep.Fetches, func(i, j int) bool {
		if rep.Fetches[i].Node != rep.Fetches[j].Node {
			return rep.Fetches[i].Node < rep.Fetches[j].Node
		}
		return rep.Fetches[i].Object < rep.Fetches[j].Object
	})
	var sum float64
	for _, f := range rep.Fetches {
		switch {
		case f.Completed:
			rep.FetchesCompleted++
			sum += f.Overhead
		case f.Crashed:
			rep.FetchesCrashed++
		default:
			rep.FetchesFailed++
		}
	}
	if rep.FetchesCompleted > 0 {
		rep.MeanOverhead = sum / float64(rep.FetchesCompleted)
	}
	rep.Net = net.Stats()
	if sc.Trace {
		rep.TraceHash = net.TraceHash()
	}
	return rep, nil
}

// launchFetches starts one fetch per object on nd, each with a
// monotonicity watcher. The whole batch is counted outstanding before
// any fetch goroutine spawns: a fetch resolving instantly (cancelled
// context near the deadline) must not zero the count and close allDone
// while siblings of the same batch are still unlaunched. Callers hold no
// runner locks.
func (r *runner) launchFetches(ctx context.Context, nd *simNode) {
	r.mu.Lock()
	r.outstanding += len(r.ids)
	r.mu.Unlock()
	for _, id := range r.ids {
		go r.fetchOne(ctx, nd, id)
	}
}

func (r *runner) fetchOne(ctx context.Context, nd *simNode, id packet.ObjectID) {
	defer r.resolveOne()
	mw := &monoWatch{r: r, node: nd.name, obj: id.String()}
	cancelW := nd.sess.Watch(id, mw.observe)
	defer cancelW()
	data, stats, err := nd.sess.Fetch(ctx, id)
	res := FetchResult{Node: nd.name, Object: id.String(), Polluted: stats.Polluted}
	if err != nil {
		res.Crashed = nd.isCrashed()
		res.Err = err.Error()
		if !res.Crashed && ctx.Err() == nil {
			r.violatef("node %s object %s: fetch error: %v", nd.name, id, err)
		}
	} else {
		res.Completed = true
		res.Bytes = len(data)
		res.Overhead = stats.Overhead()
		res.CompletedAt = r.net.Elapsed()
		if len(r.pollSet) > 0 {
			for _, b := range nd.sess.BannedPeers() {
				res.Banned = append(res.Banned, string(b))
			}
		}
		if !bytes.Equal(data, r.contents[id]) {
			r.violatef("node %s object %s: fetched bytes differ from served content", nd.name, id)
		}
		if r.sc.MaxOverhead > 0 && res.Overhead > r.sc.MaxOverhead {
			r.violatef("node %s object %s: overhead %.3f over bound %.3f",
				nd.name, id, res.Overhead, r.sc.MaxOverhead)
		}
	}
	r.mu.Lock()
	r.results = append(r.results, res)
	r.mu.Unlock()
}

func (r *runner) resolveOne() {
	r.mu.Lock()
	r.outstanding--
	if r.outstanding == 0 && r.pendingJoin == 0 {
		select {
		case <-r.allDone:
		default:
			close(r.allDone)
		}
	}
	r.mu.Unlock()
}

// applyEvent executes one timeline event on the scheduler goroutine.
func (r *runner) applyEvent(ctx context.Context, ev Event,
	startNode func(string, bool, int64, []string) (*simNode, error), peers map[string][]string) {
	switch ev.Kind {
	case EvCrash:
		r.mu.Lock()
		nd := r.nodes[ev.Node]
		delete(r.nodes, ev.Node)
		r.mu.Unlock()
		if nd == nil {
			return
		}
		nd.setCrashed()
		nd.removeQ()
		nd.sess.Close() // also closes the port: the node is gone mid-everything
		nd.cancel()
	case EvJoin:
		r.mu.Lock()
		r.pendingJoin--
		r.mu.Unlock()
		if ctx.Err() != nil {
			r.resolveNoJoin()
			return
		}
		r.applyUplinkFor(ev.Node, peers[ev.Node])
		nd, err := startNode(ev.Node, r.sc.Wiring == WiringMesh, 0, peers[ev.Node])
		if err != nil {
			r.violatef("join %s: %v", ev.Node, err)
			r.resolveNoJoin()
			return
		}
		r.launchFetches(ctx, nd)
	case EvPartition:
		groups := make([][]transport.Addr, len(ev.Groups))
		for i, g := range ev.Groups {
			for _, name := range g {
				groups[i] = append(groups[i], transport.Addr(name))
			}
		}
		r.net.Partition(groups...)
	case EvHeal:
		r.net.Heal()
	case EvSetLink:
		if err := r.net.SetLink(transport.Addr(ev.From), transport.Addr(ev.To), ev.Link); err != nil {
			r.violatef("setlink %s→%s: %v", ev.From, ev.To, err)
		}
	}
}

// applyUplinkFor reshapes one fetcher's uplink directions per
// Scenario.Uplink, leaving its downlinks on the default shape.
func (r *runner) applyUplinkFor(name string, peers []string) {
	if r.sc.Uplink == nil {
		return
	}
	for _, peer := range peers {
		if err := r.net.SetLink(transport.Addr(name), transport.Addr(peer), *r.sc.Uplink); err != nil {
			r.violatef("uplink override %s→%s: %v", name, peer, err)
		}
	}
}

// viewTarget is the convergence fill target for one session's view: the
// view bound when the swarm can fill it, every other live member when it
// cannot, and never less than half the bound in a large swarm — full
// saturation is not required (shuffles keep churning entries), steady
// useful occupancy is.
func viewTarget(bound, live int) int {
	return min(bound, live-1, max(2, bound/2))
}

// sampleViews enforces the bounded-view invariant across the live
// population and records the first virtual instant every live member
// session's view had reached the convergence target. Runs on the
// scheduler goroutine (timeline sample) and once more at teardown.
func (r *runner) sampleViews() {
	r.mu.Lock()
	nodes := make([]*simNode, 0, len(r.nodes))
	for _, nd := range r.nodes {
		nodes = append(nodes, nd)
	}
	already := r.viewConvergedAt
	r.mu.Unlock()
	stats := make([]session.MemberStats, 0, len(nodes))
	for _, nd := range nodes {
		if nd.isCrashed() {
			continue
		}
		ms := nd.sess.MemberStats()
		if !ms.Enabled {
			continue
		}
		if ms.ViewLen > ms.ViewCap {
			r.violatef("node %s: view %d over bound %d", nd.name, ms.ViewLen, ms.ViewCap)
		}
		stats = append(stats, ms)
	}
	if already != 0 || len(stats) == 0 {
		return
	}
	for _, ms := range stats {
		if ms.ViewLen < viewTarget(ms.ViewCap, len(stats)) {
			return
		}
	}
	r.mu.Lock()
	if r.viewConvergedAt == 0 {
		r.viewConvergedAt = r.net.Elapsed()
	}
	r.mu.Unlock()
}

// resolveNoJoin re-checks run completion after a join was consumed
// without launching fetches.
func (r *runner) resolveNoJoin() {
	r.mu.Lock()
	if r.outstanding == 0 && r.pendingJoin == 0 {
		select {
		case <-r.allDone:
		default:
			close(r.allDone)
		}
	}
	r.mu.Unlock()
}

func (nd *simNode) setCrashed() {
	nd.mu.Lock()
	nd.crashed = true
	nd.mu.Unlock()
}

func (nd *simNode) isCrashed() bool {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return nd.crashed
}

// monoWatch asserts the Watch contract along a fetch: snapshots arrive in
// monotone order — decoded counts and completed generations never
// regress, Complete never un-completes, the geometry never mutates.
type monoWatch struct {
	r    *runner
	node string
	obj  string

	mu   sync.Mutex
	last session.ObjectStats
	seen bool
}

func (w *monoWatch) observe(o session.ObjectStats) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.seen {
		l := w.last
		// Quarantine is the one sanctioned regression: a poisoned
		// generation's decoded rows are discarded and re-fetched, so
		// decode progress may step back exactly when Polluted grows (the
		// session's Watch contract). Pollution counters themselves never
		// regress, and completion stays final — it is declared only after
		// the content identity proved out.
		quarantined := o.Polluted > l.Polluted
		switch {
		case o.Polluted < l.Polluted:
			w.r.violatef("node %s object %s: Watch polluted regressed %d → %d", w.node, w.obj, l.Polluted, o.Polluted)
		case o.Decoded < l.Decoded && !quarantined:
			w.r.violatef("node %s object %s: Watch decoded regressed %d → %d without a quarantine", w.node, w.obj, l.Decoded, o.Decoded)
		case o.GensComplete < l.GensComplete && !quarantined:
			w.r.violatef("node %s object %s: Watch generations-complete regressed %d → %d without a quarantine", w.node, w.obj, l.GensComplete, o.GensComplete)
		case l.Complete && !o.Complete:
			w.r.violatef("node %s object %s: Watch un-completed", w.node, w.obj)
		case l.K != 0 && o.K != 0 && o.K != l.K:
			w.r.violatef("node %s object %s: Watch K mutated %d → %d", w.node, w.obj, l.K, o.K)
		case l.Size >= 0 && o.Size >= 0 && o.Size != l.Size:
			w.r.violatef("node %s object %s: Watch size mutated %d → %d", w.node, w.obj, l.Size, o.Size)
		}
	}
	w.last = o
	w.seen = true
}

// inspect is the fabric frame tap implementing the header-size invariant:
// every DATA frame must parse, match its object's published geometry, and
// be exactly the O(k/G) wire size the generation layer promises.
func (r *runner) inspect(from, to transport.Addr, frame []byte) {
	if len(frame) == 0 || frame[0] != dataTag {
		return
	}
	r.mu.Lock()
	r.dataFrames++
	if r.srcSet[from] {
		r.originData++
	}
	if r.pollSet[from] {
		r.forgedData++
	}
	r.mu.Unlock()
	wv, err := packet.ParseWire(frame[1:])
	if err != nil {
		r.violatef("%s→%s: unparseable DATA frame (%d bytes): %v", from, to, len(frame), err)
		return
	}
	g, ok := r.geom[wv.Object]
	if !ok {
		r.violatef("%s→%s: DATA for unknown object %v", from, to, wv.Object)
		return
	}
	gens := int(wv.Generations)
	if gens == 0 {
		gens = 1
	}
	switch {
	case gens != g.gens:
		r.violatef("%s→%s: DATA generation count %d, want %d", from, to, gens, g.gens)
	case wv.K != g.kPer:
		r.violatef("%s→%s: DATA code length %d, want k/G = %d", from, to, wv.K, g.kPer)
	case wv.M != g.m:
		r.violatef("%s→%s: DATA payload size %d, want %d", from, to, wv.M, g.m)
	case len(frame) != g.wireSize:
		r.violatef("%s→%s: DATA frame %d bytes, want exactly %d", from, to, len(frame), g.wireSize)
	default:
		hdr := len(frame) - 1 - g.m
		r.mu.Lock()
		if hdr > r.maxHeader {
			r.maxHeader = hdr
		}
		r.mu.Unlock()
	}
	if r.sc.Burst == BurstPaced && !r.pollSet[from] {
		r.mu.Lock()
		if r.ticks == nil {
			r.ticks = make(map[flowKey]tickCount)
		}
		key := flowKey{from, to, wv.Object}
		c := r.ticks[key]
		if tick := r.net.Now().UnixNano() / int64(r.sc.Tick); tick != c.tick {
			c = tickCount{tick: tick}
		}
		c.n++
		r.ticks[key] = c
		over := c.n == adapt.TickCeiling+1 // report each breached tick once
		r.mu.Unlock()
		if over {
			r.violatef("%s→%s: more than %d DATA frames of %v in one tick", from, to, adapt.TickCeiling, wv.Object)
		}
	}
}

// hashTimeline digests the resolved schedule: event order, parameters and
// the wiring choices behind join specs.
func hashTimeline(timeline []Event, peers map[string][]string) string {
	h := sha256.New()
	for _, ev := range timeline {
		fmt.Fprintf(h, "%d|%s|%s|%v|%s|%s|%+v\n", ev.At, ev.Kind, ev.Node, ev.Groups, ev.From, ev.To, ev.Link)
	}
	names := make([]string, 0, len(peers))
	for n := range peers {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(h, "%s→%s\n", n, strings.Join(peers[n], ","))
	}
	return hex.EncodeToString(h.Sum(nil))
}
