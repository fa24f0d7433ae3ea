// Package swarm is the public face of LTNC dissemination: a Session
// multiplexes many content objects over one datagram transport, serves
// objects it holds, recodes objects it relays — the paper's contribution,
// fresh LT-shaped packets generated from a partial, encoded view — and
// fetches objects from peers, refusing redundant payloads on the code
// vector in the header (Section III-C-2's binary feedback).
//
// A session runs over any ltnc/transport.Transport: real UDP sockets via
// transport.ListenUDP (or Config.Listen), or the deterministic in-memory
// transport.Switch for tests and simulations. The same session code backs
// both, as well as the ltnc-serve and ltnc-fetch commands.
//
// Minimal fetch client:
//
//	s, _ := swarm.New(swarm.Config{Listen: "0.0.0.0:0", Peers: []swarm.Addr{"relay:4980"}})
//	ctx, cancel := context.WithCancel(context.Background())
//	go s.Run(ctx)
//	defer func() { cancel(); s.Close() }()
//	content, report, err := s.Fetch(ctx, id)
//
// Minimal source:
//
//	s, _ := swarm.New(swarm.Config{Listen: ":4980"})
//	id, _ := s.Serve(content, 1024)
//	s.Run(ctx) // pushes to subscribers and configured peers until cancelled
//
// This package is a facade over internal/session, which in turn drives
// the internal decode engine (arena-backed belief propagation, sharded
// decode workers, batched ingestion); see DESIGN.md §9 for the layering.
package swarm

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"ltnc"
	"ltnc/internal/cache"
	"ltnc/internal/packet"
	"ltnc/internal/session"
	"ltnc/transport"
)

// Addr is a peer address on the session's transport (re-exported from
// ltnc/transport for convenience).
type Addr = transport.Addr

// ObjectID is the 16-byte object identifier carried in every v2/v3 packet
// header. It is self-certifying: it hashes the object's size, its geometry
// (k, G and the native size) and the root of its integrity manifest, so
// serving the same bytes with the same k and G anywhere yields the same
// ID, and a receiver checks the metadata, the manifest and through it
// every native against the ID alone.
type ObjectID = packet.ObjectID

// contentIDNative is the native size ContentID assumes: 1 KiB.
const contentIDNative = 1024

// ContentID derives the ObjectID that Serve(content, k) returns on a
// session with the default Generations, for k = ⌈len(content)/1024⌉ (1 KiB
// natives): 1 MiB of content is k = 1,024 in one generation, 16 MiB is
// k = 16,384 in 16. Another k, or a Generations setting that changes G,
// gives another ID. Empty content, which Serve refuses, has the zero ID.
func ContentID(content []byte) ObjectID {
	k := (len(content) + contentIDNative - 1) / contentIDNative
	id, _ := session.ObjectID(content, k, autoGenerations(k))
	return id
}

// ParseObjectID parses the 32-hex-digit form printed by ObjectID.String
// (and by ltnc-serve).
func ParseObjectID(s string) (ObjectID, error) { return packet.ParseObjectID(s) }

// ObjectStats is a point-in-time view of one object's session state; its
// Overhead method reports received packets relative to k — the reception
// overhead the paper calls 1 + ε. For generation-coded objects the
// Generations/KPer fields give the geometry and GensComplete/GenDecoded
// the per-generation decode progress. On the push side Sent splits three
// ways: Systematic, the first-pass rows (each native once, plainly);
// Repeated, natives sent again because a peer's receipt showed them
// missing there; and the rest, coded rows. Of the rows the links lost,
// LostProven were written off at the receipt after the loss (a later row
// arrived, and the receipt's departure count says so) and LostAged only
// when they aged out of the window.
type ObjectStats = session.ObjectStats

// CacheStats is a point-in-time view of a cache-mode session's partial
// cache: byte occupancy against the budget, held objects/generations/
// rows, and the admission/eviction/serving counters.
type CacheStats = cache.Stats

// Errors returned by Session methods.
var (
	// ErrClosed is returned once the session (or its transport) is closed.
	ErrClosed = transport.ErrClosed
	// ErrNoPeers is returned by Fetch when it has nowhere to send the
	// request: no explicit source and no configured peers.
	ErrNoPeers = session.ErrNoPeers
	// ErrPolluted is wrapped by Fetch when pollution defense has convicted
	// every candidate peer of serving forged packets: there is no one left
	// to ask, so the fetch fails fast instead of spinning until ctx dies.
	// Partial damage short of that travels in FetchReport.Stats (Polluted,
	// GensVerified, HaveManifest); BannedPeers lists the convicts.
	ErrPolluted = session.ErrPolluted
)

// Config parameterizes a Session. The zero value of every field selects a
// sensible default; only the transport — either Transport or Listen —
// must be provided.
type Config struct {
	// Transport carries the session's frames: a Switch port, a
	// UDPTransport, or any custom Transport. The session takes ownership
	// and closes it on Close.
	Transport transport.Transport
	// Listen, when Transport is nil, binds a fresh UDP transport to this
	// address ("127.0.0.1:0" picks a free port; query LocalAddr).
	Listen string
	// Peers are standing push/fetch targets, as if AddPeer were called
	// for each: every locally known object is pushed toward them, and
	// Fetch without an explicit source asks them.
	Peers []Addr
	// Bootstrap enables the epidemic membership plane: the session
	// introduces itself to these addresses, learns the rest of the swarm
	// through periodic PEX view shuffles, and steers pushes and fetch
	// requests at gossip-discovered neighbors in addition to Peers. A
	// Fetch with no explicit source then works against the live view, so
	// a node needs only one reachable bootstrap address to join a swarm
	// of any size; per-peer membership state stays bounded regardless.
	// See Session.Neighbors. Empty (the default) disables membership.
	Bootstrap []Addr
	// Relay makes the session create decode state for objects it first
	// learns about from the network and re-push recoded packets of them —
	// the paper's recoding intermediary. A relay starts recoding an object
	// once it holds K·0.01 + 1 packets, the paper's aggressiveness gate.
	// Fetch-only clients leave it false and decode only objects they asked
	// for.
	Relay bool
	// Tick is the push timer's period (default 2ms): the floor under the
	// receipt clock. Packets leave as the peers' receipt reports arrive: a
	// window of packets in flight toward each peer starts at a few, doubles
	// while the reports show the packets arriving, halves on a loss step or
	// when the reports stop, and stays between 1 and 64; packets leave
	// whenever a report frees window. The timer only guarantees a peer that
	// never reports one packet a Tick; it runs while some peer is owed
	// packets and parks otherwise. A packet no report accounts for counts as
	// lost once its link's measured round trip, plus a margin of at least a
	// quarter Tick, has passed: Tick caps that wait at two Ticks, but is not
	// its unit. At most 1,024 packets leave toward one peer per Tick, far
	// above what an honest peer's reports free: the bound on what forged ones
	// can take.
	Tick time.Duration
	// Burst once fixed how many packets were pushed per object, target and
	// Tick, on the timer alone. The peers' receipt reports now clock every
	// push (see Tick), so there is nothing left for it to fix.
	//
	// Deprecated: has no effect.
	Burst int
	// IdleTimeout evicts object state untouched for this long (default
	// 60s). Locally served objects and objects with blocked fetches stay.
	IdleTimeout time.Duration
	// MaxObjects bounds how many objects a relay will learn from the
	// network (default 1024); MaxK bounds the code length it accepts from
	// network headers (default 65536).
	MaxObjects int
	MaxK       int
	// Generations is the coding-generation count G that Serve splits
	// objects into — the paper's generations optimization, and what
	// makes large objects practical: each generation is decoded and
	// recoded independently, so code vectors, per-packet headers and
	// decode state are all O(k/G) instead of O(k), and a receiver's
	// completed generations abort their redundancy streams while the
	// rest keep filling. 0 (the default) picks G automatically from the
	// object's code length (G = ceil(k/1024), so headers stay bounded no
	// matter how big the object); 1 forces single-generation coding;
	// any other value is used as given. ltnc.WithGenerations in Node
	// overrides it. Serve rounds k up to a multiple of G.
	Generations int
	// Seed drives the session's randomness; per-object decode states
	// derive independent sub-streams from it. Zero draws a fresh entropy
	// seed (ltnc.EntropySeed), so independently deployed nodes never
	// emit identical coded streams; set Seed (or ltnc.WithSeed in Node)
	// for reproducible tests and simulations.
	Seed int64
	// CacheBudget, when positive, turns the session into a partial edge
	// cache: objects first heard from the network are retained as
	// innovative coded rows under this global byte budget — admitted only
	// when they raise a generation's rank, evicted whole generations at a
	// time by demand recency × innovation density — and served to
	// requesters as stored rows, without ever decoding. A subscription is
	// answered as at any other holder, with the manifest; a cache advertises
	// nothing else. Mutually exclusive with Relay (a cache deliberately
	// holds no decode state). See Session.CacheStats.
	CacheBudget int64
	// Node carries the root package's functional options to every
	// per-object decode state the session creates — the same vocabulary
	// NewNode and NewSource accept. ltnc.WithSeed overrides Seed;
	// ltnc.WithRefinement(false) and ltnc.WithRedundancyDetection(false)
	// disable the corresponding algorithms (experiments only).
	Node []ltnc.Option
	// Adaptive once tuned how long a peer's redundancy aborts paused the
	// push to it. Senders now learn of redundant rows from receipts alone
	// (every session reports rows received and innovative per upstream,
	// and that is what paces the push, see Tick), so there is nothing
	// left for it to tune.
	//
	// Deprecated: has no effect.
	Adaptive bool
	// Logf, when set, receives one line per notable event (object
	// learned, complete, evicted).
	Logf func(format string, args ...any)
}

// sessionConfig lowers the public Config onto the internal session
// configuration, folding in the already-compiled Node options.
func (c Config) sessionConfig(tr transport.Transport, nc ltnc.NodeConfig) session.Config {
	seed := c.Seed
	haveSeed := nc.Seeded
	switch {
	case nc.Seeded:
		seed = nc.Seed
	case seed == 0:
		// No seed anywhere: independent sessions must not share the
		// internal default stream, or peers serving the same object
		// would push pairwise-duplicate packets.
		seed = ltnc.EntropySeed()
		haveSeed = true
	}
	return session.Config{
		Transport:              tr,
		Bootstrap:              c.Bootstrap,
		Tick:                   c.Tick,
		IdleTimeout:            c.IdleTimeout,
		Relay:                  c.Relay,
		MaxObjects:             c.MaxObjects,
		MaxK:                   c.MaxK,
		CacheBudget:            c.CacheBudget,
		Seed:                   seed,
		HaveSeed:               haveSeed,
		DisableRefinement:      nc.DisableRefinement,
		DisableRedundancyCheck: nc.DisableRedundancyDetection,
		Logf:                   c.Logf,
	}
}

// Session is one LTNC dissemination participant — source, relay, fetch
// client, or all three at once. Create with New, drive with Run, then
// Serve objects and Fetch them concurrently; every method is safe for
// concurrent use.
type Session struct {
	s *session.Session
	// generations is the configured G preference: 0 = automatic.
	generations int
}

// New builds a session from cfg. Call Run to start it; Close when done.
func New(cfg Config) (*Session, error) {
	nc := ltnc.CompileOptions(cfg.Node...)
	gens := cfg.Generations
	if nc.Generations != 0 {
		gens = nc.Generations
	}
	if gens < 0 {
		return nil, fmt.Errorf("swarm: %w: G = %d < 0", ltnc.ErrBadGeneration, gens)
	}
	tr := cfg.Transport
	if tr == nil {
		if cfg.Listen == "" {
			return nil, fmt.Errorf("swarm: config needs a Transport or a Listen address")
		}
		var err error
		if tr, err = transport.ListenUDP(cfg.Listen); err != nil {
			return nil, err
		}
	}
	s, err := session.New(cfg.sessionConfig(tr, nc))
	if err != nil {
		tr.Close() // ownership transferred with the Config, error or not
		return nil, err
	}
	for _, p := range cfg.Peers {
		s.AddPeer(p)
	}
	return &Session{s: s, generations: gens}, nil
}

// Run pumps the session until ctx ends or the session is closed: it
// receives and dispatches frames, decodes DATA bursts on the sharded
// worker pool, pushes recoded packets as the peers' receipt reports free
// window — every Tick at the least to a peer still owed packets, the
// floor (see Config.Tick) — and evicts idle state.
// It returns nil on clean shutdown — Close, cancellation, or ctx's
// deadline expiring; bounding the run with a deadline is a supported way
// to stop it.
func (s *Session) Run(ctx context.Context) error {
	err := s.s.Run(ctx)
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return nil
	}
	return err
}

// Close stops Run and closes the underlying transport. Blocked Fetches
// fail with ErrClosed.
func (s *Session) Close() error { return s.s.Close() }

// LocalAddr returns the address peers use to reach this session.
func (s *Session) LocalAddr() Addr { return s.s.LocalAddr() }

// AddPeer registers a standing push/fetch target: every locally known
// object is pushed toward it, and Fetch without an explicit source asks
// it.
func (s *Session) AddPeer(addr Addr) { s.s.AddPeer(addr) }

// Neighbors returns the gossip-selected active neighbor set the
// membership plane currently steers fetch requests at — a
// capacity-weighted draw from the bounded partial view, refreshed every
// shuffle round. It returns nil when Config.Bootstrap is empty
// (membership disabled) and may be empty before the first shuffle
// completes.
func (s *Session) Neighbors() []Addr { return s.s.Neighbors() }

// autoKPer is the per-generation code length automatic chunking aims at:
// G = ceil(k/1024) keeps every wire header's code vector at or under 128
// bytes — O(k/G), independent of how large the object grows — while each
// generation stays large enough for the Soliton distribution to behave.
const autoKPer = 1024

// pickGenerations resolves the session's G preference for an object of
// code length k.
func (s *Session) pickGenerations(k int) int {
	if s.generations > 0 {
		return s.generations
	}
	return autoGenerations(k)
}

// autoGenerations is the automatic G for code length k.
func autoGenerations(k int) int { return max(1, (k+autoKPer-1)/autoKPer) }

// Serve splits content into k native packets across G independently
// coded generations, seeds a source state and returns its ObjectID, which
// commits to the geometry and the manifest. G comes from Config.Generations (or
// ltnc.WithGenerations); by default it scales with k so per-packet
// headers and per-generation decode state stay bounded — this is what
// lets a session serve multi-MB/GB objects. k is rounded up to a
// multiple of G. The object is pushed to configured peers and to anyone
// who requests it, and is pinned against idle eviction. Serving an
// object someone is already fetching or watching completes those
// subscriptions immediately.
//
// The session keeps content itself, not a copy: it recodes from it, serves
// it for as long as it holds the object and returns it from a local Fetch.
// Treat it as read-only once served.
func (s *Session) Serve(content []byte, k int) (ObjectID, error) {
	return s.s.Serve(content, k, s.pickGenerations(k))
}

// ServeReader reads r to EOF and serves the bytes as one object; see
// Serve. The session owns the buffer it read them into.
func (s *Session) ServeReader(r io.Reader, k int) (ObjectID, error) {
	content, err := io.ReadAll(r)
	if err != nil {
		return ObjectID{}, fmt.Errorf("swarm: read content: %w", err)
	}
	return s.Serve(content, k)
}

// ServeFile serves the contents of the file at path as one object; see
// Serve. Together with the automatic generation choice this is the
// large-file entry point: a file served with k = size/4096 natives gets
// G = ceil(k/1024) generations and constant-size headers regardless of
// file size. The file is read once, into the one buffer the session
// serves from.
func (s *Session) ServeFile(path string, k int) (ObjectID, error) {
	content, err := os.ReadFile(path)
	if err != nil {
		return ObjectID{}, err
	}
	return s.Serve(content, k)
}

// FetchReport summarizes a completed (or failed) fetch.
type FetchReport struct {
	// Bytes is the recovered content length.
	Bytes int
	// Elapsed is the transfer's wall time.
	Elapsed time.Duration
	// Stats carries the decode-side counters at completion;
	// Stats.Overhead() is the paper's reception overhead (received
	// packets / k). Under pollution defense it also reports integrity
	// state: HaveManifest, GensVerified, and Polluted (quarantine events
	// survived on the way to completion).
	Stats ObjectStats
}

// Overhead is shorthand for Stats.Overhead — received packets relative to
// k, the paper's 1 + ε.
func (r FetchReport) Overhead() float64 { return r.Stats.Overhead() }

// Fetch subscribes to object id, blocks until the decode completes and
// returns the content. The request goes to every address in from — or,
// when none is given, to every configured peer (ErrNoPeers with neither).
// Requests are resent periodically until the transfer finishes, ctx
// expires, or the session closes; the report is meaningful even on error.
//
// The content returned is the session's own copy of the object, shared
// with every later Fetch of it and served to peers for as long as the
// session holds it: treat it as read-only, and copy it to modify it.
func (s *Session) Fetch(ctx context.Context, id ObjectID, from ...Addr) ([]byte, FetchReport, error) {
	start := time.Now()
	content, stats, err := s.s.Fetch(ctx, id, from...)
	report := FetchReport{Bytes: len(content), Elapsed: time.Since(start), Stats: stats}
	if err != nil {
		return nil, report, err
	}
	return content, report, nil
}

// Watch subscribes fn to object id's progress: it is invoked once
// immediately with a snapshot, then again whenever the object's decode
// state advances — innovative packets ingested, metadata learned,
// completion. Snapshots reach fn in monotone order (a Complete snapshot
// is never followed by an older one). Callbacks run on session
// goroutines, serialized per object; they must not block and must not
// call Watch or Subscribe synchronously for any object (spawn a
// goroutine for that; cancel is fine) — consume through Subscribe's
// channel when in doubt. Watching an unknown object is
// allowed (the session registers it and decodes once packets arrive);
// watchers do not pin state against idle eviction. cancel unregisters
// fn.
func (s *Session) Watch(id ObjectID, fn func(ObjectStats)) (cancel func()) {
	return s.s.Watch(id, fn)
}

// Subscribe is the channel form of Watch: progress snapshots of object id
// are delivered on the returned channel, which has the given buffer
// capacity (minimum 1). Deliveries never block: when the consumer lags
// and the buffer is full, the OLDEST buffered snapshot is dropped to make
// room for the newest, so the most recent snapshot — including the
// terminal Complete one — is always the one retained. The channel is
// never closed; cancel stops deliveries.
func (s *Session) Subscribe(id ObjectID, buffer int) (<-chan ObjectStats, func()) {
	ch := make(chan ObjectStats, max(buffer, 1))
	cancel := s.s.Watch(id, func(o ObjectStats) {
		for {
			select {
			case ch <- o:
				return
			default:
			}
			// Full: evict one stale snapshot and retry. The loop
			// terminates because each round either delivers o or shrinks
			// the buffer (concurrent consumers only help).
			select {
			case <-ch:
			default:
			}
		}
	})
	return ch, cancel
}

// Stats returns a snapshot of every object the session currently holds.
func (s *Session) Stats() []ObjectStats { return s.s.Objects() }

// Object returns the snapshot of one object and whether the session holds
// it.
func (s *Session) Object(id ObjectID) (ObjectStats, bool) {
	return s.s.Object(id)
}

// BannedPeers lists the peers this session has convicted of pollution —
// peers whose packets failed integrity verification against an object's
// manifest. Banned peers are neither served nor asked again; a fetch
// whose every candidate is banned fails with ErrPolluted.
func (s *Session) BannedPeers() []Addr { return s.s.BannedPeers() }

// CacheStats returns the partial cache's occupancy and policy counters;
// ok is false unless the session was configured with Config.CacheBudget.
func (s *Session) CacheStats() (CacheStats, bool) { return s.s.CacheStats() }

// IngestDropped returns the number of DATA frames dropped at full decode
// worker queues — the receiver-overload counter.
func (s *Session) IngestDropped() int64 { return s.s.IngestDropped() }
