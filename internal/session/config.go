package session

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"ltnc/internal/adapt"
	"ltnc/internal/transport"
)

// maxPeersPerObject bounds one object's peer table: at capacity a
// subscription evicts a completed or stalest subscriber, or is dropped.
// Without the bound the map grows with every address that ever sent a
// report, for the object's whole lifetime.
const maxPeersPerObject = 256

// reqResend is a fetch's steady subscription cadence; reqRetry is how many
// Ticks after its first a fetch that has heard nothing of the object tries
// again, doubling from there up to reqResend. A lost subscription then
// costs a few ticks, not the 250 ms that outlast a whole paced transfer.
const (
	reqResend = 250 * time.Millisecond
	reqRetry  = 4
)

// The sharded decode engine's dimensions (DESIGN.md §8). DATA frames are
// dispatched by object ID onto decodeWorkers() shards, so up to that many
// objects decode concurrently and frames of one object always land on the
// same worker, in arrival order; a worker drains up to ingestBatchMax frames
// per wakeup and feeds the batch to the decoders under amortized locking,
// sending each receipt the moment it falls due (the object's lock dropped
// for the send) and the statuses the batch owes when it ends — a sender's
// window cap is two such batches (adapt.MaxBurst), so it refills one while
// the worker decodes the other; each worker's inbound queue holds
// ingestQueueLen frames, two full windows (TestQueuesHoldTwoWindows), and
// DATA arriving at a full one is dropped, as a datagram network would
// under overload.
const (
	ingestBatchMax = adapt.IngestBatch
	ingestQueueLen = 128
)

func decodeWorkers() int { return min(runtime.GOMAXPROCS(0), 8) }

// memberFanout bounds the membership plane's active neighbor selections
// and its shuffle sample: pushes address at most this many membership
// neighbors per object, keeping the push sweep O(active neighbors) rather
// than O(swarm).
const memberFanout = 8

// receiptEvery is how many DATA frames a receiver judges from one sender —
// innovative or redundant — between receipt reports; the estimator on the
// other end sizes its windows by the same constant.
const receiptEvery = adapt.ReceiptEvery

// Config parameterizes a session.
type Config struct {
	// Transport carries the frames; required.
	Transport transport.Transport
	// Tick is the push timer's period (default 2ms): the floor under the
	// receipt clock — a peer whose receipts never come still gets a frame
	// a Tick — and the unit the silence rule and the per-link rate
	// ceiling are counted in. The peer's receipts clock the
	// push: per (peer, object) a window of frames in flight starts at
	// a few, doubles while the peer's receipt reports show the rows
	// arriving, halves when they show a loss step or stop coming, and stays
	// within [1, adapt.MaxBurst]; frames leave whenever a receipt or a
	// decode frees window (internal/adapt, DESIGN.md §16). The window alone
	// paces an honest peer; adapt.TickCeiling per Tick, far above what one
	// takes, bounds what forged receipts can buy. Tick caps the loss
	// horizon but is not its unit: a row no receipt has credited or proven
	// lost ages out after its link's measured round trip plus max(Tick/4,
	// 4·RTTVAR), never later than 2·Tick, and the timer also fires when the
	// oldest row in flight is due to. The timer runs only while some peer is
	// owed rows; an idle session wakes for housekeeping a few times a
	// second.
	Tick time.Duration
	// IdleTimeout evicts object state (and subscribers) untouched for
	// this long; default 60s. Pinned (locally served) objects stay.
	IdleTimeout time.Duration
	// Relay makes the session create decode state for objects it first
	// learns about from incoming DATA or MANIFEST frames and re-push them —
	// the paper's recoding intermediary. Fetch-only clients leave it
	// false and decode only objects they asked for.
	Relay bool
	// CacheBudget, when positive, makes the session a partial cache for
	// objects it learns from the network: innovative coded rows are
	// retained under this global byte budget — never decoded — and
	// served back to requesters, with admission and eviction policed by
	// internal/cache. Mutually exclusive with Relay: a relay holds
	// decode state and recodes live, a cache holds raw rank. Fetching a
	// cached object promotes its rows into a real decoder first.
	CacheBudget int64
	// MaxObjects bounds how many objects a relay will learn from the
	// network (default 1024); frames for further objects are dropped
	// until eviction makes room. Locally served and fetched objects are
	// not counted against the bound when created.
	MaxObjects int
	// MaxK bounds the code length a relay accepts from network headers
	// (default 65536); larger k means larger decode state, and the wire
	// header alone allows k up to 2^24.
	MaxK int
	// Seed drives per-object node randomness. A zero Seed selects the
	// default (1) unless HaveSeed marks it as deliberately chosen — the
	// public option plumbing (ltnc.WithSeed(0) via swarm.Config.Node)
	// must not silently collapse seed 0 onto seed 1.
	Seed     int64
	HaveSeed bool
	// DisableRefinement and DisableRedundancyCheck turn off the paper's
	// Algorithm 2 (recode refinement) and Algorithm 3 (header redundancy
	// detection) in every per-object decode state the session creates.
	// Both default to false — the algorithms run — and exist for
	// experiments and the public option plumbing (ltnc.WithRefinement,
	// ltnc.WithRedundancyDetection via swarm.Config).
	DisableRefinement      bool
	DisableRedundancyCheck bool
	// Bootstrap enables the epidemic membership plane (member.go): the
	// session joins the swarm by shuffling partial views with these
	// addresses, discovers further peers via MEMBER gossip, and steers
	// pushes and fetches toward its sampled neighbors instead of a
	// static peer list. Empty (the default) disables the plane entirely;
	// AddPeer-configured peers then remain the only standing targets.
	Bootstrap []transport.Addr
	// ViewSize bounds the membership view — the resident per-peer state
	// of the plane (default 32).
	ViewSize int
	// ShufflePeriod is the membership shuffle cadence (default
	// max(25·Tick, 250ms)): every period the view ages one round and one
	// partial-view exchange goes out.
	ShufflePeriod time.Duration
	// Clock is the instant every session deadline is read against — the
	// push timer, proof repair, idle eviction, fetch retries. Default: the
	// system clock, the only one Run accepts. Simulations
	// (internal/simnet) inject a virtual clock and drive the session with
	// Step, so a minute of protocol time passes in milliseconds of wall
	// time, deterministically.
	Clock transport.Clock
	// Logf, when set, receives one line per notable event (object
	// learned, complete, evicted).
	Logf func(format string, args ...any)
}

// ErrNoPeers is returned by Fetch when no source address was given and
// the session has no configured peers to ask.
var ErrNoPeers = errors.New("session: no peers to fetch from")

// ErrPolluted is wrapped by Fetch when pollution defense has banned every
// candidate peer for an object: the swarm the caller pointed at has no
// remaining source whose rows survive integrity verification. Partial
// pollution does not fail a fetch — quarantined generations are re-fetched
// from the peers still standing — so this error means the defense worked
// and there is genuinely nobody left to ask. Per-object pollution counters
// travel in ObjectStats (Polluted, GensVerified, HaveManifest).
var ErrPolluted = errors.New("session: every candidate peer banned for pollution")

func (c *Config) setDefaults() error {
	if c.Transport == nil {
		return errors.New("session: nil transport")
	}
	if c.Tick == 0 {
		c.Tick = 2 * time.Millisecond
	}
	if c.Tick < 0 {
		return fmt.Errorf("session: tick %v < 0", c.Tick)
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 60 * time.Second
	}
	if c.IdleTimeout < 0 {
		return fmt.Errorf("session: idle timeout %v < 0", c.IdleTimeout)
	}
	if c.MaxObjects == 0 {
		c.MaxObjects = 1024
	}
	if c.MaxObjects < 1 {
		return fmt.Errorf("session: max objects %d < 1", c.MaxObjects)
	}
	if c.MaxK == 0 {
		c.MaxK = 65536
	}
	if c.MaxK < 1 {
		return fmt.Errorf("session: max k %d < 1", c.MaxK)
	}
	if c.CacheBudget < 0 {
		return fmt.Errorf("session: cache budget %d < 0", c.CacheBudget)
	}
	if c.CacheBudget > 0 && c.Relay {
		return errors.New("session: Relay and CacheBudget are mutually exclusive")
	}
	if c.ViewSize == 0 {
		c.ViewSize = 32
	}
	if c.ViewSize < 1 {
		return fmt.Errorf("session: view size %d < 1", c.ViewSize)
	}
	if c.ShufflePeriod == 0 {
		c.ShufflePeriod = max(25*c.Tick, 250*time.Millisecond)
	}
	if c.ShufflePeriod < 0 {
		return fmt.Errorf("session: shuffle period %v < 0", c.ShufflePeriod)
	}
	if c.Seed == 0 && !c.HaveSeed {
		c.Seed = 1
	}
	if c.Clock == nil {
		c.Clock = transport.SystemClock()
	}
	return nil
}
