// Package core implements LTNC — LT network codes — the primary
// contribution of the paper: a recoding method that lets intermediary
// nodes generate fresh encoded packets from the (partial, encoded)
// information they hold while preserving the two statistical properties
// belief-propagation decoding depends on:
//
//  1. the degrees of emitted packets follow a Robust Soliton distribution
//     (pick + build steps, Algorithm 1), and
//  2. the degrees of native packets stay near-uniform (refine step,
//     Algorithm 2).
//
// A Node bundles the belief-propagation decoder (Tanner graph) with the
// complementary data structures of Table I — the degree index, the
// connected components of native packets and the occurrence tracker — all
// kept synchronized through the decoder's hooks, plus the redundancy
// detector of Algorithm 3 and the feedback-driven smart constructor of
// Algorithm 4.
package core

import (
	"fmt"
	"math/rand"

	"ltnc/internal/bitvec"
	"ltnc/internal/ccindex"
	"ltnc/internal/degindex"
	"ltnc/internal/lt"
	"ltnc/internal/occur"
	"ltnc/internal/opcount"
	"ltnc/internal/packet"
	"ltnc/internal/soliton"
)

// Options configures an LTNC node. K is required; zero values elsewhere
// select the defaults documented per field.
type Options struct {
	// K is the code length (number of native packets).
	K int
	// M is the payload size in bytes; 0 runs the node control-plane-only.
	M int
	// Dist is the degree distribution for fresh packets; defaults to the
	// Robust Soliton over K with soliton.DefaultC/DefaultDelta.
	Dist soliton.Dist
	// Rng drives every random choice of the node; defaults to a rand.Rand
	// seeded with 1 (deterministic).
	Rng *rand.Rand
	// Counter receives cost accounting; nil disables it.
	Counter *opcount.Counter
	// DisableRefinement turns off Algorithm 2 (ablation).
	DisableRefinement bool
	// DisableRedundancyCheck turns off Algorithm 3 (ablation): incoming
	// low-degree redundant packets are stored instead of dropped.
	DisableRedundancyCheck bool
	// MaxPickRetries bounds the resample loop for unreachable degrees
	// before falling back to the largest reachable degree; default 64.
	MaxPickRetries int
	// RefineScanBudget bounds how many members of a connected component
	// the refinement step scans per substituted native; default 64. The
	// paper's Algorithm 2 scans whole components; the cap keeps recoding
	// O(d · budget) on the giant decoded component with no measurable
	// effect on the occurrence variance (see EXPERIMENTS.md).
	RefineScanBudget int
	// Arena is the decode arena, K-bit vectors and M-byte rows; nil gives
	// the node one of its own. Nodes sharing one pass freed rows to each
	// other and must be used from one goroutine at a time.
	Arena *bitvec.Arena
}

func (o *Options) setDefaults() error {
	if o.K < 1 {
		return fmt.Errorf("core: K = %d < 1", o.K)
	}
	if o.M < 0 {
		return fmt.Errorf("core: M = %d < 0", o.M)
	}
	if o.Dist == nil {
		d, err := soliton.NewDefaultRobust(o.K)
		if err != nil {
			return err
		}
		o.Dist = d
	}
	if o.Dist.K() != o.K {
		return fmt.Errorf("core: distribution over %d degrees, K = %d", o.Dist.K(), o.K)
	}
	if o.Rng == nil {
		o.Rng = rand.New(rand.NewSource(1))
	}
	if o.Arena == nil {
		o.Arena = bitvec.NewArena(o.K, o.M)
	}
	if o.Arena.N() != o.K || o.Arena.M() != o.M {
		return fmt.Errorf("core: arena of %d-bit vectors and %d-byte rows, K = %d, M = %d", o.Arena.N(), o.Arena.M(), o.K, o.M)
	}
	if o.MaxPickRetries == 0 {
		o.MaxPickRetries = 64
	}
	if o.RefineScanBudget == 0 {
		o.RefineScanBudget = 64
	}
	return nil
}

// Node is an LTNC participant: it decodes what it receives with belief
// propagation and recodes fresh LT-shaped packets for its neighbours.
// A Node is not safe for concurrent use.
type Node struct {
	k, m int
	opts Options

	dec *lt.Decoder
	deg *degindex.Index
	cc  *ccindex.Components
	occ *occur.Tracker

	// Degree-3 availability index for Algorithm 3: triple -> multiplicity,
	// plus the id -> triple reverse index needed to untrack packets on
	// removal. Packet ids are dense decoder slots, so the reverse index is
	// a flat slice ({-1,-1,-1} = untracked) rather than a map.
	tripleOf [][3]int32
	triples  map[[3]int32]int

	counter *opcount.Counter
	rng     *rand.Rand

	stats Stats

	// log lists the decoded natives in the order they were recovered: what
	// a relay can forward plainly, as it becomes able to (DecodeLog).
	log []int32

	// Scratch buffers reused across recodes.
	scratchIDs []int
	scratchVec *bitvec.Vector
}

// NewNode returns an LTNC node configured by opts.
func NewNode(opts Options) (*Node, error) {
	if err := opts.setDefaults(); err != nil {
		return nil, err
	}
	n := &Node{
		k:          opts.K,
		m:          opts.M,
		opts:       opts,
		deg:        degindex.New(opts.K),
		cc:         ccindex.New(opts.K),
		occ:        occur.New(opts.K),
		triples:    make(map[[3]int32]int),
		counter:    opts.Counter,
		rng:        opts.Rng,
		scratchVec: bitvec.New(opts.K),
	}
	hooks := lt.Hooks{
		PacketStored: func(id, deg int) {
			n.deg.Add(id, deg)
			n.trackTriple(id, deg)
		},
		DegreeChanged: func(id, oldDeg, newDeg int) {
			n.deg.Move(id, oldDeg, newDeg)
			n.untrackTriple(id, oldDeg)
			n.trackTriple(id, newDeg)
		},
		PacketRemoved: func(id, lastDeg int) {
			n.deg.Remove(id, lastDeg)
			n.untrackTriple(id, lastDeg)
		},
		Decoded: func(x int) {
			n.cc.MarkDecoded(x)
			n.log = append(n.log, int32(x))
		},
		DegreeTwo: func(x, y int, payload []byte) {
			n.cc.AddPair(x, y, payload)
		},
	}
	if !opts.DisableRedundancyCheck {
		hooks.CheckRedundant = n.isRedundantReduced
	}
	dec, err := lt.NewDecoderIn(opts.Arena, opts.Counter, hooks)
	if err != nil {
		return nil, err
	}
	n.dec = dec
	return n, nil
}

// K returns the code length.
func (n *Node) K() int { return n.k }

// M returns the payload size.
func (n *Node) M() int { return n.m }

// Receive feeds a packet received from the network into the node.
func (n *Node) Receive(p *packet.Packet) lt.InsertResult {
	n.counter.Event(opcount.DecodeControl)
	return n.dec.Insert(p)
}

// ReceiveBatch drains a burst of received packets in arrival order. The
// decode outcome is identical to calling Receive per packet; the batch
// form amortizes per-call overhead on the session ingest path.
func (n *Node) ReceiveBatch(ps []*packet.Packet) lt.BatchResult {
	for range ps {
		n.counter.Event(opcount.DecodeControl)
	}
	return n.dec.InsertBatch(ps)
}

// AcquireVec returns a code vector from the decode arena with
// unspecified contents — fully overwrite it (UnmarshalInto, CopyFrom)
// before use; recycled buffers are handed out dirty. Pass it to
// ReceiveOwned, or return it with ReleaseVec if the packet is aborted
// before decoding.
func (n *Node) AcquireVec() *bitvec.Vector { return n.dec.Arena().Vec() }

// ReleaseVec returns an acquired vector without inserting it.
func (n *Node) ReleaseVec(v *bitvec.Vector) { n.dec.Arena().PutVec(v) }

// AcquireRow returns an m-byte payload row from the decode arena (nil
// when the node runs control-plane-only). Contents are unspecified —
// fully overwrite all m bytes before use.
func (n *Node) AcquireRow() []byte { return n.dec.Arena().Row() }

// ReleaseRow returns an acquired payload row without inserting it.
func (n *Node) ReleaseRow(r []byte) { n.dec.Arena().PutRow(r) }

// ReceiveOwned feeds one packet whose buffers were acquired from this
// node's arena (AcquireVec/AcquireRow) and filled in place — the
// zero-copy, zero-allocation receive path. Ownership of vec and payload
// transfers to the node; payload may be nil for control-plane use.
func (n *Node) ReceiveOwned(vec *bitvec.Vector, payload []byte) lt.InsertResult {
	n.counter.Event(opcount.DecodeControl)
	return n.dec.InsertOwned(vec, payload)
}

// Complete reports whether all k natives are decoded.
func (n *Node) Complete() bool { return n.dec.Complete() }

// DecodedCount returns the number of decoded natives.
func (n *Node) DecodedCount() int { return n.dec.DecodedCount() }

// Received returns the number of packets received so far.
func (n *Node) Received() int { return n.dec.Received() }

// RedundantDropped returns the number of received packets discarded as
// non-innovative (zero reduction or Algorithm 3).
func (n *Node) RedundantDropped() int { return n.dec.RedundantDropped() }

// PrunedStored returns the number of stored packets discarded by the
// detector during decoding.
func (n *Node) PrunedStored() int { return n.dec.PrunedStored() }

// StoredCount returns the number of packets in the Tanner graph.
func (n *Node) StoredCount() int { return n.dec.StoredCount() }

// DecodeLog returns the decoded natives in decode order — 0..k−1 for a
// seeded source, belief propagation's peeling order for a receiver. The
// slice is a read-only view that grows, in place or not, with every
// packet fed in: index it afresh after each.
func (n *Node) DecodeLog() []int32 { return n.log }

// IsDecoded reports whether native x is decoded.
func (n *Node) IsDecoded(x int) bool { return n.dec.IsDecoded(x) }

// NativeData returns the payload of a decoded native (nil otherwise).
func (n *Node) NativeData(x int) []byte { return n.dec.NativeData(x) }

// Data returns all native payloads once decoding is complete.
func (n *Node) Data() ([][]byte, error) { return n.dec.Data() }

// Place makes dst, K slots of M bytes, where the node's natives live
// (lt.Decoder.Place): those decoded so far move in, later ones decode
// there, and recoding reads them there.
func (n *Node) Place(dst []byte) bool { return n.dec.Place(dst) }

// RowFor returns the row a degree-1 packet of native x is to be received
// into (lt.Decoder.RowFor): x's slot once placed, an arena row otherwise.
func (n *Node) RowFor(x int) []byte { return n.dec.RowFor(x) }

// Components returns the node's connected-components snapshot in the
// paper's cc representation; this is what the node ships to a sender over
// the full feedback channel.
func (n *Node) Components() []int32 { return n.cc.Snapshot() }

// OccurrenceRelStdDev returns the relative standard deviation of native
// occurrences in sent packets (the paper reports ≈ 0.1%).
func (n *Node) OccurrenceRelStdDev() float64 { return n.occ.RelStdDev() }

// ForgetSent restarts occurrence balancing (Algorithm 2) from zero, as if
// the node had sent nothing yet. What a node sent while it held a fraction
// of the content says nothing about what its peers still miss, and
// balancing against that history keeps the natives it sent early — and a
// lossy link dropped — out of every later packet until the rest have
// caught up; a node that has just completed calls this and recodes like
// the source it now is.
func (n *Node) ForgetSent() { n.occ = occur.New(n.k) }

// Seed bootstraps the node with the full content, turning it into a
// source: all k natives are decoded locally, so Recode emits genuine LT
// packets. natives must contain exactly k payloads of m bytes (payloads
// ignored when m == 0). The node keeps the payloads as its decoded
// natives without copying them: the caller must not modify them
// afterwards.
func (n *Node) Seed(natives [][]byte) error {
	if len(natives) != n.k {
		return fmt.Errorf("core: seed with %d natives, want %d", len(natives), n.k)
	}
	for i, data := range natives {
		if n.m > 0 && len(data) != n.m {
			return fmt.Errorf("core: seed native %d has %d bytes, want %d", i, len(data), n.m)
		}
	}
	for i, data := range natives {
		vec := n.dec.Arena().Vec()
		vec.Reset()
		vec.Set(i)
		if n.m == 0 {
			data = nil
		}
		n.dec.InsertOwned(vec, data)
	}
	return nil
}

var noTriple = [3]int32{-1, -1, -1}

func (n *Node) trackTriple(id, deg int) {
	if deg != 3 {
		return
	}
	vec, _, ok := n.dec.StoredPacket(id)
	if !ok {
		return
	}
	t := tripleKey(vec)
	for id >= len(n.tripleOf) {
		n.tripleOf = append(n.tripleOf, noTriple)
	}
	n.tripleOf[id] = t
	n.triples[t]++
}

func (n *Node) untrackTriple(id, deg int) {
	if deg != 3 || id >= len(n.tripleOf) {
		return
	}
	t := n.tripleOf[id]
	if t == noTriple {
		return
	}
	n.tripleOf[id] = noTriple
	if c := n.triples[t]; c <= 1 {
		delete(n.triples, t)
	} else {
		n.triples[t] = c - 1
	}
}

func tripleKey(vec *bitvec.Vector) [3]int32 {
	var t [3]int32
	i := 0
	for x := vec.LowestSet(); x >= 0 && i < 3; x = vec.NextSet(x + 1) {
		t[i] = int32(x)
		i++
	}
	return t
}
