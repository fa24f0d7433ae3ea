// Package ltnc implements LT network codes (LTNC) — network coding built
// on Luby Transform erasure codes so that receivers decode with
// low-complexity belief propagation instead of Gaussian elimination — as
// described in "LT Network Codes", Champel, Huguenin, Kermarrec and
// Le Scouarnec, ICDCS 2010.
//
// A Source splits content into k native packets and emits an unbounded
// stream of encoded packets whose degrees follow the Robust Soliton
// distribution. A Node receives encoded packets from any mix of sources
// and other nodes, decodes progressively with belief propagation, and —
// this is the paper's contribution — *recodes* fresh encoded packets that
// preserve the statistical properties LT decoding depends on, even though
// the node only holds a partial, encoded view of the content.
//
// Minimal dissemination loop:
//
//	src, _ := ltnc.NewSource(content, 256)
//	relay, _ := ltnc.NewNode(src.K(), src.M())
//	sink, _ := ltnc.NewNode(src.K(), src.M())
//	for !sink.Complete() {
//	    relay.Receive(src.Packet())
//	    if p, ok := relay.Recode(); ok {
//	        sink.Receive(p)
//	    }
//	}
//	data, _ := sink.Bytes(len(content))
//
// The packages under internal/ provide the substrates (bit vectors, the
// Soliton distributions, the Tanner-graph decoder, GF(2) elimination, the
// RLNC and WC baselines, simulators) used by the benchmark harness that
// reproduces the paper's evaluation; see DESIGN.md and EXPERIMENTS.md.
package ltnc

import (
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"time"

	"ltnc/internal/core"
	"ltnc/internal/lt"
	"ltnc/internal/packet"
	"ltnc/internal/soliton"
)

// Packet is one encoded packet: a GF(2) code vector over the k native
// packets plus the XOR of the selected native payloads.
type Packet = packet.Packet

// Split divides content into k equal native packets (zero-padded tail);
// Join reassembles content of the given size from them.
func Split(content []byte, k int) ([][]byte, error) { return lt.Split(content, k) }

// Join is the inverse of Split.
func Join(natives [][]byte, size int) ([]byte, error) { return lt.Join(natives, size) }

// WritePacket writes p to w in the wire format (code vector first, so
// receivers can abort redundant transfers before the payload).
func WritePacket(w io.Writer, p *Packet) error { return packet.Write(w, p) }

// ReadPacket reads a packet in the wire format from r.
func ReadPacket(r io.Reader) (*Packet, error) { return packet.Read(r) }

// PacketHeader is the fixed prefix plus code vector of a packet on the
// wire — everything a receiver needs to decide whether to accept the
// payload.
type PacketHeader = packet.Header

// WritePacketHeader writes only the header of p; follow with
// WritePacketPayload once the receiver accepts the transfer.
func WritePacketHeader(w io.Writer, p *Packet) error { return packet.WriteHeader(w, p) }

// WritePacketPayload writes the payload of p after its header.
func WritePacketPayload(w io.Writer, p *Packet) error { return packet.WritePayload(w, p) }

// ReadPacketHeader reads a packet header, leaving the payload unread so
// the receiver can abort a redundant transfer (binary feedback channel).
func ReadPacketHeader(r io.Reader) (PacketHeader, error) { return packet.ReadHeader(r) }

// ReadPacketPayload completes a packet whose header was already read.
func ReadPacketPayload(r io.Reader, h PacketHeader) (*Packet, error) {
	return packet.ReadPayload(r, h)
}

// Option configures NewSource and NewNode.
type Option interface {
	apply(*NodeConfig)
}

// NodeConfig is the compiled form of the functional options — the one
// validated node configuration shared across the stack: NewNode and
// NewSource build it from their Option list via CompileOptions, and
// swarm.Config carries the same Option vocabulary to every per-object
// decode state a dissemination session creates. The zero value is the
// default configuration (refinement and redundancy detection enabled,
// fresh entropy seeding).
type NodeConfig struct {
	// Seed makes the node's random choices reproducible when Seeded is
	// true; otherwise a fresh seed is drawn from the operating system's
	// entropy source.
	Seed   int64
	Seeded bool
	// DisableRefinement turns off the refinement step (Algorithm 2).
	DisableRefinement bool
	// DisableRedundancyDetection turns off the redundancy detector
	// (Algorithm 3).
	DisableRedundancyDetection bool
	// Generations is the coding-generation count G a dissemination
	// session splits served objects into (the paper's generations
	// optimization: code vectors, decode state and recoding scans
	// shrink from k to k/G). 0 keeps the consumer's default — a swarm
	// session picks G automatically from the object's code length; 1
	// forces single-generation coding. Root-package Nodes and Sources
	// code a single span and ignore it.
	Generations int
}

// CompileOptions folds a functional option list into a NodeConfig.
func CompileOptions(opts ...Option) NodeConfig {
	var cfg NodeConfig
	for _, opt := range opts {
		opt.apply(&cfg)
	}
	return cfg
}

type seedOption int64

func (o seedOption) apply(cfg *NodeConfig) {
	cfg.Seed = int64(o)
	cfg.Seeded = true
}

// WithSeed makes the node's random choices reproducible.
func WithSeed(seed int64) Option { return seedOption(seed) }

type refinementOption bool

func (o refinementOption) apply(cfg *NodeConfig) { cfg.DisableRefinement = !bool(o) }

// WithRefinement enables or disables the refinement step (Algorithm 2);
// it is enabled by default and should stay on outside of experiments.
func WithRefinement(enabled bool) Option { return refinementOption(enabled) }

type redundancyOption bool

func (o redundancyOption) apply(cfg *NodeConfig) { cfg.DisableRedundancyDetection = !bool(o) }

// WithRedundancyDetection enables or disables the redundancy detector
// (Algorithm 3); it is enabled by default.
func WithRedundancyDetection(enabled bool) Option { return redundancyOption(enabled) }

type generationsOption int

func (o generationsOption) apply(cfg *NodeConfig) { cfg.Generations = int(o) }

// WithGenerations sets the coding-generation count G that dissemination
// sessions split served objects into; it overrides swarm.Config's
// Generations field. G = 1 forces single-generation coding; G = 0
// restores the automatic choice (G scales with the object's code length
// so per-packet headers stay O(k/G)). Root-package Nodes and Sources
// ignore it.
func WithGenerations(g int) Option { return generationsOption(g) }

// EntropySeed draws a fresh 64-bit seed from crypto/rand — what unseeded
// nodes and swarm sessions use by default, so independent participants
// never share a random stream (and nothing depends on the deprecated
// seeding state of the global math/rand). The time-derived fallback only
// runs if the entropy source fails, which on supported platforms it does
// not.
func EntropySeed() int64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err == nil {
		return int64(binary.LittleEndian.Uint64(b[:]))
	}
	return time.Now().UnixNano()
}

func (o NodeConfig) coreOptions(k, m int) core.Options {
	cfg := core.Options{
		K:                      k,
		M:                      m,
		DisableRefinement:      o.DisableRefinement,
		DisableRedundancyCheck: o.DisableRedundancyDetection,
	}
	if o.Seeded {
		cfg.Rng = rand.New(rand.NewSource(o.Seed))
	} else {
		cfg.Rng = rand.New(rand.NewSource(EntropySeed()))
	}
	return cfg
}

// Node is an LTNC participant: it decodes received packets with belief
// propagation and recodes fresh LT-shaped packets for its peers. Not safe
// for concurrent use; wrap with your own synchronization or give each
// goroutine its own node.
type Node struct {
	n *core.Node
	k int
	m int
}

// NewNode returns an empty LTNC node for content split into k native
// packets of m bytes.
func NewNode(k, m int, opts ...Option) (*Node, error) {
	n, err := core.NewNode(CompileOptions(opts...).coreOptions(k, m))
	if err != nil {
		return nil, err
	}
	return &Node{n: n, k: k, m: m}, nil
}

// K returns the code length; M the native payload size.
func (nd *Node) K() int { return nd.k }

// M returns the native payload size in bytes.
func (nd *Node) M() int { return nd.m }

// Receive feeds a received packet to the node. It reports whether the
// packet was innovative (false means it was discarded as redundant).
func (nd *Node) Receive(p *Packet) bool {
	res := nd.n.Receive(p)
	return !res.Redundant
}

// BatchResult summarizes a ReceiveBatch call.
type BatchResult struct {
	// Innovative is how many packets of the batch were accepted rather
	// than discarded as redundant — the batched analogue of Receive's
	// boolean result.
	Innovative int
	// Redundant is how many packets were discarded.
	Redundant int
	// NewlyDecoded is how many native packets were recovered over the
	// whole batch, peeling cascades included.
	NewlyDecoded int
}

// ReceiveBatch drains a burst of received packets in arrival order. The
// decode outcome — recovered natives, stored packets, redundancy verdicts
// — is identical to calling Receive packet-at-a-time, because belief
// propagation is inherently sequential; the batch form amortizes per-call
// overhead on hot ingest paths (it is what the dissemination session's
// sharded decode workers run). Use it whenever packets arrive in bursts.
func (nd *Node) ReceiveBatch(ps []*Packet) BatchResult {
	r := nd.n.ReceiveBatch(ps)
	return BatchResult{
		Innovative:   len(ps) - r.Redundant,
		Redundant:    r.Redundant,
		NewlyDecoded: r.NewlyDecoded,
	}
}

// IsRedundant runs the redundancy detector (Algorithm 3) on a packet
// header: a true result means the transfer can be aborted because the
// payload cannot bring new information.
func (nd *Node) IsRedundant(p *Packet) bool { return nd.n.IsRedundant(p.Vec) }

// HeaderRedundant runs the redundancy detector on a wire header before
// the payload has been read.
func (nd *Node) HeaderRedundant(h PacketHeader) bool { return nd.n.IsRedundant(h.Vec) }

// Recode builds a fresh encoded packet from everything the node holds,
// preserving the LT statistical properties (pick–build–refine pipeline).
// ok is false when the node has nothing to recode from.
func (nd *Node) Recode() (p *Packet, ok bool) { return nd.n.Recode() }

// Components returns the node's connected-components map (the paper's cc
// representation), which a peer can use with SmartRecode over a feedback
// channel.
func (nd *Node) Components() []int32 { return nd.n.Components() }

// SmartRecode builds a packet of degree 1 or 2 guaranteed innovative for
// the receiver whose Components() map is given (Algorithm 4). ok is false
// when no such packet exists; fall back to Recode.
func (nd *Node) SmartRecode(receiverComponents []int32) (p *Packet, ok bool) {
	return nd.n.SmartRecode(receiverComponents)
}

// Progress returns the number of decoded natives and the code length.
func (nd *Node) Progress() (decoded, k int) { return nd.n.DecodedCount(), nd.k }

// Received returns the number of packets delivered to the node.
func (nd *Node) Received() int { return nd.n.Received() }

// Complete reports whether the node recovered all k native packets.
func (nd *Node) Complete() bool { return nd.n.Complete() }

// Natives returns the k native payloads once decoding is complete; before
// completion it fails with ErrIncomplete.
func (nd *Node) Natives() ([][]byte, error) { return nd.n.Data() }

// Bytes reassembles the original content of the given size once decoding
// is complete. Before completion it fails with ErrIncomplete; a size the
// natives cannot hold fails with ErrContentSize. Pass the size the source
// reports (Source.Size) — see its doc for the padding contract.
func (nd *Node) Bytes(size int) ([]byte, error) {
	natives, err := nd.n.Data()
	if err != nil {
		return nil, err
	}
	return lt.Join(natives, size)
}

// Source emits LT-encoded packets for a piece of content. It is an LTNC
// node that holds everything from the start, so its output is a genuine
// LT code stream (and it can also SmartRecode against feedback).
type Source struct {
	Node

	size int
}

// NewSource splits content into k native packets and returns its source.
func NewSource(content []byte, k int, opts ...Option) (*Source, error) {
	natives, err := lt.Split(content, k)
	if err != nil {
		return nil, err
	}
	src, err := NewSourceFromNatives(natives, opts...)
	if err != nil {
		return nil, err
	}
	src.size = len(content)
	return src, nil
}

// NewSourceFromNatives builds a source over pre-split native payloads.
// All natives must be the same length m; Size reports k×m, so if the
// caller's own split zero-padded the tail, the padding counts as content —
// see Size for the exact contract. The source keeps the natives
// themselves, not copies, and recodes from them for as long as it is in
// use: treat them as read-only.
func NewSourceFromNatives(natives [][]byte, opts ...Option) (*Source, error) {
	if len(natives) == 0 {
		return nil, fmt.Errorf("%w: no natives", ErrContentSize)
	}
	m := len(natives[0])
	n, err := core.NewNode(CompileOptions(opts...).coreOptions(len(natives), m))
	if err != nil {
		return nil, err
	}
	if err := n.Seed(natives); err != nil {
		return nil, err
	}
	size := 0
	for _, nat := range natives {
		size += len(nat)
	}
	return &Source{
		Node: Node{n: n, k: len(natives), m: m},
		size: size,
	}, nil
}

// Packet emits the next encoded packet of the LT stream.
func (s *Source) Packet() *Packet {
	p, ok := s.n.Recode()
	if !ok {
		// Unreachable: a seeded source always holds all k natives.
		panic("ltnc: source failed to encode")
	}
	return p
}

// Size returns the content length in bytes that sinks pass to Node.Bytes
// to reassemble this source's content:
//
//   - for NewSource it is len(content), the original length before the
//     zero padding Split added, so Bytes(src.Size()) strips the padding
//     and returns the content byte-for-byte;
//   - for NewSourceFromNatives it is the total native bytes k×m. The
//     library cannot know whether the caller's own split padded the last
//     native, so Bytes(src.Size()) returns the exact concatenation of the
//     natives, padding included. Callers that padded must carry the true
//     content length out of band and pass that to Bytes instead.
func (s *Source) Size() int { return s.size }

// RobustSoliton returns the Robust Soliton degree distribution for code
// length k with the library defaults — the distribution of Figure 2 —
// exposing PMF, CDF, mean and sampling.
func RobustSoliton(k int) (*soliton.Soliton, error) {
	return soliton.NewDefaultRobust(k)
}
