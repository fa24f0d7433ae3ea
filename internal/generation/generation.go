// Package generation implements coding generations on top of LTNC — the
// classic network-coding optimization the paper points at ("traditional
// optimizations (e.g., generations [2], [13]) ... can be directly
// applied"): the content is split into G generations coded independently,
// which shrinks code vectors (wire headers), decode state and recoding
// scans from k to k/G at the price of a per-generation coupon-collector
// tail.
//
// This is the one generation implementation in the tree. The Coder is
// what the dissemination session stores per object: G LTNC nodes over one
// shared bitvec arena (every generation decodes k/G-bit vectors and m-byte
// rows, so the rows one generation frees carry the next) plus the routing,
// validation and round-robin recoding that tie them into one object. It
// exposes the same zero-copy hot-path surface as a single core.Node —
// acquire a vector from the arena, redundancy-check it, move the payload
// in — so the session's batched ingest works unchanged whether an object
// has one generation or hundreds, and Place gives each generation its
// slots of the caller's object buffer, where its natives then decode.
package generation

import (
	"fmt"

	"ltnc/internal/bitvec"
	"ltnc/internal/core"
	"ltnc/internal/lt"
	"ltnc/internal/opcount"
	"ltnc/internal/packet"
	"ltnc/internal/xrand"
)

// ErrBadGeneration re-exports the packet-layer sentinel: every routing or
// geometry failure in this package wraps it (and, transitively,
// packet.ErrBadPacket).
var ErrBadGeneration = packet.ErrBadGeneration

// Options configures a generation coder.
type Options struct {
	// Generations is G, the number of independent generations (≥ 1).
	Generations int
	// KPerGeneration is the code length of each generation; the object
	// holds Generations × KPerGeneration natives in contiguous blocks.
	KPerGeneration int
	// M is the native payload size (0 = control-plane only).
	M int
	// Seed and Stream select the coder's deterministic randomness:
	// generation g draws from the xrand child stream (Seed, Stream, g),
	// so sibling coders (per-object states of one session) and sibling
	// generations never share a random stream.
	Seed   int64
	Stream int
	// DisableRefinement and DisableRedundancyCheck turn off the paper's
	// Algorithm 2 and Algorithm 3 in every per-generation node.
	DisableRefinement      bool
	DisableRedundancyCheck bool
	// Counter, when set, receives cost accounting from every
	// per-generation node (experiments only).
	Counter *opcount.Counter
}

// Coder is an LTNC participant whose object is split into G independently
// coded generations. Packets carry their generation id (and, for G ≥ 2,
// the count) in the wire header; ingest routes on the id and Recode
// round-robins across generations, preferring incomplete ones. A Coder is
// not safe for concurrent use — the session guards it per object.
type Coder struct {
	gens     []*core.Node
	arena    *bitvec.Arena // shared by every generation node
	kPer     int
	m        int
	next     int     // round-robin cursor for Recode
	complete int     // generations fully decoded
	received int     // packets fed in, Seed included (aggressiveness gate)
	opts     Options // retained so ResetGen can rebuild a generation node
}

// New returns an empty generation coder.
func New(opts Options) (*Coder, error) {
	if opts.Generations < 1 {
		return nil, fmt.Errorf("%w: G = %d < 1", ErrBadGeneration, opts.Generations)
	}
	if opts.Generations > packet.MaxGenerations {
		return nil, fmt.Errorf("%w: G = %d over the wire bound %d",
			ErrBadGeneration, opts.Generations, packet.MaxGenerations)
	}
	if opts.KPerGeneration < 1 {
		return nil, fmt.Errorf("%w: k/G = %d < 1", ErrBadGeneration, opts.KPerGeneration)
	}
	c := &Coder{
		gens:  make([]*core.Node, opts.Generations),
		arena: bitvec.NewArena(opts.KPerGeneration, opts.M),
		kPer:  opts.KPerGeneration,
		m:     opts.M,
		opts:  opts,
	}
	for g := range c.gens {
		node, err := c.newNode(g)
		if err != nil {
			return nil, err
		}
		c.gens[g] = node
	}
	return c, nil
}

// newNode builds generation g's empty node over the coder's arena, drawing
// from the deterministic child stream (Seed, Stream, g).
func (c *Coder) newNode(g int) (*core.Node, error) {
	return core.NewNode(core.Options{
		K:                      c.kPer,
		M:                      c.m,
		DisableRefinement:      c.opts.DisableRefinement,
		DisableRedundancyCheck: c.opts.DisableRedundancyCheck,
		Counter:                c.opts.Counter,
		Rng:                    xrand.NewChild(xrand.DeriveSeed(c.opts.Seed, c.opts.Stream), g),
		Arena:                  c.arena,
	})
}

// Arena returns the decode arena every generation shares.
func (c *Coder) Arena() *bitvec.Arena { return c.arena }

// Generations returns G.
func (c *Coder) Generations() int { return len(c.gens) }

// KPer returns the per-generation code length k/G — the length of every
// code vector this coder emits or accepts.
func (c *Coder) KPer() int { return c.kPer }

// K returns the total number of natives across generations.
func (c *Coder) K() int { return len(c.gens) * c.kPer }

// M returns the native payload size.
func (c *Coder) M() int { return c.m }

// Check validates a wire header's generation geometry against the coder:
// the count gens (0 and 1 mean gen-absent), the generation id g, and the
// per-generation code length k. It returns nil exactly when a DATA frame
// with these fields may be routed into the coder.
func (c *Coder) Check(gens uint32, g uint32, k int) error {
	want := len(c.gens)
	have := int(gens)
	if have == 0 {
		have = 1 // gen-absent v1/v2 header
	}
	if have != want {
		return fmt.Errorf("%w: header G=%d, object has %d", ErrBadGeneration, have, want)
	}
	// Compare unsigned: int(g) can wrap negative on 32-bit builds and
	// slip past a signed bound into a negative slice index.
	if g >= uint32(want) {
		return fmt.Errorf("%w: generation %d of %d", ErrBadGeneration, g, want)
	}
	if k != c.kPer {
		return fmt.Errorf("%w: generation code length %d, want %d", ErrBadGeneration, k, c.kPer)
	}
	return nil
}

// Seed loads the full content, turning the coder into a source: natives
// must hold exactly K payloads, assigned to generations in contiguous
// blocks of KPer. The payloads are kept, not copied (core.Node.Seed).
func (c *Coder) Seed(natives [][]byte) error {
	if len(natives) != c.K() {
		return fmt.Errorf("generation: seed with %d natives, want %d", len(natives), c.K())
	}
	for g, node := range c.gens {
		if err := node.Seed(natives[g*c.kPer : (g+1)*c.kPer]); err != nil {
			return fmt.Errorf("generation %d: %w", g, err)
		}
		c.complete++
		c.received += c.kPer
	}
	return nil
}

// AcquireVec returns a code vector for generation g from the decode arena
// with unspecified contents — overwrite fully before use. Pass it to
// ReceiveOwned, or return it with ReleaseVec if the packet is aborted.
func (c *Coder) AcquireVec(g int) *bitvec.Vector { return c.gens[g].AcquireVec() }

// ReleaseVec returns an acquired vector of generation g without
// inserting it.
func (c *Coder) ReleaseVec(g int, v *bitvec.Vector) { c.gens[g].ReleaseVec(v) }

// AcquireRow returns an m-byte payload row for generation g from the
// decode arena (nil in control-plane-only coders). Overwrite all m bytes
// before use.
func (c *Coder) AcquireRow(g int) []byte { return c.gens[g].AcquireRow() }

// IsRedundant runs generation g's redundancy detector (Algorithm 3) on a
// code vector: true means the payload cannot bring new information and
// the transfer can be aborted on the header.
func (c *Coder) IsRedundant(g int, vec *bitvec.Vector) bool {
	return c.gens[g].IsRedundant(vec)
}

// GenComplete reports whether generation g is fully decoded.
func (c *Coder) GenComplete(g int) bool { return c.gens[g].Complete() }

// ReceiveOwned feeds one packet of generation g whose buffers were
// acquired from that generation's arena — the zero-copy receive path.
// genDone reports whether this packet completed the generation.
func (c *Coder) ReceiveOwned(g int, vec *bitvec.Vector, payload []byte) (res lt.InsertResult, genDone bool) {
	node := c.gens[g]
	was := node.Complete()
	c.received++
	res = node.ReceiveOwned(vec, payload)
	if !was && node.Complete() {
		c.completed(node)
		return res, true
	}
	return res, false
}

// completed counts a generation that has just finished decoding here and
// makes its node recode like the source it now is: what it sent from a
// partial store must not bias what it sends from the whole one (measured
// behind a 20 %-loss hop: a fetcher held at rank k−35 through 4,000
// redundant rows, every one steering around the natives the relay had
// sent early and the link had dropped).
func (c *Coder) completed(node *core.Node) {
	c.complete++
	node.ForgetSent()
}

// Receive routes a fully materialized packet to its generation after
// validating the geometry — the convenience (allocating) form of the
// arena path, for simulations and examples. innovative is false when the
// packet was discarded as redundant.
func (c *Coder) Receive(p *packet.Packet) (innovative bool, err error) {
	if err := c.Check(p.Generations, p.Generation, p.K()); err != nil {
		return false, err
	}
	g := int(p.Generation)
	node := c.gens[g]
	was := node.Complete()
	c.received++
	res := node.Receive(p)
	if !was && node.Complete() {
		c.completed(node)
	}
	return !res.Redundant, nil
}

// IsRedundantPacket runs the owning generation's redundancy detector on a
// whole packet; packets with inconsistent geometry are redundant by
// definition (they can never be decoded here).
func (c *Coder) IsRedundantPacket(p *packet.Packet) bool {
	if c.Check(p.Generations, p.Generation, p.K()) != nil {
		return true
	}
	return c.gens[int(p.Generation)].IsRedundant(p.Vec)
}

// Recode emits one fresh LT-shaped packet, round-robining across
// generations from a moving offset so recoding pressure spreads evenly.
// Incomplete generations are preferred — they are the ones whose
// redundancy streams still carry information for a typical peer — but a
// coder whose remaining generations cannot recode yet falls back to
// complete ones (a source's complete generations still serve peers).
// skip, when non-nil, excludes generations the caller knows the receiver
// has completed (the session's per-peer generation feedback); a packet is
// stamped with its generation id and the coder's count.
func (c *Coder) Recode(skip func(g int) bool) (*packet.Packet, bool) {
	n := len(c.gens)
	start := c.next
	c.next = (c.next + 1) % n
	// First pass: incomplete generations only. Second pass: any
	// generation the caller did not exclude.
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < n; i++ {
			g := (start + i) % n
			if skip != nil && skip(g) {
				continue
			}
			if pass == 0 && c.gens[g].Complete() && c.complete < n {
				continue
			}
			if z, ok := c.gens[g].Recode(); ok {
				c.stamp(z, g)
				return z, true
			}
		}
		if c.complete == n {
			break // pass 0 already tried every generation
		}
	}
	return nil, false
}

// DecodeLog returns generation g's natives, as indices within the
// generation, in the order they were decoded here: 0..KPer−1 for a seeded
// source, empty again after ResetGen(g). A read-only view (see
// core.Node.DecodeLog).
func (c *Coder) DecodeLog(g int) []int32 { return c.gens[g].DecodeLog() }

// GenStored returns how many coded rows generation g holds that belief
// propagation has not yet reduced to natives: what recoding from g can say
// that its decoded natives, sent plainly, cannot.
func (c *Coder) GenStored(g int) int { return c.gens[g].StoredCount() }

// NativeRow writes native row x (in global content order, 0 ≤ x < K) into
// z as a degree-1 packet stamped for its generation — the unit of the push
// path's systematic first pass: each native is emitted plainly once, and
// coded repair only covers what the link then loses. z's vector must be
// KPer bits long; every other field is overwritten, and the payload is
// copied into z's own (grown only if shorter than M), so the row stays
// valid across later decode activity — a Place, a quarantine ResetGen —
// and z can be reused from row to row. It reports false, z untouched,
// while the owning generation has not decoded that native.
func (c *Coder) NativeRow(z *packet.Packet, x int) bool {
	if x < 0 || x >= c.K() {
		return false
	}
	g, i := x/c.kPer, x%c.kPer
	node := c.gens[g]
	if !node.IsDecoded(i) {
		return false
	}
	z.Vec.Reset()
	z.Vec.Set(i)
	*z = packet.Packet{Vec: z.Vec, Payload: append(z.Payload[:0], node.NativeData(i)...)}
	c.stamp(z, g)
	return true
}

func (c *Coder) stamp(z *packet.Packet, g int) {
	z.Generation = uint32(g)
	if len(c.gens) >= 2 {
		z.Generations = uint32(len(c.gens))
	}
}

// Complete reports whether every generation is fully decoded.
func (c *Coder) Complete() bool { return c.complete == len(c.gens) }

// CompleteCount returns how many generations are fully decoded.
func (c *Coder) CompleteCount() int { return c.complete }

// Received returns the number of packets fed into the coder, counting a
// Seed as one packet per native — the quantity the session's
// aggressiveness gate (K·a + 1, as in the paper) compares against.
func (c *Coder) Received() int { return c.received }

// DecodedCount returns the total number of decoded natives.
func (c *Coder) DecodedCount() int {
	total := 0
	for _, node := range c.gens {
		total += node.DecodedCount()
	}
	return total
}

// AppendGenDecoded appends the per-generation decoded-native counts to
// dst and returns it — the progress vector Watch snapshots carry.
func (c *Coder) AppendGenDecoded(dst []int) []int {
	for _, node := range c.gens {
		dst = append(dst, node.DecodedCount())
	}
	return dst
}

// GenData returns generation g's kPer natives in order once that
// generation is complete — the unit the integrity layer verifies. The
// returned slices are live views, read-only: of arena rows, or once
// placed of the slots the natives decoded into. Take them again after
// Place(g); they are invalid after ResetGen(g).
func (c *Coder) GenData(g int) ([][]byte, error) {
	if g < 0 || g >= len(c.gens) {
		return nil, fmt.Errorf("%w: generation %d of %d", ErrBadGeneration, g, len(c.gens))
	}
	data, err := c.gens[g].Data()
	if err != nil {
		return nil, fmt.Errorf("generation %d: %w", g, err)
	}
	return data, nil
}

// Place makes dst, KPer slots of M bytes in order, generation g's native
// buffer (core.Node.Place): the natives g has decoded move in, handing the
// arena rows they leave to the generations still decoding, and each native
// g decodes from now on is written into its slot. A native already in its
// slot stays put. It reports false, with nothing placed, if dst is not
// KPer·M bytes. A generation ResetGen replaces must be placed again.
func (c *Coder) Place(g int, dst []byte) bool { return c.gens[g].Place(dst) }

// RowFor returns the row a degree-1 packet of generation g's native x
// (0 ≤ x < KPer) is to be received into: x's slot while g is placed and x
// undecoded, an arena row otherwise (lt.Decoder.RowFor). Fill it and pass
// it to ReceiveOwned at once, as the unit row of x.
func (c *Coder) RowFor(g, x int) []byte { return c.gens[g].RowFor(x) }

// ResetGen discards generation g's entire decode state and replaces it
// with a fresh empty node — the session's pollution quarantine: when a
// completed generation fails manifest verification there is no way to
// tell which rows were forged, so the generation is re-fetched from
// scratch, and DecodeLog(g) starts over empty. The new node draws from the
// same deterministic child stream as the old one; the received counter is
// NOT rolled back (the wasted packets are real reception overhead). The
// old node's rows are not recycled: they may be slots of a placed buffer.
// The new node is unplaced.
func (c *Coder) ResetGen(g int) error {
	if g < 0 || g >= len(c.gens) {
		return fmt.Errorf("%w: generation %d of %d", ErrBadGeneration, g, len(c.gens))
	}
	node, err := c.newNode(g)
	if err != nil {
		return err
	}
	if c.gens[g].Complete() {
		c.complete--
	}
	c.gens[g] = node
	return nil
}

// Data returns all natives in content order once every generation is
// complete.
func (c *Coder) Data() ([][]byte, error) {
	out := make([][]byte, 0, c.K())
	for g, node := range c.gens {
		data, err := node.Data()
		if err != nil {
			return nil, fmt.Errorf("generation %d: %w", g, err)
		}
		out = append(out, data...)
	}
	return out, nil
}
