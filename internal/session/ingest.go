package session

import (
	"context"
	"errors"

	"ltnc/internal/bitvec"
	"ltnc/internal/cache"
	"ltnc/internal/packet"
	"ltnc/internal/transport"
)

// The ingest plane: the receive loop validates DATA frames and shards
// them by object ID onto the decode workers; a worker resolves a batch's
// object states under s.mu, then decodes (or cache-admits) under each
// object's st.mu. Replies and pollution consequences go out unlocked.

func (s *Session) recvLoop(ctx context.Context) error {
	// Consume whole batches per wakeup: the UDP fast path hands over a
	// recvmmsg vector at a time, the in-memory Switch drains its queue;
	// transports without batch support degrade to one frame per call.
	// Each frame is then dispatched exactly as a single Recv would be.
	batch := make([]transport.Frame, 64)
	for {
		select {
		case <-s.closed:
			return nil
		default:
		}
		n, err := transport.RecvBatch(ctx, s.tr, batch)
		if err != nil {
			if errors.Is(err, transport.ErrClosed) {
				return nil
			}
			return err
		}
		for i := 0; i < n; i++ {
			f := batch[i]
			batch[i] = transport.Frame{} // drop the reference; ownership moves below
			if in, ok := s.parseFrame(f); ok {
				s.dispatchData(in) // ownership moves to the decode worker
			}
		}
	}
}

// parseFrame is the receive path's first look at a frame, shared by both
// drivers: a control frame is handled inline and released, a DATA frame
// comes back with its wire layout validated (a malformed one is dropped),
// still owning its buffer.
func (s *Session) parseFrame(f transport.Frame) (in inFrame, data bool) {
	if len(f.Data) == 0 || f.Data[0] != frameData {
		s.handleFrame(f)
		f.Release()
		return inFrame{}, false
	}
	wv, err := packet.ParseWire(f.Data[1:])
	if err != nil || wv.Object.IsZero() {
		f.Release()
		return inFrame{}, false
	}
	return inFrame{f: f, wv: wv}, true
}

// dispatchData hands a DATA frame to the decode worker owning its content
// ID. Frames of one object always map to the same shard, so per-object
// arrival order is preserved; a full shard queue drops the frame as an
// overloaded datagram receiver would.
func (s *Session) dispatchData(in inFrame) {
	select {
	case s.shards[int(in.wv.Object[0])%len(s.shards)] <- in:
	default:
		s.ingestDropped.Add(1)
		in.f.Release()
	}
}

// ingestLoop is one decode worker: it drains its shard queue in batches
// and feeds them to the per-object decoders.
func (s *Session) ingestLoop(ctx context.Context, ch chan inFrame) {
	defer func() { // drop anything still queued at shutdown
		for {
			select {
			case in := <-ch:
				in.f.Release()
			default:
				return
			}
		}
	}()
	batch := make([]inFrame, 0, ingestBatchMax)
	var scratch ingestScratch
	for {
		select {
		case <-ctx.Done():
			return
		case <-s.closed:
			return
		case in := <-ch:
			batch = append(batch[:0], in)
		drain:
			for len(batch) < cap(batch) {
				select {
				case more := <-ch:
					batch = append(batch, more)
				default:
					break drain
				}
			}
			s.ingestBatch(batch, &scratch, len(ch) == 0)
		}
	}
}

// ingestReady is Step's receive loop and decode worker in one: every frame
// the transport has queued is taken, control frames handled as they come,
// and the DATA among them decoded in arrival order in batches of
// ingestBatchMax, the queue running dry behind the last.
func (s *Session) ingestReady(d *stepper) {
	p, ok := s.tr.(transport.Poller)
	if !ok {
		return
	}
	batch := d.batch[:0]
	for f, ok := p.Poll(); ok; f, ok = p.Poll() {
		if in, ok := s.parseFrame(f); ok {
			batch = append(batch, in)
		}
	}
	d.batch = batch
	for len(batch) > 0 {
		n := min(len(batch), ingestBatchMax)
		s.ingestBatch(batch[:n], &d.scratch, n == len(batch))
		batch = batch[n:]
	}
	clear(d.batch) // the frames are released; drop the references
}

// ingestScratch is a decode worker's reusable batch workspace, so the
// steady-state ingest loop does not allocate per wakeup.
type ingestScratch struct {
	states   []*objectState
	replies  []ingestReply
	notify   []*objectState
	forwards []ingestForward
}

type ingestReply struct {
	addr  transport.Addr
	frame []byte
}

// ingestForward is one DATA frame a budget-bound cache passes through to
// the object's push targets instead of storing: the row was innovative
// but the admission policy had no room, and downstream receivers can
// still use it (pass-through keeps fetchers progressing past partial
// budgets). The frame bytes are an owned copy.
type ingestForward struct {
	st    *objectState
	from  transport.Addr
	frame []byte
}

// ingestBatch decodes one drained batch: object states are resolved — and
// the objects a relay or cache may learn from a header admitted — under a
// single session-lock acquisition, then frames are fed to the decoders
// under per-object locks (held across runs of consecutive frames for the
// same object), and feedback replies go out after all locks are dropped.
// scratch is the calling worker's reusable workspace; drained says the
// worker's queue was empty behind this batch, so nothing else is coming to
// carry a receipt the batch left owing.
func (s *Session) ingestBatch(batch []inFrame, scratch *ingestScratch, drained bool) {
	if cap(scratch.states) < len(batch) {
		scratch.states = make([]*objectState, len(batch))
	}
	states := scratch.states[:len(batch)]
	scratch.replies, scratch.notify, scratch.forwards = scratch.replies[:0], scratch.notify[:0], scratch.forwards[:0]
	defer func() { // do not retain object states or frames across batches
		clear(states)
		clear(scratch.replies)
		clear(scratch.notify)
		clear(scratch.forwards)
	}()
	s.mu.Lock()
	for i := range batch {
		wv := &batch[i].wv
		states[i] = s.admitLocked(wv.Object, batch[i].f.From, geometry{genCount(wv.Generations), wv.K, wv.M}, false)
	}
	s.mu.Unlock()

	var acts pollActions
	var cur *objectState
	for i := range batch {
		if st := states[i]; st != nil {
			if st != cur {
				if cur != nil {
					cur.mu.Unlock()
				}
				cur = st
				cur.mu.Lock()
			}
			s.ingestOneLocked(st, &batch[i], scratch, &acts)
		}
		batch[i].f.Release()
	}
	if cur != nil {
		cur.mu.Unlock()
	}
	if len(scratch.notify) > 0 {
		// Progress is worth a push round now: a relay forwards a native in
		// the wake-up that decoded it. With nobody to push to, the round
		// plans nothing and costs nothing measurable.
		s.wake()
	}
	if drained {
		scratch.replies = flushReceipts(batch, states, scratch.replies)
	}
	s.applyPollActions(&acts)
	for _, r := range scratch.replies {
		s.tr.Send(r.addr, r.frame)
	}
	for _, fw := range scratch.forwards {
		s.passThrough(fw)
	}
	for _, st := range scratch.notify {
		s.notifyWatchers(st)
	}
}

// ingestOneLocked takes one DATA frame to where its object's phase says:
// the cache's admission policy, the decoder, or — announced still (the
// admission refused the geometry) or evicted between resolution and
// locking — nowhere. What the frame owes goes into scratch. st.mu must be
// held.
func (s *Session) ingestOneLocked(st *objectState, in *inFrame, scratch *ingestScratch, acts *pollActions) {
	var fb []byte
	var judged, progressed bool
	switch st.phase {
	case phCaching:
		var forward bool
		fb, judged, progressed, forward = s.ingestCachedLocked(st, in)
		fb = st.receiptLocked(in, fb, judged, progressed || forward)
		if forward {
			scratch.forwards = append(scratch.forwards, ingestForward{st, in.f.From, append([]byte(nil), in.f.Data...)})
		}
	case phFilling, phDecoded, phComplete:
		fb, judged, progressed = s.decodeDataLocked(st, in, acts)
		fb = st.receiptLocked(in, fb, judged, progressed)
	}
	if fb != nil {
		scratch.replies = append(scratch.replies, ingestReply{in.f.From, fb})
	}
	if n := len(scratch.notify); progressed && (n == 0 || scratch.notify[n-1] != st) {
		scratch.notify = append(scratch.notify, st)
	}
}

// passThrough sends on a row a budget-bound cache had no room for, its
// stamp cleared: it is the upstream's place on the upstream's link, and
// downstream it would advance the departure count of this node's own.
func (s *Session) passThrough(fw ingestForward) {
	packet.Restamp(fw.frame[1:], 0)
	s.mu.Lock()
	addrs := s.targetsLocked(fw.st)
	s.mu.Unlock()
	for _, a := range addrs {
		if a != fw.from {
			s.tr.Send(a, fw.frame)
		}
	}
}

// genCount normalizes a wire generation count: gen-absent v1/v2 headers
// (0) mean one generation.
func genCount(gens uint32) int {
	if gens == 0 {
		return 1
	}
	return int(gens)
}

// flushReceipts is the other half of receiptLocked: behind a drained
// queue no further frame is coming to carry the report for the rows a
// sender has unreported, and a sender whose window is smaller than
// receiptEvery is waiting on exactly that report to send the next — and
// its departure count is what proves the window's losses. One receipt per
// (object, sender) of the batch that is owed one.
func flushReceipts(batch []inFrame, states []*objectState, replies []ingestReply) []ingestReply {
	for i := range batch {
		st, from := states[i], batch[i].f.From
		if st == nil || (i > 0 && states[i-1] == st && batch[i-1].f.From == from) {
			continue
		}
		st.mu.Lock()
		if t := st.rx[from]; t != nil && t.since > 0 && st.phase != phEvicted {
			replies = append(replies, ingestReply{from, st.receiptFrameLocked(batch[i].wv.Generation, t)})
			t.since = 0
		}
		st.mu.Unlock()
	}
	return replies
}

// receiptLocked is the receiver half of the receipt clock (DESIGN.md
// §16), shared by the decode and cache-admission paths: every frame the
// decoder or the admission policy actually judged — innovative, redundant
// on its header, or for a generation or object already done, but not
// geometry drops, quarantine refusals or forgeries — bumps the
// per-upstream tally and advances its departure count by the frame's
// stamp; progressed, it counts as innovative too. Every receiptEvery such
// frames a receipt report fills an otherwise-empty feedback slot. The
// receipt is the only word a redundant row gets back: its upstream reads
// it as received and not innovative. A frame that already produced
// feedback keeps it (completion signals outrank receipts); the due receipt
// rides the next quiet frame, or leaves when the worker's queue drains
// (flushReceipts), so the cumulative counters lose nothing. st.mu must be
// held.
func (st *objectState) receiptLocked(in *inFrame, fb []byte, judged, progressed bool) []byte {
	if !judged {
		return fb
	}
	t, ok := st.rx[in.f.From]
	if !ok {
		if st.rx == nil {
			st.rx = make(map[transport.Addr]*rxTally)
		} else if len(st.rx) >= maxPeersPerObject {
			return fb
		}
		t = &rxTally{}
		st.rx[in.f.From] = t
	}
	t.rows++
	if progressed {
		t.inno++
	}
	t.depart(in.wv.Stamp)
	t.since++
	if t.since >= receiptEvery && fb == nil {
		fb = st.receiptFrameLocked(in.wv.Generation, t)
		t.since = 0
	}
	return fb
}

// receiptFrameLocked encodes the receipt for tally t, about generation gen
// (as the frame behind it stated it, unchecked): with gen's frontier while
// gen is filling here, the counters alone otherwise — a cache has no
// decoder to speak for, and a finished generation says so by kind 3 or 2.
// An upstream whose rows carry no stamps gets a departure count of 0, which
// proves nothing. st.mu must be held.
func (st *objectState) receiptFrameLocked(gen uint32, t *rxTally) []byte {
	kPer, decoded := 0, []int32(nil)
	if st.phase == phFilling && gen < uint32(st.coder.Generations()) && !st.coder.GenComplete(int(gen)) {
		kPer, decoded = st.kPer, st.coder.DecodeLog(int(gen))
	}
	return encodeReceipt(st.id, gen, t.rows, t.inno, t.departed, kPer, decoded)
}

// decodeDataLocked is the decode hot path for one DATA frame; st.mu must
// be held and the object have a coder. The generation geometry is validated
// against it, the code vector is checked next and a redundant payload is
// never copied or decoded (Section III-C-2); an innovative packet moves from
// the transport buffer into the owning generation's arena buffers with no
// allocation — a unit row whose digest has matched straight into its
// native's slot of the object buffer. Returns the feedback frame to send
// (nil for none), whether the frame was judged — innovative, redundant, or
// for a generation or object already done: what its upstream's receipts
// count — and whether the decode state advanced (an innovative packet was
// fed in), which drives watcher notifications. Pollution consequences
// (bans, re-arm REQs) accumulate in acts for the batch layer to apply once
// all locks are dropped.
func (s *Session) decodeDataLocked(st *objectState, in *inFrame, acts *pollActions) (fb []byte, judged, progressed bool) {
	if in.wv.M != st.m || st.coder.Check(in.wv.Generations, in.wv.Generation, in.wv.K) != nil {
		return nil, false, false // not the object's geometry: drop
	}
	st.touch(s.clk.Now())
	g := int(in.wv.Generation)
	if p := st.guard[g].probe; p != "" && in.f.From != p {
		// Quarantined generation under probe isolation: only the probed
		// contributor's rows are admitted, so a failed refill convicts it
		// beyond doubt. Everyone else waits for their turn (or for the
		// probe to clear the generation).
		st.aborted++
		return nil, false, false
	}
	if s.auditFailsLocked(st, g, in) {
		// The row disagrees byte-exactly with a verified generation: the
		// sender forged it. (Honest senders stop pushing a generation when
		// its kind-3 feedback arrives; a polluter that keeps pushing into
		// verified territory convicts itself on the first frame.)
		st.forgedRowLocked(in, acts)
		return nil, false, false
	}
	if st.phase != phFilling || st.coder.GenComplete(g) {
		// Done here, the object or this generation of it: abort the payload
		// and say which (a generation: the sender's round-robin turns to the
		// ones still missing).
		st.aborted++
		return s.owedLocked(st, g), true, false
	}
	data := in.f.Data[1:]
	vec := st.coder.AcquireVec(g)
	if vec.UnmarshalInto(in.wv.VecBytes(data)) != nil {
		st.coder.ReleaseVec(g, vec)
		return nil, false, false
	}
	plain, forged := st.unitRowLocked(g, vec, in.wv.PayloadBytes(data))
	if forged {
		st.coder.ReleaseVec(g, vec)
		st.forgedRowLocked(in, acts)
		return nil, false, false
	}
	// The code vector has been read; if it is redundant the payload is
	// never copied or decoded, and only the sender's receipts say so.
	if st.coder.IsRedundant(g, vec) {
		st.coder.ReleaseVec(g, vec)
		st.aborted++
		return nil, true, false
	}
	// A unit row checked against its digest goes straight into its slot
	// (either row is nil when m = 0).
	var payload []byte
	if plain >= 0 {
		payload = st.coder.RowFor(g, plain-g*st.kPer)
	} else {
		payload = st.coder.AcquireRow(g)
	}
	copy(payload, in.wv.PayloadBytes(data))
	_, genDone := st.coder.ReceiveOwned(g, vec, payload)
	st.received++
	st.noteContribLocked(g, in.f.From)
	if plain >= 0 {
		st.proof[plain] = proofGood // not redundant, so decoded as received
	}
	if genDone {
		// A quarantine answers nothing — upstream must keep streaming the
		// generation — but the reset is visible progress (Polluted grew).
		return s.settleLocked(st, g, acts), true, true
	}
	return nil, true, true
}

// unitRowLocked checks a degree-1 row on arrival. Over GF(2) it is a native
// payload in the clear, so a held manifest makes it checkable at once. A
// digest mismatch (forged) is byte-exact proof of forgery against this
// sender alone: instant ban, no quarantine or probe round-trip. Dense
// forged rows still get caught at generation completion; this closes the
// polluter's cheapest move — spraying forged unit rows — before they poison
// a decode. A match returns the native's index (−1: not a checkable row):
// only such a row is received into the native's slot of the object buffer,
// and its proof (objectState.proof) is kept once it has also decoded —
// behind a systematic upstream a relay hashes each native here, once, and
// forwards it from the next push on. st.mu must be held.
func (st *objectState) unitRowLocked(g int, vec *bitvec.Vector, pay []byte) (plain int, forged bool) {
	if st.man == nil || vec.PopCount() != 1 {
		return -1, false
	}
	idx := g*st.kPer + vec.LowestSet()
	if idx >= st.k || len(pay) != st.m {
		return -1, false
	}
	return idx, st.man.Verify(idx, pay) != nil
}

// forgedRowLocked drops a row proven forged byte for byte. Only a solicited
// upstream is convicted of it; an unsolicited pusher may be honestly
// relaying a poisoned buffer it cannot verify. st.mu must be held.
func (st *objectState) forgedRowLocked(in *inFrame, acts *pollActions) {
	st.aborted++
	if st.solicitedPeer(in.f.From) {
		acts.bans = append(acts.bans, in.f.From)
	}
}

// ingestCachedLocked is the cache-mode counterpart of decodeDataLocked:
// the row goes to the cache's admission policy instead of a decoder, and
// the resulting feedback mirrors what a real decoder would say — receipts,
// generation-complete, complete — so the sender's existing pacing, steering
// and completion machinery offloads the origin with no new protocol state
// on its side. st.mu must be held and the object be caching. forward asks
// the batch layer to pass the frame through to the object's push targets
// (innovative row, no budget room).
func (s *Session) ingestCachedLocked(st *objectState, in *inFrame) (fb []byte, judged, progressed, forward bool) {
	gens := int(st.gens.Load())
	if !st.shapeIs(geometry{genCount(in.wv.Generations), in.wv.K, in.wv.M}) {
		return nil, false, false, false // inconsistent geometry: drop
	}
	now := s.clk.Now()
	st.touch(now)
	data := in.f.Data[1:]
	res := s.cache.Admit(st.id, uint32(gens), st.kPer, st.m, in.wv.Generation,
		in.wv.VecBytes(data), in.wv.PayloadBytes(data), now)
	switch res.Verdict {
	case cache.Stored, cache.Redundant:
		stored := res.Verdict == cache.Stored
		if stored {
			st.received++
		} else {
			st.aborted++
		}
		switch {
		case res.ObjFull:
			// The cache holds full rank for every generation: the paper's
			// completion feedback, even though nothing was decoded. The
			// origin stops pushing — the offload this tier exists for.
			return feedbackFrame(st.id, fbComplete), true, stored, false
		case res.GenFull && gens >= 2:
			return genFeedbackFrame(st.id, int(in.wv.Generation)), true, stored, false
		}
		return nil, true, stored, false
	case cache.NoRoom:
		st.aborted++
		return nil, true, false, true
	}
	return nil, false, false, false // Mismatch: drop
}
