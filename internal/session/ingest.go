package session

import (
	"context"
	"errors"

	"ltnc/internal/cache"
	"ltnc/internal/lt"
	"ltnc/internal/packet"
	"ltnc/internal/transport"
)

// The ingest plane: the receive loop validates DATA frames and shards
// them by content ID onto the decode workers; a worker resolves a batch's
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
	batch := make([]inFrame, 0, s.cfg.IngestBatch)
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
// IngestBatch, the queue running dry behind the last.
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
		n := min(len(batch), s.cfg.IngestBatch)
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

// ingestBatch decodes one drained batch: object states are resolved under
// a single session-lock acquisition, then frames are fed to the decoders
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
	replies := scratch.replies[:0]
	notify := scratch.notify[:0]
	forwards := scratch.forwards[:0]
	defer func() {
		clear(states) // do not retain object states across batches
		clear(replies)
		scratch.replies = replies[:0]
		clear(notify)
		scratch.notify = notify[:0]
		clear(forwards)
		scratch.forwards = forwards[:0]
	}()
	s.mu.Lock()
	for i := range batch {
		states[i] = s.resolveStateLocked(batch[i].wv, batch[i].f.From)
	}
	s.mu.Unlock()

	var acts pollActions
	var cur *objectState
	for i := range batch {
		st := states[i]
		if st == nil {
			batch[i].f.Release()
			continue
		}
		if st != cur {
			if cur != nil {
				cur.mu.Unlock()
			}
			cur = st
			cur.mu.Lock()
		}
		var fb []byte
		var progressed bool
		if st.cached {
			var forward bool
			fb, progressed, forward = s.ingestCachedLocked(st, &batch[i])
			fb = st.receiptLocked(&batch[i], fb, progressed || forward)
			if forward {
				forwards = append(forwards, ingestForward{
					st, batch[i].f.From, append([]byte(nil), batch[i].f.Data...),
				})
			}
		} else {
			fb, progressed = s.decodeDataLocked(st, &batch[i], &acts)
			fb = st.receiptLocked(&batch[i], fb, progressed)
		}
		if fb != nil {
			replies = append(replies, ingestReply{batch[i].f.From, fb})
		}
		if progressed && (len(notify) == 0 || notify[len(notify)-1] != st) {
			notify = append(notify, st)
		}
		batch[i].f.Release()
	}
	if cur != nil {
		cur.mu.Unlock()
	}
	if len(notify) > 0 {
		// Progress is worth a push round now: a relay forwards a native in
		// the wake-up that decoded it. With nobody to push to, the round
		// plans nothing and costs nothing measurable.
		s.wake()
	}
	if drained {
		replies = flushReceipts(batch, states, replies)
	}
	s.applyPollActions(&acts)
	for _, r := range replies {
		s.tr.Send(r.addr, r.frame)
	}
	for _, fw := range forwards {
		s.mu.Lock()
		addrs, _ := s.targetsLocked(fw.st, s.clk.Now())
		s.mu.Unlock()
		sent := 0
		for _, a := range addrs {
			if a == fw.from {
				continue
			}
			if s.tr.Send(a, fw.frame) == nil {
				sent++
			}
		}
		if sent == 0 {
			// Nobody downstream wanted it either: throttle the sender the
			// way a redundant abort would.
			s.tr.Send(fw.from, feedbackFrame(fw.st.id, fbRedundant))
		}
	}
	for _, st := range notify {
		s.notifyWatchers(st)
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

// resolveStateLocked maps a DATA frame to its object state, learning the
// object when relay policy allows; s.mu must be held. nil means drop. A
// v3 header carries everything needed to size the full generation array —
// G and the per-generation code length — so relays learn generation-coded
// objects from the data stream alone.
func (s *Session) resolveStateLocked(wv packet.WireView, from transport.Addr) *objectState {
	if _, b := s.banned[from]; b {
		// A convicted polluter's rows are dropped before they can reach any
		// decoder — or launder themselves into the cache's admission path.
		return nil
	}
	st, ok := s.objects[wv.Object]
	if ok {
		return st
	}
	gens := genCount(wv.Generations)
	// Overflow-safe total-k bound: wv.K ≥ 1 is guaranteed by ParseWire,
	// and gens·wv.K could overflow int on 32-bit builds.
	if gens > s.cfg.MaxK/wv.K {
		return nil
	}
	if s.cache != nil {
		// Cache mode learns like a relay but allocates no decode state:
		// rows go to the budgeted cache, which enforces its own limits.
		if len(s.objects) >= s.cfg.MaxObjects {
			return nil
		}
		st = s.newCachedStateLocked(wv.Object, gens, wv.K, wv.M)
		s.logf("session: caching %v from %s (k=%d G=%d m=%d)", wv.Object, from, gens*wv.K, gens, wv.M)
		return st
	}
	if !s.mayLearnLocked(gens * wv.K) {
		return nil
	}
	st, err := s.newStateLocked(wv.Object, gens, wv.K, wv.M)
	if err != nil {
		return nil
	}
	s.logf("session: learned %v from %s (k=%d G=%d m=%d)", wv.Object, from, gens*wv.K, gens, wv.M)
	return st
}

// flushReceipts is the other half of receiptLocked: behind a drained
// queue no further frame is coming to carry the report for the rows a
// sender has unreported, and a sender whose window is smaller than
// receiptEvery is waiting on exactly that report to send the next. One
// kind-5 receipt per (object, sender) of the batch that is owed one.
func flushReceipts(batch []inFrame, states []*objectState, replies []ingestReply) []ingestReply {
	for i := range batch {
		st, from := states[i], batch[i].f.From
		if st == nil || (i > 0 && states[i-1] == st && batch[i-1].f.From == from) {
			continue
		}
		st.mu.Lock()
		if t := st.rx[from]; t != nil && t.since > 0 && !st.dead {
			replies = append(replies, ingestReply{from, receiptFrame(st.id, batch[i].wv.Generation, t.rows, t.inno)})
			t.since = 0
		}
		st.mu.Unlock()
	}
	return replies
}

// receiptLocked is the receiver half of the receipt clock (DESIGN.md
// §16), shared by the decode and cache-admission paths: every frame the
// decoder or the admission policy actually judged — innovative or
// aborted, but not geometry drops — bumps the per-upstream tally, and
// every receiptEvery such frames a kind-5 receipt report fills an
// otherwise-empty feedback slot. A frame that already produced feedback
// keeps it (completion and redundancy signals outrank receipts); the due
// receipt rides the next quiet frame, or leaves when the worker's queue
// drains (flushReceipts), so the cumulative counters lose nothing. st.mu
// must be held.
func (st *objectState) receiptLocked(in *inFrame, fb []byte, progressed bool) []byte {
	if st.dead || (!progressed && fb == nil) {
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
	t.since++
	if t.since >= receiptEvery && fb == nil {
		fb = receiptFrame(st.id, in.wv.Generation, t.rows, t.inno)
		t.since = 0
	}
	return fb
}

// decodeDataLocked is the decode hot path for one DATA frame; st.mu must
// be held. The generation geometry is validated against the object's
// coder, the code vector is checked next and a redundant payload is never
// copied or decoded (Section III-C-2); an innovative packet moves from
// the transport buffer into the owning generation's arena buffers with no
// allocation. Returns the feedback frame to send (nil for none) and
// whether the decode state advanced (an innovative packet was fed in),
// which drives watcher notifications. Pollution consequences (bans,
// re-arm REQs) accumulate in acts for the batch layer to apply once all
// locks are dropped.
func (s *Session) decodeDataLocked(st *objectState, in *inFrame, acts *pollActions) (fb []byte, progressed bool) {
	if st.dead {
		return nil, false // evicted between state resolution and locking: drop
	}
	if !s.ensureCoderLocked(st, genCount(in.wv.Generations), in.wv.K, in.wv.M) {
		return nil, false
	}
	if st.coder.Check(in.wv.Generations, in.wv.Generation, in.wv.K) != nil {
		return nil, false // inconsistent generation geometry: drop
	}
	st.touch(s.clk.Now())
	g := int(in.wv.Generation)
	if p := st.probeOf(g); p != "" && in.f.From != p {
		// Quarantined generation under probe isolation: only the probed
		// contributor's rows are admitted, so a failed refill convicts it
		// beyond doubt. Everyone else waits for their turn (or for the
		// probe to clear the generation).
		st.aborted++
		return nil, false
	}
	if s.auditFailsLocked(st, g, in) {
		// The row disagrees byte-exactly with a verified generation: the
		// sender forged it. (Honest senders stop pushing a generation when
		// its kind-3 feedback arrives; a polluter that keeps pushing into
		// verified territory convicts itself on the first frame.) Only a
		// solicited upstream is convicted; an unsolicited pusher may be
		// honestly relaying a poisoned buffer it cannot verify.
		st.aborted++
		if st.solicitedPeer(in.f.From) {
			acts.bans = append(acts.bans, in.f.From)
		}
		return nil, false
	}
	if st.coder.Complete() {
		st.aborted++
		if st.size.Load() < 0 {
			// Decode finished but the META never arrived (lost to the
			// fabric). fbComplete would stop the sender — including its
			// METAs — and wedge this state sizeless forever; ask for the
			// metadata instead. handleReq replies with a direct META.
			return encodeReq(st.id), false
		}
		return feedbackFrame(st.id, fbComplete), false
	}
	if st.coder.GenComplete(g) {
		// This generation is done here even though the object is not:
		// abort the payload and steer the sender's round-robin to the
		// generations still missing.
		st.aborted++
		return genFeedbackFrame(st.id, g), false
	}
	data := in.f.Data[1:]
	vec := st.coder.AcquireVec(g)
	if vec.UnmarshalInto(in.wv.VecBytes(data)) != nil {
		st.coder.ReleaseVec(g, vec)
		return nil, false
	}
	plain := -1 // the native this row carries in the clear, once it matched its digest
	if st.man != nil && vec.PopCount() == 1 && st.man.K() == st.k && st.man.M() == st.m {
		// A degree-1 row over GF(2) is a native payload in the clear, so a
		// held manifest makes it checkable on arrival. A digest mismatch is
		// byte-exact proof of forgery against this sender alone: instant
		// ban, no quarantine or probe round-trip. Dense forged rows still
		// get caught at generation completion; this closes the polluter's
		// cheapest move — spraying forged unit rows — before they poison a
		// decode. A match is the native's proof (objectState.proof): behind
		// a systematic upstream a relay hashes each native here, once, and
		// forwards it from the next push on.
		idx := g*st.kPer + vec.LowestSet()
		if pay := in.wv.PayloadBytes(data); idx < st.k && len(pay) == st.m {
			if st.man.Verify(idx, pay) != nil {
				st.coder.ReleaseVec(g, vec)
				st.aborted++
				if st.solicitedPeer(in.f.From) {
					acts.bans = append(acts.bans, in.f.From)
				}
				return nil, false
			}
			plain = idx
		}
	}
	// The code vector has been read; if it is redundant the payload is
	// never decoded and the sender is told so.
	if st.coder.IsRedundant(g, vec) {
		st.coder.ReleaseVec(g, vec)
		st.aborted++
		return feedbackFrame(st.id, fbRedundant), false
	}
	var payload []byte
	if in.wv.M > 0 {
		payload = st.coder.AcquireRow(g)
		copy(payload, in.wv.PayloadBytes(data))
	}
	_, genDone := st.coder.ReceiveOwned(g, vec, payload)
	st.received++
	st.noteContribLocked(g, in.f.From)
	if plain >= 0 {
		st.proof[plain] = proofGood // not redundant, so decoded as received
	}
	if genDone {
		if !s.verifyGenLocked(st, g, acts) {
			// Quarantined: no feedback — upstream must keep streaming this
			// generation — but the reset is visible progress (Polluted grew).
			return nil, true
		}
		if st.coder.Complete() {
			if !s.completeObjLocked(st, acts) {
				return nil, true // poisoned at assembly: re-fetch, not complete
			}
			if st.size.Load() < 0 {
				return encodeReq(st.id), true // complete but sizeless: fetch the META
			}
			return feedbackFrame(st.id, fbComplete), true
		}
		return genFeedbackFrame(st.id, g), true
	}
	return nil, true
}

// ingestCachedLocked is the cache-mode counterpart of decodeDataLocked:
// the row goes to the cache's admission policy instead of a decoder, and
// the resulting feedback mirrors what a real decoder would say — so the
// sender's existing satiation, steering and completion machinery offloads
// the origin with no new protocol state on its side. st.mu must be held
// and st.cached true. forward asks the batch layer to pass the frame
// through to the object's push targets (innovative row, no budget room).
func (s *Session) ingestCachedLocked(st *objectState, in *inFrame) (fb []byte, progressed, forward bool) {
	if st.dead {
		return nil, false, false
	}
	gens := int(st.gens.Load())
	if genCount(in.wv.Generations) != gens || in.wv.K != st.kPer || in.wv.M != st.m {
		return nil, false, false // inconsistent geometry: drop
	}
	now := s.clk.Now()
	st.touch(now)
	data := in.f.Data[1:]
	res := s.cache.Admit(st.id, uint32(gens), st.kPer, st.m, in.wv.Generation,
		in.wv.VecBytes(data), in.wv.PayloadBytes(data), now)
	switch res.Verdict {
	case cache.Stored:
		st.received++
		switch {
		case res.ObjFull:
			// The cache holds full rank for every generation: the paper's
			// completion feedback, even though nothing was decoded. The
			// origin stops pushing — the offload this tier exists for.
			return feedbackFrame(st.id, fbComplete), true, false
		case res.GenFull && gens >= 2:
			return genFeedbackFrame(st.id, int(in.wv.Generation)), true, false
		}
		return nil, true, false
	case cache.Redundant:
		st.aborted++
		switch {
		case res.ObjFull:
			return feedbackFrame(st.id, fbComplete), false, false
		case res.GenFull && gens >= 2:
			return genFeedbackFrame(st.id, int(in.wv.Generation)), false, false
		}
		return feedbackFrame(st.id, fbRedundant), false, false
	case cache.NoRoom:
		st.aborted++
		return nil, false, true
	}
	return nil, false, false // Mismatch: drop
}

// completeObjLocked assembles the content of a freshly completed object
// when its size is known; st.mu must be held. It reports whether the
// object is (still) cleanly complete: before anything is surfaced to
// waiters the assembled bytes must re-derive the object's content ID —
// the backstop that holds even without a manifest, so a Fetch can never
// return polluted bytes. A mismatch quarantines the poisoned generations
// into acts and returns false. Callers send the completion feedback only
// on true.
func (s *Session) completeObjLocked(st *objectState, acts *pollActions) bool {
	size := st.size.Load()
	if size < 0 || st.data != nil {
		return true
	}
	natives, err := st.coder.Data()
	if err != nil {
		return true
	}
	content, err := lt.Join(natives, int(size))
	if err != nil {
		return true
	}
	if packet.NewObjectID(content) != st.id {
		s.poisonedObjectLocked(st, acts)
		return false
	}
	s.logf("session: %v complete after %d packets (overhead %.3f)",
		st.id, st.received, float64(st.received)/float64(st.k))
	st.data = content
	close(st.done)
	return true
}
