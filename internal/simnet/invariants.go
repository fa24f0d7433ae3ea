package simnet

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"ltnc/internal/adapt"
	"ltnc/internal/bitvec"
	"ltnc/internal/packet"
	"ltnc/internal/session"
	"ltnc/internal/transport"
)

// The invariants a run is checked against as it goes: the Watch contract
// (monoWatch), the header and pacing bounds and the emit oracle on every
// DATA frame crossing the fabric (inspect), and the membership views
// (sampleViews, checkViews).

// monoWatch asserts the Watch contract along a fetch: snapshots arrive in
// monotone order — decoded counts and completed generations never
// regress, Complete never un-completes, the geometry never mutates.
type monoWatch struct {
	r    *runner
	node string
	obj  string
	last session.ObjectStats
	seen bool
}

func (w *monoWatch) observe(o session.ObjectStats) {
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

type flowKey struct {
	from, to transport.Addr
	obj      packet.ObjectID
}

// flowCount is what the tap keeps per flow: the DATA frames it has carried
// in all, and n of them in tick.
type flowCount struct {
	total int64
	tick  int64
	n     int
}

// inspect is the fabric frame tap implementing the header-size invariant —
// every DATA frame must parse, match its object's published geometry, and
// be exactly the O(k/G) wire size the generation layer promises — and the
// emit oracle: every DATA frame a node but a polluter sends, from the first
// on, carries exactly the XOR of the true natives its code vector names.
// It counts the FEEDBACK frames too. The tap only reads frames.
func (r *runner) inspect(from, to transport.Addr, frame []byte) {
	if len(frame) > 0 && frame[0] == packet.FrameFeedback {
		r.feedbackFrames++
	}
	if len(frame) == 0 || frame[0] != packet.FrameData {
		return
	}
	r.dataFrames++
	if r.srcSet[from] {
		r.originData++
	}
	if r.pollSet[from] {
		r.forgedData++
	}
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
	switch gens := max(int(wv.Generations), 1); {
	case gens != g.gens:
		r.violatef("%s→%s: DATA generation count %d, want %d", from, to, gens, g.gens)
	case wv.K != g.kPer:
		r.violatef("%s→%s: DATA code length %d, want k/G = %d", from, to, wv.K, g.kPer)
	case wv.M != g.m:
		r.violatef("%s→%s: DATA payload size %d, want %d", from, to, wv.M, g.m)
	case len(frame) != g.wireSize:
		r.violatef("%s→%s: DATA frame %d bytes, want exactly %d", from, to, len(frame), g.wireSize)
	default:
		r.maxHeader = max(r.maxHeader, len(frame)-1-g.m)
		if !r.pollSet[from] && !r.trueRow(g, wv, frame[1:]) {
			r.violatef("%s→%s: DATA row of %v generation %d is not the XOR of the true natives it names", from, to, wv.Object, wv.Generation)
		}
	}
	if r.pollSet[from] {
		return
	}
	if r.flows == nil {
		r.flows = make(map[flowKey]flowCount)
	}
	key := flowKey{from, to, wv.Object}
	c := r.flows[key]
	if tick := r.net.Now().UnixNano() / int64(r.sc.Tick); tick != c.tick {
		c.tick, c.n = tick, 0
	}
	c.total, c.n = c.total+1, c.n+1
	r.flows[key] = c
	r.maxFlow = max(r.maxFlow, c.total)
	if c.n == adapt.TickCeiling+1 { // report each breached tick once
		r.violatef("%s→%s: more than %d DATA frames of %v in one tick", from, to, adapt.TickCeiling, wv.Object)
	}
}

// trueRow reports whether the DATA row wv views in data, of an object of
// geometry g, carries the XOR of the true natives its code vector names.
func (r *runner) trueRow(g objGeom, wv packet.WireView, data []byte) bool {
	if int(wv.Generation) >= g.gens {
		return false
	}
	if cap(r.rowBuf) < g.m {
		r.rowBuf = make([]byte, g.m)
	}
	want := r.rowBuf[:g.m]
	clear(want)
	base := int(wv.Generation) * g.kPer
	for j, b := range wv.VecBytes(data) {
		for ; b != 0; b &= b - 1 {
			i := 8*j + bits.TrailingZeros8(b)
			if i >= g.kPer {
				return false
			}
			bitvec.XorBytes(want, g.natives[(base+i)*g.m:][:g.m])
		}
	}
	return bytes.Equal(want, wv.PayloadBytes(data))
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
// session's view had reached the convergence target.
func (r *runner) sampleViews() {
	var stats []session.MemberStats
	for _, nd := range r.liveNodes() {
		ms := nd.sess.MemberStats()
		if !ms.Enabled {
			continue
		}
		if ms.ViewLen > ms.ViewCap {
			r.violatef("node %s: view %d over bound %d", nd.name, ms.ViewLen, ms.ViewCap)
		}
		stats = append(stats, ms)
	}
	if r.viewConvergedAt != 0 || len(stats) == 0 {
		return
	}
	for _, ms := range stats {
		if ms.ViewLen < viewTarget(ms.ViewCap, len(stats)) {
			return
		}
	}
	r.viewConvergedAt = r.net.Elapsed()
}

// checkViews is the membership end-state check, run against the survivors
// before their sessions stop: views within bound, convicted peers absent
// from every view and neighbor set (the never-re-admit guarantee), and the
// convergence deadline met. It fills the report's view summary.
func (r *runner) checkViews(nodes []*simNode, rep *Report) {
	r.sampleViews() // the final convergence sample when every fetch resolved early
	var sum, viewed int
	for _, nd := range nodes {
		ms := nd.sess.MemberStats()
		if !ms.Enabled {
			continue
		}
		rep.ViewBound = ms.ViewCap
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
		if viewed == 0 || ms.ViewLen < rep.ViewMin {
			rep.ViewMin = ms.ViewLen
		}
		rep.ViewMax = max(rep.ViewMax, ms.ViewLen)
		sum += ms.ViewLen
		viewed++
	}
	if viewed > 0 {
		rep.ViewMean = float64(sum) / float64(viewed)
	}
	rep.ViewConvergedAt = r.viewConvergedAt
	if by := r.sc.ViewConvergeBy; by > 0 && (r.viewConvergedAt == 0 || r.viewConvergedAt > by) {
		r.violatef("views not converged by %v (first full convergence sample: %v)", by, r.viewConvergedAt)
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
