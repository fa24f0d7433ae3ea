package simnet

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"time"

	"ltnc/internal/cache"
	"ltnc/internal/packet"
	"ltnc/internal/session"
	"ltnc/internal/transport"
	"ltnc/internal/xrand"
)

// The scenario engine: resolve (everything random about the setup, from
// one RNG in a fixed order) → populate (sessions and actors on the
// fabric, the timeline on its event heap) → loop (Net.Run until every
// fetch has resolved or the virtual deadline passes) → report. All of it
// on the caller's goroutine.

type objGeom struct {
	kPer, gens, m int
	wireSize      int    // exact expected DATA frame size on the wire
	natives       []byte // the content zero-padded to gens·kPer·m bytes: native x at x·m
}

// simNode is one session on the fabric and the fetches it has running.
type simNode struct {
	name    string
	sess    *session.Session
	crashed bool
	fetches []*simFetch
}

// simFetch is one (node, object) fetch in progress, with its monotonicity
// watcher.
type simFetch struct {
	id      packet.ObjectID
	f       *session.Fetching
	unwatch func()
}

// population is the scenario's cast, by role. Names double as fabric
// addresses.
type population struct {
	srcs, relays, caches, fetchers, polluters, liars []string
}

// runner holds one scenario execution.
type runner struct {
	sc  Scenario
	net *Net

	contents map[packet.ObjectID][]byte
	geom     map[packet.ObjectID]objGeom
	ids      []packet.ObjectID

	// What resolve settles before anything is attached: the cast, who each
	// fetcher (initial or joining) subscribes at, and the timeline.
	setup        *rand.Rand
	pop          population
	peers        map[string][]string
	timeline     []Event
	timelineHash string
	// srcSet marks source addresses and pollSet polluter addresses, for
	// the fabric tap's counters; bootAddrs is the membership-mode
	// bootstrap set every session is configured with.
	srcSet, pollSet map[transport.Addr]bool
	bootAddrs       []transport.Addr

	nodes       map[string]*simNode
	started     int // sessions started so far: the next one's seed index
	outstanding int // fetches running
	pendingJoin int // joins the timeline still holds
	expired     bool
	results     []FetchResult
	violations  []string

	// viewConvergedAt is the first sampled virtual time the whole live
	// population's views had reached the convergence target.
	viewConvergedAt time.Duration
	maxHeader       int
	originData      int64
	dataFrames      int64
	forgedData      int64
	feedbackFrames  int64
	// flows counts the DATA frames each (sender, receiver, object) has
	// carried, polluters' aside — in all, maxFlow the most of any, and in
	// the tick in progress: the pacer's tick index is the clock divided by
	// Tick, which the tap can read as well as the session.
	flows   map[flowKey]flowCount
	maxFlow int64
	// rowBuf is the emit oracle's scratch row (trueRow).
	rowBuf []byte
}

func (r *runner) violatef(format string, args ...any) {
	if len(r.violations) < 64 { // enough to diagnose, bounded against floods
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
}

// Run executes the scenario and returns its report. The returned error
// covers setup problems only; protocol misbehavior lands in
// Report.Violations so the caller sees the full picture. Cancelling ctx
// ends the run as the virtual deadline would.
func (sc Scenario) Run(ctx context.Context) (*Report, error) {
	if err := sc.setDefaults(); err != nil {
		return nil, err
	}
	wallStart := time.Now()
	r := &runner{
		sc:       sc,
		contents: make(map[packet.ObjectID][]byte),
		geom:     make(map[packet.ObjectID]objGeom),
		peers:    make(map[string][]string),
		nodes:    make(map[string]*simNode),
		// Everything random about the setup — content bytes, fetcher
		// wiring, churn victims — comes from this one RNG, consumed in a
		// fixed order before anything moves.
		setup: rand.New(rand.NewSource(xrand.DeriveSeed(sc.Seed, 0x5ce))),
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
	r.resolve()
	if err := r.populate(); err != nil {
		return nil, err
	}
	if err := net.Run(ctx, r.done); err != nil {
		r.violatef("%v with %d fetches outstanding", err, r.outstanding)
	}
	rep := r.report()
	rep.WallElapsed = time.Since(wallStart)
	return rep, nil
}

// done is the loop's exit: every fetch resolved, no join still to come
// and the view-convergence bound settled one way or the other — or the
// virtual deadline passed.
func (r *runner) done() bool {
	converging := r.sc.ViewConvergeBy > 0 && r.viewConvergedAt == 0 && r.net.Elapsed() < r.sc.ViewConvergeBy
	return r.expired || (r.outstanding == 0 && r.pendingJoin == 0 && !converging)
}

// resolve draws the content and names the cast, then settles the wiring
// and the timeline.
func (r *runner) resolve() {
	sc := &r.sc
	for _, spec := range sc.Objects {
		content := make([]byte, spec.Size)
		r.setup.Read(content)
		id, err := session.ObjectID(content, spec.K, max(spec.Generations, 1))
		if err != nil {
			r.violatef("object %d: %v", len(r.ids), err)
		}
		r.contents[id] = content
		r.ids = append(r.ids, id)
	}
	names := func(prefix string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("%s%d", prefix, i)
		}
		return out
	}
	r.pop = population{
		srcs: names("s", sc.Sources), relays: names("r", sc.Relays), caches: names("c", sc.Caches),
		fetchers: names("f", sc.Fetchers), polluters: names("p", sc.Polluters), liars: names("l", sc.Liars),
	}
	set := func(names []string) map[transport.Addr]bool {
		m := make(map[transport.Addr]bool, len(names))
		for _, name := range names {
			m[transport.Addr(name)] = true
		}
		return m
	}
	r.srcSet, r.pollSet = set(r.pop.srcs), set(r.pop.polluters)
	for _, name := range slices.Concat(r.pop.srcs, r.pop.relays)[:sc.Bootstrap] {
		r.bootAddrs = append(r.bootAddrs, transport.Addr(name))
	}
	for _, name := range r.pop.fetchers {
		r.peers[name] = r.pickPeers(name)
	}
	r.resolveTimeline()
}

// fetcherTargets is where the wiring lets fetchers subscribe.
func (r *runner) fetcherTargets() []string {
	switch {
	case r.sc.Caches > 0:
		// Cache tier: fetchers never touch the origin directly — the
		// whole point is that the caches absorb the flash crowd.
		return r.pop.caches
	case r.sc.Wiring == WiringLine:
		if r.sc.Relays > 0 {
			return r.pop.relays[r.sc.Relays-1:]
		}
		return r.pop.srcs
	case r.sc.Wiring == WiringMesh:
		return r.pop.fetchers
	default:
		return r.pop.relays
	}
}

// pickPeers draws one fetcher's subscription set (consuming the setup RNG).
func (r *runner) pickPeers(exclude string) []string {
	sc := &r.sc
	if sc.Bootstrap > 0 {
		// Membership mode: nobody is statically wired — every session
		// (initial population and churn joiners alike) finds the swarm
		// through the bootstrap nodes and its PEX view.
		return nil
	}
	pool := slices.DeleteFunc(slices.Clone(r.fetcherTargets()), func(t string) bool { return t == exclude })
	k := min(sc.PeersPerFetcher, len(pool))
	out := make([]string, 0, k)
	for _, j := range xrand.SampleDistinct(r.setup, len(pool), k) {
		out = append(out, pool[j])
	}
	if sc.Wiring == WiringMesh {
		// Mesh peers churn away for good (a rejoiner is a new address),
		// and the protocol has no peer discovery: a fetcher whose whole
		// peer set dies would be stranded by wiring, not by any protocol
		// property. Keep the origin in every mesh peer set — the
		// "tracker/origin stays reachable" assumption — so fetches are
		// always completable and a failure means a real protocol bug.
		out = append(out, r.pop.srcs...)
	}
	// Every fetcher subscribes at every polluter on top of its honest
	// picks: the adversarial scenarios must expose each fetch to the
	// forged stream, or conviction would hinge on sampling luck.
	out = append(out, r.pop.polluters...)
	sort.Strings(out)
	return out
}

// resolveTimeline merges the explicit events with the generated churn. A
// user-declared EvJoin names a node the wiring never saw; its peers are
// resolved here (from the same RNG) so the joiner is fetchable — the
// protocol has no peer discovery, and an unwired joiner could never
// complete.
func (r *runner) resolveTimeline() {
	sc := &r.sc
	r.timeline = slices.Clone(sc.Timeline)
	for _, ev := range r.timeline {
		if ev.Kind == EvJoin && r.peers[ev.Node] == nil {
			r.peers[ev.Node] = r.pickPeers(ev.Node)
		}
	}
	if sc.Churn.Fraction > 0 {
		crashes := int(sc.Churn.Fraction*float64(sc.Fetchers) + 0.5)
		at := sc.Churn.Start
		for gen, vi := range xrand.SampleDistinct(r.setup, sc.Fetchers, min(crashes, sc.Fetchers)) {
			victim := r.pop.fetchers[vi]
			r.timeline = append(r.timeline, Event{At: at, Kind: EvCrash, Node: victim})
			if !sc.Churn.NoReplace {
				name := fmt.Sprintf("%s.%d", victim, gen+1)
				r.peers[name] = r.pickPeers(name)
				r.timeline = append(r.timeline, Event{At: at, Kind: EvJoin, Node: name})
			}
			at += sc.Churn.Interval
		}
	}
	sort.SliceStable(r.timeline, func(i, j int) bool { return r.timeline[i].At < r.timeline[j].At })
	r.timelineHash = hashTimeline(r.timeline, r.peers)
}

// populate attaches the whole cast at virtual time zero and puts the
// timeline on the fabric's event heap.
func (r *runner) populate() error {
	sc, pop := &r.sc, &r.pop
	for _, name := range pop.fetchers {
		r.applyUplinkFor(name)
	}
	if err := r.startSources(); err != nil {
		return err
	}
	// Polluter actors: attached once the sources have resolved every
	// object's geometry, which the forgeries must reproduce exactly.
	for _, name := range pop.polluters {
		if err := startPolluter(r.net, name, r.geom, r.bootAddrs); err != nil {
			return err
		}
	}
	// Liar actors: lying receivers that subscribe at every serving node
	// (sources and relays — the star's push side).
	servers := make([]transport.Addr, 0, sc.Sources+sc.Relays)
	for _, name := range slices.Concat(pop.srcs, pop.relays) {
		servers = append(servers, transport.Addr(name))
	}
	for i, name := range pop.liars {
		claims, every, geom := [][2]uint32{{0, 0}}, liarEvery, map[packet.ObjectID]objGeom(nil) // "I received nothing", forever
		if i%2 == 1 {
			claims, every, geom = liarClaims, liarFlood, r.geom // and a forged frontier behind every forged claim
		}
		if err := startLiar(r.net, name, claims, every, r.ids, geom, servers); err != nil {
			return err
		}
	}
	// The relay chain or star, then the cache tier: a chain c0 → c1 → …,
	// each node a budgeted partial cache that learns objects from its
	// upstream's pushes and serves them onward by recoding from cached
	// rows.
	for i, name := range pop.relays {
		var peers []string
		if sc.Wiring == WiringLine && i+1 < sc.Relays {
			peers = pop.relays[i+1 : i+2]
		}
		if _, err := r.startNode(name, true, 0, peers); err != nil {
			return err
		}
	}
	for i, name := range pop.caches {
		if _, err := r.startNode(name, false, sc.CacheBudget, pop.caches[i+1:min(i+2, sc.Caches)]); err != nil {
			return err
		}
	}
	for _, name := range pop.fetchers {
		if err := r.join(name); err != nil {
			return err
		}
	}
	r.schedule()
	return nil
}

// startSources starts the sources, which serve the objects round-robin,
// and learns the resulting geometry (the ground truth the header-bound
// invariant checks against).
func (r *runner) startSources() error {
	sc, pop := &r.sc, &r.pop
	for i, name := range pop.srcs {
		var peers []string
		switch {
		case sc.Bootstrap > 0:
			// Membership mode: sources discover relays and fellow swarm
			// members through their own views like everyone else.
		case sc.Caches > 0:
			// The origin pushes into the cache chain head only; each cache
			// feeds the next, so the object crosses the origin's uplink
			// once regardless of the crowd size.
			peers = pop.caches[:1]
		case sc.Wiring == WiringLine:
			peers = pop.relays[:min(1, sc.Relays)]
		case sc.Wiring == WiringMesh:
			peers = pop.fetchers[:min(3, sc.Fetchers)]
		default:
			peers = pop.relays
		}
		nd, err := r.startNode(name, false, 0, peers)
		if err != nil {
			return err
		}
		for oi, id := range r.ids {
			if oi%sc.Sources != i {
				continue
			}
			spec := sc.Objects[oi]
			if _, err := nd.sess.Serve(r.contents[id], spec.K, max(spec.Generations, 1)); err != nil {
				return fmt.Errorf("simnet: serve object %d: %w", oi, err)
			}
			st, ok := nd.sess.Object(id)
			if !ok {
				return fmt.Errorf("simnet: served object %d not found", oi)
			}
			wire := 1 + packet.ObjectWireSize(st.KPer, st.M)
			if st.Generations > 1 {
				wire = 1 + packet.GenWireSize(st.KPer, st.M)
			}
			natives := make([]byte, st.Generations*st.KPer*st.M)
			copy(natives, r.contents[id])
			r.geom[id] = objGeom{kPer: st.KPer, gens: st.Generations, m: st.M, wireSize: wire, natives: natives}
		}
	}
	return nil
}

// startNode attaches one session and hands its port to the fabric's
// stepper: Session.Step, then a look at the node's fetches.
func (r *runner) startNode(name string, relay bool, cacheBudget int64, peers []string) (*simNode, error) {
	sc := &r.sc
	port, err := r.net.Attach(transport.Addr(name))
	if err != nil {
		return nil, err
	}
	cfg := session.Config{
		Transport:   port,
		Tick:        sc.Tick,
		IdleTimeout: sc.IdleTimeout,
		Relay:       relay,
		CacheBudget: cacheBudget,
		Seed:        xrand.DeriveSeed(sc.Seed, 0x900d+r.started),
		HaveSeed:    true,
		Clock:       r.net.Clock(),
	}
	if sc.Bootstrap > 0 {
		cfg.Bootstrap = r.bootAddrs
		cfg.ViewSize = sc.ViewSize
		cfg.ShufflePeriod = sc.ShufflePeriod
	}
	r.started++
	sess, err := session.New(cfg)
	if err != nil {
		port.Close()
		return nil, err
	}
	for _, p := range peers {
		sess.AddPeer(transport.Addr(p))
	}
	nd := &simNode{name: name, sess: sess}
	port.Drive(func() time.Time {
		next := sess.Step()
		r.pollFetches(nd)
		return next
	})
	r.nodes[name] = nd
	return nd, nil
}

// join starts a fetcher (mesh fetchers double as relays) and one fetch
// per object on it, each with a monotonicity watcher.
func (r *runner) join(name string) error {
	nd, err := r.startNode(name, r.sc.Wiring == WiringMesh, 0, r.peers[name])
	if err != nil {
		return err
	}
	for _, id := range r.ids {
		mw := &monoWatch{r: r, node: name, obj: id.String()}
		unwatch := nd.sess.Watch(id, mw.observe)
		f, err := nd.sess.BeginFetch(id)
		if err != nil {
			unwatch()
			r.violatef("node %s object %s: fetch error: %v", name, id, err)
			r.results = append(r.results, FetchResult{Node: name, Object: id.String(), Err: err.Error()})
			continue
		}
		r.outstanding++
		nd.fetches = append(nd.fetches, &simFetch{id: id, f: f, unwatch: unwatch})
	}
	return nil
}

// pollFetches resolves the fetches of nd that have an outcome.
func (r *runner) pollFetches(nd *simNode) {
	nd.fetches = slices.DeleteFunc(nd.fetches, func(sf *simFetch) bool {
		data, stats, err, ok := sf.f.Result()
		if ok {
			r.resolveFetch(nd, sf, data, stats, err)
		}
		return ok
	})
}

// abandon resolves every fetch nd still has running with err: its node
// crashed, or the run is over.
func (r *runner) abandon(nd *simNode, err error) {
	for _, sf := range nd.fetches {
		st, _ := nd.sess.Object(sf.id)
		r.resolveFetch(nd, sf, nil, st, err)
	}
	nd.fetches = nil
}

// resolveFetch records one fetch's outcome and checks the per-fetch
// invariants.
func (r *runner) resolveFetch(nd *simNode, sf *simFetch, data []byte, stats session.ObjectStats, err error) {
	sf.unwatch()
	sf.f.End()
	r.outstanding--
	res := FetchResult{Node: nd.name, Object: sf.id.String(), Polluted: stats.Polluted}
	if err != nil {
		res.Crashed = nd.crashed
		res.Err = err.Error()
		if !res.Crashed && !r.expired {
			r.violatef("node %s object %s: fetch error: %v", nd.name, sf.id, err)
		}
		r.results = append(r.results, res)
		return
	}
	res.Completed = true
	res.Bytes = len(data)
	res.Overhead = stats.Overhead()
	res.CompletedAt = r.net.Elapsed()
	if len(r.pollSet) > 0 {
		for _, b := range nd.sess.BannedPeers() {
			res.Banned = append(res.Banned, string(b))
		}
	}
	if !bytes.Equal(data, r.contents[sf.id]) {
		r.violatef("node %s object %s: fetched bytes differ from served content", nd.name, sf.id)
	}
	if r.sc.MaxOverhead > 0 && res.Overhead > r.sc.MaxOverhead {
		r.violatef("node %s object %s: overhead %.3f over bound %.3f", nd.name, sf.id, res.Overhead, r.sc.MaxOverhead)
	}
	r.results = append(r.results, res)
}

// schedule puts the timeline on the fabric's event heap — events run at
// exact virtual offsets, in resolved order — with the virtual deadline
// behind it (whatever is unfinished then has failed) and, in membership
// mode, the view sampling: at virtual intervals, the bounded-view
// invariant on every live session and the first instant the whole live
// population's views reached the convergence target.
func (r *runner) schedule() {
	for _, ev := range r.timeline {
		if ev.Kind == EvJoin {
			r.pendingJoin++
		}
		r.net.After(ev.At, func() { r.applyEvent(ev) })
	}
	r.net.After(r.sc.Duration, func() { r.expired = true })
	if r.sc.Bootstrap > 0 {
		const viewSampleEvery = 250 * time.Millisecond
		var sample func()
		sample = func() {
			r.sampleViews()
			r.net.After(viewSampleEvery, sample)
		}
		r.net.After(viewSampleEvery, sample)
	}
}

// applyEvent executes one timeline event.
func (r *runner) applyEvent(ev Event) {
	switch ev.Kind {
	case EvCrash:
		nd := r.nodes[ev.Node]
		if nd == nil {
			return
		}
		delete(r.nodes, ev.Node)
		nd.crashed = true
		nd.sess.Close() // also closes the port: the node is gone mid-everything
		r.abandon(nd, transport.ErrClosed)
	case EvJoin:
		r.pendingJoin--
		r.applyUplinkFor(ev.Node)
		if err := r.join(ev.Node); err != nil {
			r.violatef("join %s: %v", ev.Node, err)
		}
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
func (r *runner) applyUplinkFor(name string) {
	if r.sc.Uplink == nil {
		return
	}
	for _, peer := range r.peers[name] {
		if err := r.net.SetLink(transport.Addr(name), transport.Addr(peer), *r.sc.Uplink); err != nil {
			r.violatef("uplink override %s→%s: %v", name, peer, err)
		}
	}
}

// liveNodes returns the sessions still up, in name order.
func (r *runner) liveNodes() []*simNode {
	nodes := make([]*simNode, 0, len(r.nodes))
	for _, nd := range r.nodes {
		nodes = append(nodes, nd)
	}
	slices.SortFunc(nodes, func(a, b *simNode) int { return cmp.Compare(a.name, b.name) })
	return nodes
}

// report tears the swarm down and accounts for the run.
func (r *runner) report() *Report {
	sc := &r.sc
	rep := &Report{
		Scenario:       sc.Name,
		Seed:           sc.Seed,
		Nodes:          sc.Sources + sc.Relays + sc.Caches + sc.Fetchers + sc.Polluters + sc.Liars,
		VirtualElapsed: r.net.Elapsed(),
		TimelineHash:   r.timelineHash,
	}
	nodes := r.liveNodes()
	r.expired = true // what is still running has failed, without a violation of its own
	for _, nd := range nodes {
		r.abandon(nd, fmt.Errorf("simnet: unfinished after %v", rep.VirtualElapsed))
	}
	if sc.Bootstrap > 0 {
		r.checkViews(nodes, rep)
	}
	for _, nd := range nodes {
		// Every proven forgery bans its sender, asked for or not; no
		// honest node sends one, so none is banned.
		for _, b := range nd.sess.BannedPeers() {
			if !r.pollSet[b] {
				r.violatef("node %s: banned %s, which is no polluter", nd.name, b)
			}
		}
		if cs, ok := nd.sess.CacheStats(); ok {
			if rep.CacheTiers == nil {
				rep.CacheTiers = make(map[string]cache.Stats)
			}
			rep.CacheTiers[nd.name] = cs
		}
		nd.sess.Close()
	}
	rep.Fetches = r.results
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
	rep.Violations = r.violations
	rep.MaxHeaderBytes = r.maxHeader
	rep.OriginDataFrames = r.originData
	rep.DataFrames = r.dataFrames
	rep.ForgedDataFrames = r.forgedData
	rep.FeedbackFrames = r.feedbackFrames
	rep.MaxFlowDataFrames = r.maxFlow
	rep.Net = r.net.Stats()
	if sc.Trace {
		rep.TraceHash = r.net.TraceHash()
	}
	return rep
}
