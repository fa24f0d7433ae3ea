package session

import (
	crand "crypto/rand"
	"encoding/binary"
	"math/rand"
	"slices"
	"sync"

	"ltnc/internal/gossip"
	"ltnc/internal/packet"
	"ltnc/internal/transport"
	"ltnc/internal/xrand"
)

// Membership plane (DESIGN.md §14). A session configured with Bootstrap
// addresses runs a PEX-style peer sampling service over MEMBER frames:
// it keeps a bounded partial view of the swarm (gossip.View), shuffles a
// small sample of it with one peer per shuffle round, and draws its
// active neighbor sets from the view by capacity-weighted sampling. The
// neighbor sets — not the static peer list — then feed push targeting
// and Fetch subscription steering, so per-peer resident state and per-tick push
// work stay bounded by ViewSize and Fanout no matter how large the
// swarm grows.
//
// Liveness: view entries age once per shuffle round and expire after
// memberMaxAge rounds; hearing from a peer (any control frame) resets
// its age, and send failures demote it out of the view. Banned peers
// (pollution conviction, session.banPeers) are evicted immediately,
// excluded from every merge — so gossip cannot re-admit them — and
// never forwarded to neighbors.

// memberMaxAge is how many shuffle rounds a view entry survives without
// any sign of life (heard from, or gossiped about with a younger age).
const memberMaxAge = 8

// membership is the per-session state of the epidemic membership plane;
// nil on sessions without Bootstrap. The view has its own lock; mu
// guards the rest and is a leaf — never acquire Session.mu or an
// objectState.mu while holding it.
type membership struct {
	self      transport.Addr
	bootstrap []transport.Addr
	fanout    int
	capacity  uint8
	role      uint8
	view      *gossip.View[transport.Addr]

	mu  sync.Mutex
	rng *rand.Rand
	// round counts shuffle rounds run; reqNbrs and pushNbrs are the
	// neighbor selections refreshed each round: fetch steering draws from
	// any live entry, proactive pushes only target relay- or cache-role
	// peers (pushing at a plain fetcher that never asked wastes frames).
	// Both slices are replaced wholesale, never mutated — readers may
	// hold them without copying.
	round    int
	reqNbrs  []transport.Addr
	pushNbrs []transport.Addr
}

// newMembership builds the membership state for a session whose config
// (already defaulted) carries Bootstrap addresses. Deliberately seeded
// sessions derive the sampling streams from the session seed so
// simulations replay exactly; otherwise the streams are entropy-seeded
// like every other per-session randomness.
func newMembership(cfg *Config, self transport.Addr) *membership {
	var viewRng, rng *rand.Rand
	if cfg.HaveSeed {
		viewRng = xrand.NewChild(cfg.Seed, 0x3e1b01)
		rng = xrand.NewChild(cfg.Seed, 0x3e1b02)
	} else {
		var b [16]byte
		if _, err := crand.Read(b[:]); err != nil {
			panic("session: reading entropy: " + err.Error())
		}
		viewRng = rand.New(rand.NewSource(int64(binary.BigEndian.Uint64(b[:8]))))
		rng = rand.New(rand.NewSource(int64(binary.BigEndian.Uint64(b[8:]))))
	}
	capacity, role := memberProfile(cfg)
	m := &membership{
		self:     self,
		fanout:   memberFanout,
		capacity: capacity,
		role:     role,
		view:     gossip.NewView[transport.Addr](cfg.ViewSize, viewRng),
		rng:      rng,
	}
	for _, addr := range cfg.Bootstrap {
		if addr == "" || addr == self {
			continue
		}
		if !slices.Contains(m.bootstrap, addr) {
			m.bootstrap = append(m.bootstrap, addr)
		}
	}
	return m
}

// memberProfile derives the capacity hint and role bits a session
// advertises in MEMBER exchanges from its (already defaulted) config:
// relays and caches advertise the serving capacity their role implies and
// plain fetchers a token value.
func memberProfile(cfg *Config) (capacity, role uint8) {
	switch {
	case cfg.Relay:
		return 200, gossip.RoleRelay
	case cfg.CacheBudget > 0:
		return 160, gossip.RoleCache
	}
	return 16, 0
}

// phase picks this session's offset within the shuffle period, so a
// swarm started in lockstep (every simulated node at t=0) does not hit
// its bootstrap nodes in one synchronized burst each round.
func (m *membership) phase(every int) int {
	if every <= 1 {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rng.Intn(every)
}

// excluded reports whether addr must stay out of the view: self, or a
// peer in the banned snapshot. This is the never-re-admit guarantee —
// every merge goes through it, so a convicted peer cannot be gossiped
// back in.
func (m *membership) excluded(addr transport.Addr, banned map[transport.Addr]struct{}) bool {
	if addr == m.self || addr == "" {
		return true
	}
	_, b := banned[addr]
	return b
}

// refreshNeighbors redraws both neighbor sets from the view.
func (m *membership) refreshNeighbors(banned map[transport.Addr]struct{}) {
	req := m.view.Neighbors(m.fanout, nil)
	push := m.view.Neighbors(m.fanout, func(e gossip.ViewEntry[transport.Addr]) bool {
		return e.Role&(gossip.RoleRelay|gossip.RoleCache) != 0
	})
	toAddrs := func(entries []gossip.ViewEntry[transport.Addr]) []transport.Addr {
		out := make([]transport.Addr, 0, len(entries))
		for _, e := range entries {
			if !m.excluded(e.Addr, banned) {
				out = append(out, e.Addr)
			}
		}
		return out
	}
	reqNbrs, pushNbrs := toAddrs(req), toAddrs(push)
	m.mu.Lock()
	m.round++
	m.reqNbrs, m.pushNbrs = reqNbrs, pushNbrs
	m.mu.Unlock()
}

// pickBootstrap draws a random non-banned bootstrap address — the
// shuffle target of last resort when the view is empty (initial join,
// or every neighbor aged out during a partition).
func (m *membership) pickBootstrap(banned map[transport.Addr]struct{}) (transport.Addr, bool) {
	live := make([]transport.Addr, 0, len(m.bootstrap))
	for _, addr := range m.bootstrap {
		if !m.excluded(addr, banned) {
			live = append(live, addr)
		}
	}
	if len(live) == 0 {
		return "", false
	}
	m.mu.Lock()
	i := m.rng.Intn(len(live))
	m.mu.Unlock()
	return live[i], true
}

// exchangeFrame builds one MEMBER frame: this session's own entry (age
// zero — the freshest possible news about itself) plus a uniform sample
// of its view. Banned peers are filtered out, so conviction also stops
// their entries from spreading through us.
func (m *membership) exchangeFrame(flags byte, banned map[transport.Addr]struct{}) []byte {
	offer := m.view.Offer(m.fanout)
	entries := make([]packet.MemberEntry, 0, len(offer)+1)
	entries = append(entries, packet.MemberEntry{
		Addr: string(m.self), Capacity: m.capacity, Role: m.role,
	})
	for _, e := range offer {
		if m.excluded(e.Addr, banned) || len(e.Addr) > packet.MaxMemberAddr {
			continue
		}
		if len(entries) == packet.MaxMemberEntries {
			break
		}
		entries = append(entries, packet.MemberEntry{
			Addr:     string(e.Addr),
			Age:      uint16(min(e.Age, 65535)),
			Capacity: e.Capacity,
			Role:     e.Role,
		})
	}
	buf, err := packet.AppendMemberBody([]byte{packet.FrameMember}, flags, entries)
	if err != nil {
		return nil
	}
	return buf
}

// ban evicts convicted peers from the view and both neighbor sets;
// excluded() keeps them out of every future merge.
func (m *membership) ban(addrs []transport.Addr) {
	for _, addr := range addrs {
		m.view.Remove(addr)
	}
	gone := make(map[transport.Addr]struct{}, len(addrs))
	for _, addr := range addrs {
		gone[addr] = struct{}{}
	}
	without := func(s []transport.Addr) []transport.Addr {
		out := make([]transport.Addr, 0, len(s))
		for _, a := range s {
			if _, b := gone[a]; !b {
				out = append(out, a)
			}
		}
		return out
	}
	m.mu.Lock()
	m.reqNbrs = without(m.reqNbrs)
	m.pushNbrs = without(m.pushNbrs)
	m.mu.Unlock()
}

// pushTargets returns the relay/cache-role neighbor set (read-only).
func (m *membership) pushTargets() []transport.Addr {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.pushNbrs
}

// fetchTargets returns the fetch-steering neighbor set (read-only).
func (m *membership) fetchTargets() []transport.Addr {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.reqNbrs
}

// bannedSnapshot copies the conviction set for use outside s.mu.
func (s *Session) bannedSnapshot() map[transport.Addr]struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.banned) == 0 {
		return nil
	}
	out := make(map[transport.Addr]struct{}, len(s.banned))
	for addr := range s.banned {
		out[addr] = struct{}{}
	}
	return out
}

// memberShuffle runs one membership round on the tick loop: age the
// view (liveness expiry), refresh the neighbor selections, and exchange
// view samples with one peer — the stalest entry, so doubtful peers are
// probed first, or a bootstrap node while the view is empty. A failed
// send demotes the target (dead peers leave the view after a few
// failures, well before age expiry would catch them).
func (s *Session) memberShuffle() {
	m := s.member
	banned := s.bannedSnapshot()
	m.view.Tick(memberMaxAge)
	m.refreshNeighbors(banned)
	target, ok := m.view.ShuffleTarget()
	if !ok {
		if target, ok = m.pickBootstrap(banned); !ok {
			return
		}
	}
	frame := m.exchangeFrame(0, banned)
	if frame == nil {
		return
	}
	if err := s.tr.Send(target, frame); err != nil {
		if m.view.Demote(target) {
			s.logf("session: membership dropped %s: send failed (%v)", target, err)
		}
	}
}

// handleMember merges one partial-view exchange and, for a shuffle
// offer (not a reply), returns the answering exchange so the shuffle is
// bidirectional; replies are never answered, so two nodes cannot ping-
// pong. Exchanges from banned peers are dropped whole: a convicted
// polluter can neither advertise itself nor launder other addresses in.
func (s *Session) handleMember(from transport.Addr, data []byte) (reply []byte) {
	m := s.member
	flags, wire, err := packet.ParseMemberBody(data)
	if err != nil {
		return nil
	}
	if m == nil {
		return s.memberSelfAdvert(from, flags)
	}
	if from == m.self {
		return nil
	}
	s.mu.Lock()
	if _, b := s.banned[from]; b {
		s.mu.Unlock()
		return nil
	}
	var banned map[transport.Addr]struct{}
	if len(s.banned) > 0 {
		banned = make(map[transport.Addr]struct{}, len(s.banned))
		for addr := range s.banned {
			banned[addr] = struct{}{}
		}
	}
	s.mu.Unlock()

	// The sender itself is proven alive by this very frame; its own
	// entry in the offer (if any) contributes its role and capacity.
	sender := gossip.ViewEntry[transport.Addr]{Addr: from}
	entries := make([]gossip.ViewEntry[transport.Addr], 0, len(wire))
	for _, e := range wire {
		addr := transport.Addr(e.Addr)
		if addr == from {
			sender.Capacity, sender.Role = e.Capacity, e.Role
			continue
		}
		entries = append(entries, gossip.ViewEntry[transport.Addr]{
			Addr: addr, Age: int(e.Age), Capacity: e.Capacity, Role: e.Role,
		})
	}
	m.view.Merge(entries, func(p transport.Addr) bool { return m.excluded(p, banned) })
	m.view.Insert(sender)
	if flags&packet.MemberFlagReply != 0 {
		return nil
	}
	return m.exchangeFrame(packet.MemberFlagReply, banned)
}

// memberSelfAdvert answers a shuffle offer on a session that does not
// run the membership plane itself: a reply carrying only this session's
// own entry. That makes every reachable session a usable bootstrap
// target — joiners pointed at a plain source still learn it is alive
// and what role and capacity it has — without this session keeping any
// view state. Replies are never answered (the ping-pong guard), and
// convicted peers get nothing.
func (s *Session) memberSelfAdvert(from transport.Addr, flags byte) []byte {
	if flags&packet.MemberFlagReply != 0 {
		return nil
	}
	s.mu.Lock()
	_, banned := s.banned[from]
	s.mu.Unlock()
	if banned {
		return nil
	}
	capacity, role := memberProfile(&s.cfg)
	buf, err := packet.AppendMemberBody([]byte{packet.FrameMember}, packet.MemberFlagReply,
		[]packet.MemberEntry{{Addr: string(s.tr.LocalAddr()), Capacity: capacity, Role: role}})
	if err != nil {
		return nil
	}
	return buf
}

// memberAlive notes a sign of life from a peer: its view entry (if any)
// becomes fresh again. Wired to the control-frame path only — the DATA
// hot path must not take membership locks per frame.
func (s *Session) memberAlive(from transport.Addr) {
	if s.member != nil {
		s.member.view.Fresh(from)
	}
}

// MemberStats is a point-in-time snapshot of the membership plane.
type MemberStats struct {
	// Enabled reports whether the session runs the membership plane
	// (Config.Bootstrap non-empty); every other field is zero otherwise.
	Enabled bool
	// Rounds counts completed shuffle rounds.
	Rounds int
	// ViewLen and ViewCap are the partial view's occupancy and bound;
	// ViewLen ≤ ViewCap always — the bounded-state invariant.
	ViewLen, ViewCap int
	// View lists the addresses currently in the view.
	View []transport.Addr
	// Neighbors is the fetch-steering neighbor selection; PushNeighbors
	// the relay/cache-role subset proactive pushes target.
	Neighbors, PushNeighbors []transport.Addr
}

// MemberStats snapshots the membership plane.
func (s *Session) MemberStats() MemberStats {
	m := s.member
	if m == nil {
		return MemberStats{}
	}
	ms := MemberStats{
		Enabled: true,
		ViewLen: m.view.Len(),
		ViewCap: m.view.Cap(),
		View:    m.view.Addrs(),
	}
	m.mu.Lock()
	ms.Rounds = m.round
	ms.Neighbors = append([]transport.Addr(nil), m.reqNbrs...)
	ms.PushNeighbors = append([]transport.Addr(nil), m.pushNbrs...)
	m.mu.Unlock()
	return ms
}

// Neighbors returns the membership plane's current neighbor selection —
// the peers fetch subscriptions and pushes flow toward in place of a static
// peer list. Empty on sessions without Bootstrap.
func (s *Session) Neighbors() []transport.Addr {
	m := s.member
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]transport.Addr(nil), m.reqNbrs...)
}
