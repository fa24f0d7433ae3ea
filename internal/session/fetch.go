package session

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"ltnc/internal/packet"
	"ltnc/internal/transport"
)

// The fetch plane: a fetch in progress (BeginFetch), its resent
// subscriptions — deadlines the push timer serves — and their steering.

// Fetching is one fetch in progress, as BeginFetch registered it. Its
// waiter pins the object's state against idle eviction until End.
type Fetching struct {
	s       *Session
	st      *objectState
	from    []transport.Addr
	dynamic bool // no explicit sources: candidates re-drawn from the membership view
	failed  chan struct{}
	// What follows belongs to whoever sends the subscriptions: BeginFetch
	// until the fetch is registered, reqSweep from then on.
	attempt  int
	interval time.Duration
	at       time.Time // the next subscription resend
	err      error     // set before failed is closed
}

// Fetch subscribes to object id, waits for the decode to complete and
// returns the content: BeginFetch, then a wait for its Result, ctx or
// the session's end. The content is shared, see Result.
func (s *Session) Fetch(ctx context.Context, id packet.ObjectID, from ...transport.Addr) ([]byte, ObjectStats, error) {
	f, err := s.BeginFetch(id, from...)
	if err != nil {
		return nil, ObjectStats{}, err
	}
	defer f.End()
	select {
	case <-f.st.done:
	case <-f.failed:
	case <-ctx.Done():
		return nil, s.stats(f.st), fmt.Errorf("session: fetch %v: %w", id, ctx.Err())
	case <-s.closed:
		return nil, s.stats(f.st), transport.ErrClosed
	}
	data, stats, err, _ := f.Result()
	return data, stats, err
}

// BeginFetch subscribes to object id and returns at once. The
// subscription goes to every address in from — or, when none is given, to
// every configured peer (AddPeer) plus, with the membership plane on, the
// evolving neighbor selection (each resend round re-draws candidates from
// the view, so a fetch started with an empty view succeeds once discovery
// catches up); with no candidates and no membership it fails with
// ErrNoPeers. It is resent (datagrams are lossy) until the transfer
// finishes or the fetch Ends: every reqResend once anything of the object
// has arrived, and before that — when it may be what was lost, and waiting
// reqResend would cost more than the whole transfer — after a few Ticks,
// doubling.
func (s *Session) BeginFetch(id packet.ObjectID, from ...transport.Addr) (*Fetching, error) {
	if id.IsZero() {
		return nil, errors.New("session: fetch of zero object id")
	}
	s.mu.Lock()
	f := &Fetching{s: s, dynamic: len(from) == 0 && s.member != nil, failed: make(chan struct{})}
	if len(from) == 0 {
		from = append([]transport.Addr(nil), s.peers...)
	}
	if len(from) == 0 && !f.dynamic {
		s.mu.Unlock()
		return nil, ErrNoPeers
	}
	st := s.admitLocked(id, "", geometry{}, true)
	// A waiter pins the state against idle eviction for exactly as long
	// as someone waits on it; abandoned fetches then age out normally.
	st.waiters++
	s.mu.Unlock()
	f.st, f.from = st, from
	var acts pollActions
	st.mu.Lock()
	// The candidate set: these peers always get a sender tag and are not
	// pushed back to while the fetch runs.
	st.soliciteLocked(from...)
	// An object this session holds as a partial cache gets a decoder first,
	// seeded with the cached rows; the fetch is for the rank still missing,
	// if any is.
	promoted := s.promoteLocked(st)
	s.settleLocked(st, -1, &acts)
	st.mu.Unlock()
	s.applyPollActions(&acts)
	if promoted {
		s.notifyWatchers(st)
	}
	f.interval = min(reqRetry*s.cfg.Tick, reqResend)
	f.at = s.clk.Now().Add(f.interval)
	f.subscribe()
	s.mu.Lock()
	s.fetches = append(s.fetches, f)
	s.mu.Unlock()
	s.wake() // a parked push timer must learn of the resend deadline
	return f, nil
}

// End unregisters the fetch: no more resends, and the object's state may
// age out again. Call it once, whether or not the fetch resolved.
func (f *Fetching) End() {
	s := f.s
	s.mu.Lock()
	f.st.waiters--
	s.fetches = slices.DeleteFunc(s.fetches, func(g *Fetching) bool { return g == f })
	s.mu.Unlock()
}

// resolved reports whether the fetch has an outcome.
func (f *Fetching) resolved() bool {
	select {
	case <-f.st.done:
	case <-f.failed:
	default:
		return false
	}
	return true
}

// Result reports the fetch's outcome, ok false while it has none yet: the
// content once the decode completed, or the error of a resend round that
// found nobody left to ask. The content is the session's own copy of the
// object — the buffer its natives decoded into, or what Serve was given —
// shared with every later fetch of it and served from while the session
// holds the object: read-only.
func (f *Fetching) Result() (data []byte, stats ObjectStats, err error, ok bool) {
	if !f.resolved() {
		return nil, ObjectStats{}, nil, false
	}
	select {
	case <-f.st.done:
		f.st.mu.Lock()
		data = f.st.data
		f.st.mu.Unlock()
	default:
		err = f.err
	}
	return data, f.s.stats(f.st), err, true
}

// subscribe sends each candidate peer not banned its subscription; the
// fetch fails only if no peer could be reached at all (a dead resolve on
// one address must not mask a live source on another) — or if pollution
// defense has banned every candidate, which fails fast with ErrPolluted.
// ErrUnknownPeer is tolerated, on the first send as on resends: a peer
// that has not attached (or resolved) yet may appear before the next
// retry, and failing would turn that startup race into a hard failure.
func (f *Fetching) subscribe() {
	s, st := f.s, f.st
	all := f.from
	if f.dynamic {
		all = s.fetchCandidates(st, f.from, f.attempt)
	}
	targets := s.notBanned(all)
	f.attempt++
	var err error
	if len(targets) == 0 {
		if f.dynamic && len(s.bannedSnapshot()) == 0 {
			// The view is simply still empty (fresh join, or every
			// neighbor aged out); discovery will refill it — keep
			// resending rather than failing.
			return
		}
		err = fmt.Errorf("session: fetch %v: %w", st.id, ErrPolluted)
	}
	sent := 0
	for _, addr := range targets {
		if e := s.tr.Send(addr, s.subscription(st, addr)); e == nil {
			sent++
		} else if err == nil {
			err = e
		}
	}
	if sent == 0 && err != nil && !errors.Is(err, transport.ErrUnknownPeer) {
		f.err = err
		close(f.failed)
	}
}

// reqSweep sends the subscription resends that are due and returns when
// the next one is — the zero time with no fetch waiting on one. It runs
// every timer round of the push plane, and before the timer parks.
func (s *Session) reqSweep() (next time.Time) {
	s.mu.Lock()
	fetches := slices.Clone(s.fetches)
	s.mu.Unlock()
	now := s.clk.Now()
	for _, f := range fetches {
		if f.resolved() {
			continue
		}
		if !now.Before(f.at) {
			f.resend(now)
		}
		if next.IsZero() || f.at.Before(next) {
			next = f.at
		}
	}
	return next
}

// resend is one subscription deadline coming due.
func (f *Fetching) resend(now time.Time) {
	if f.interval < reqResend {
		// Still on the short retry. A subscription that was answered needs no
		// repeat; one that was not gets it now, and the next later.
		f.st.mu.Lock()
		answered := f.st.size.Load() >= 0 || f.st.received+f.st.aborted > 0
		f.st.mu.Unlock()
		f.interval = min(2*f.interval, reqResend)
		if answered {
			f.interval = reqResend
			f.at = now.Add(f.interval)
			return
		}
	}
	f.at = now.Add(f.interval)
	f.subscribe()
}

// fetchCandidates assembles one resend round's candidate set for a
// dynamic fetch (no explicit sources, membership plane on): the static
// configured peers plus the current neighbor selection, with the
// bootstrap set folded in periodically (and whenever nothing else is
// known) so the origin stays reachable however the view drifts. Every
// candidate is solicited before it is subscribed to — a chosen upstream
// always gets a sender tag and is not pushed back to mid-fetch
// (objectState.solicited), peers discovered mid-fetch exactly like those
// known at the start.
func (s *Session) fetchCandidates(st *objectState, static []transport.Addr, attempt int) []transport.Addr {
	m := s.member
	out := append([]transport.Addr(nil), static...)
	for _, addr := range m.fetchTargets() {
		if !slices.Contains(out, addr) {
			out = append(out, addr)
		}
	}
	if attempt%4 == 0 || len(out) == 0 {
		for _, addr := range m.bootstrap {
			if !slices.Contains(out, addr) {
				out = append(out, addr)
			}
		}
	}
	st.mu.Lock()
	st.soliciteLocked(out...)
	st.mu.Unlock()
	return out
}

// notBanned picks the subscription targets for one resend round: the
// candidates not banned. An empty result therefore means every candidate
// has been convicted of pollution (ErrPolluted at the caller).
func (s *Session) notBanned(all []transport.Addr) []transport.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.banned) == 0 {
		return all
	}
	live := make([]transport.Addr, 0, len(all))
	for _, addr := range all {
		if _, b := s.banned[addr]; !b {
			live = append(live, addr)
		}
	}
	return live
}

// subscription is the report a fetch subscribes, and resends, with at
// to: the one it owes to about its lowest open generation.
func (s *Session) subscription(st *objectState, to transport.Addr) []byte {
	st.mu.Lock()
	defer st.mu.Unlock()
	g := 0
	for st.coder != nil && g < st.coder.Generations()-1 && st.coder.GenComplete(g) {
		g++
	}
	return st.reportLocked(to, uint32(g), s.owedLocked(st, g))
}
