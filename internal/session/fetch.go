package session

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"ltnc/internal/bitvec"
	"ltnc/internal/packet"
	"ltnc/internal/transport"
)

// The fetch plane: the blocking Fetch loop and its REQ steering.

// Fetch subscribes to object id, waits for the decode to complete and
// returns the content. The REQ goes to every address in from — or, when
// none is given, to every configured peer (AddPeer) plus, with the
// membership plane on, the evolving neighbor selection (each resend
// round re-draws candidates from the view, so a fetch started with an
// empty view succeeds once discovery catches up); with no candidates
// and no membership it fails with ErrNoPeers. REQs are resent (datagrams
// are lossy) until the transfer finishes or ctx expires: every reqResend
// once anything of the object has arrived, and before that — when the REQ
// itself may be what was lost, and waiting reqResend for it would cost
// more than the whole transfer — after a few Ticks, doubling.
func (s *Session) Fetch(ctx context.Context, id packet.ObjectID, from ...transport.Addr) ([]byte, ObjectStats, error) {
	if id.IsZero() {
		return nil, ObjectStats{}, errors.New("session: fetch of zero object id")
	}
	s.mu.Lock()
	dynamic := len(from) == 0 && s.member != nil
	if len(from) == 0 {
		from = append([]transport.Addr(nil), s.peers...)
	}
	if len(from) == 0 && !dynamic {
		s.mu.Unlock()
		return nil, ObjectStats{}, ErrNoPeers
	}
	st, ok := s.objects[id]
	if !ok {
		st = s.placeholderLocked(id)
	}
	// A waiter pins the state against idle eviction for exactly as long
	// as someone blocks on it; abandoned fetches then age out normally.
	st.waiters++
	done := st.done
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		st.waiters--
		s.mu.Unlock()
	}()
	// The candidate set is this fetch's trust decision: these peers (and
	// only these) can be convicted if their rows fail verification.
	st.mu.Lock()
	st.soliciteLocked(from...)
	st.mu.Unlock()
	if s.cache != nil {
		// Fetching an object this session holds as a partial cache
		// promotes the cached rows into a real decoder first — every one
		// innovative by construction — then proceeds as a normal fetch
		// for the rank still missing.
		s.promoteCached(st)
	}

	req := encodeReq(id)
	// One REQ per candidate peer, steered toward peers advertising
	// cached coverage once advertisements arrive; the fetch fails only
	// if no peer could be reached at all (a dead resolve on one address
	// must not mask a live source on another) — or if pollution defense
	// has banned every candidate, which fails fast with ErrPolluted.
	attempt := 0
	sendAll := func() error {
		all := from
		if dynamic {
			all = s.fetchCandidates(st, from, attempt)
		}
		targets := s.steerTargets(st, all, attempt)
		attempt++
		if len(targets) == 0 {
			if dynamic && len(s.bannedSnapshot()) == 0 {
				// The view is simply still empty (fresh join, or every
				// neighbor aged out); discovery will refill it — keep
				// resending rather than failing.
				return nil
			}
			return fmt.Errorf("session: fetch %v: %w", id, ErrPolluted)
		}
		var firstErr error
		sent := 0
		for _, addr := range targets {
			if err := s.tr.Send(addr, req); err != nil {
				if firstErr == nil {
					firstErr = err
				}
			} else {
				sent++
			}
		}
		if sent == 0 {
			return firstErr
		}
		return nil
	}
	// ErrUnknownPeer is tolerated on the initial send exactly as on
	// resends: a peer that has not attached (or resolved) yet may appear
	// before the next retry, and aborting would turn that startup race
	// into a hard failure.
	if err := sendAll(); err != nil && !errors.Is(err, transport.ErrUnknownPeer) {
		return nil, s.stats(st), err
	}
	interval := min(reqRetry*s.cfg.Tick, reqResend)
	resend := s.clk.NewTicker(interval)
	defer func() { resend.Stop() }()
	for {
		select {
		case <-done:
			st.mu.Lock()
			data := st.data
			st.mu.Unlock()
			return data, s.stats(st), nil
		case <-resend.C():
			if interval < reqResend {
				// Still on the short retry. A REQ that was answered needs no
				// repeat; one that was not gets it now, and the next later.
				st.mu.Lock()
				answered := st.size.Load() >= 0 || st.received+st.aborted > 0
				st.mu.Unlock()
				interval = min(2*interval, reqResend)
				if answered {
					interval = reqResend
				}
				resend.Stop()
				resend = s.clk.NewTicker(interval)
				if answered {
					continue
				}
			}
			if err := sendAll(); err != nil && !errors.Is(err, transport.ErrUnknownPeer) {
				return nil, s.stats(st), err
			}
		case <-ctx.Done():
			return nil, s.stats(st), fmt.Errorf("session: fetch %v: %w", id, ctx.Err())
		case <-s.closed:
			return nil, s.stats(st), transport.ErrClosed
		}
	}
}

// promoteCached turns a cache-mode object into a normal fetch target:
// the cached rows seed a freshly materialized decoder — each innovative
// by construction, the cache stores a basis — the cache entry is
// dropped, and the object proceeds as an ordinary fetch for the rank
// still missing. Call with no locks held.
func (s *Session) promoteCached(st *objectState) {
	st.mu.Lock()
	if !st.cached || st.dead {
		st.mu.Unlock()
		return
	}
	st.cached = false
	gens := int(st.gens.Load())
	if !s.ensureCoderLocked(st, gens, st.kPer, st.m) {
		st.mu.Unlock()
		return
	}
	progressed := false
	s.cache.Drain(st.id, func(g uint32, vec *bitvec.Vector, payload []byte) {
		gi := int(g)
		if gi >= gens || st.coder.GenComplete(gi) {
			return
		}
		v := st.coder.AcquireVec(gi)
		v.CopyFrom(vec)
		if st.coder.IsRedundant(gi, v) {
			st.coder.ReleaseVec(gi, v)
			return
		}
		var row []byte
		if st.m > 0 {
			row = st.coder.AcquireRow(gi)
			copy(row, payload)
		}
		// No received++ here: each drained row was counted when it was
		// admitted to the cache.
		st.coder.ReceiveOwned(gi, v, row)
		progressed = true
	})
	var acts pollActions
	if st.coder.Complete() {
		s.completeObjLocked(st, &acts)
	}
	st.touch(s.clk.Now())
	st.mu.Unlock()
	s.applyPollActions(&acts)
	if progressed {
		s.notifyWatchers(st)
	}
}

// fetchCandidates assembles one resend round's candidate set for a
// dynamic fetch (no explicit sources, membership plane on): the static
// configured peers plus the current neighbor selection, with the
// bootstrap set folded in periodically (and whenever nothing else is
// known) so the origin stays reachable however the view drifts. Every
// candidate is solicited before it is REQed — solicitation is the trust
// decision pollution conviction requires, and it must cover peers
// discovered mid-fetch exactly like those known at the start.
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

// steerTargets picks the REQ targets for one resend round: the full
// candidate set until advertisements arrive (and periodically after, so
// the origin and fresh caches stay discoverable), otherwise the peers
// advertising cached coverage for the object, in deterministic order.
// Banned peers are excluded everywhere; an empty result therefore means
// every candidate has been convicted of pollution (ErrPolluted at the
// caller).
func (s *Session) steerTargets(st *objectState, all []transport.Addr, attempt int) []transport.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	live := all
	if len(s.banned) > 0 {
		live = make([]transport.Addr, 0, len(all))
		for _, addr := range all {
			if _, b := s.banned[addr]; !b {
				live = append(live, addr)
			}
		}
	}
	// cacheAds never contains banned peers: banPeers scrubs every object's
	// ad table when it convicts.
	if attempt%4 == 0 || len(st.cacheAds) == 0 {
		return live
	}
	out := make([]transport.Addr, 0, len(st.cacheAds))
	for addr := range st.cacheAds {
		out = append(out, addr)
	}
	slices.Sort(out)
	return out
}
