// Package gossip implements the peer sampling service underlying the
// epidemic dissemination: "packets are pushed to nodes picked uniformly at
// random in the network, using an underlying peer sampling service [23];
// the set of nodes to which a node pushes packets is renewed periodically
// in a gossip fashion" (Section IV-A).
//
// Samplers are generic over the peer identifier: the round-based
// simulators identify nodes by dense int ranks, while the live
// dissemination over real sockets identifies them by transport addresses.
// Two samplers are provided: Uniform, the idealized service the paper's
// simulations assume, and Service, a Cyclon-style partial-view shuffler
// (Jelasity et al., ACM TOCS 2007) for runs that model overlay dynamics
// explicitly. View (view.go) is the bounded partial view the session's
// membership plane shuffles over MEMBER frames.
package gossip

import (
	"fmt"
	"math/rand"
)

// SamplerOf chooses push targets for peers and is ticked once per gossip
// period. P is the peer identifier type: int ranks in the simulators,
// transport addresses on real networks.
type SamplerOf[P comparable] interface {
	// Sample returns a peer for self to push to (never self).
	Sample(self P) P
	// Tick advances the overlay by one gossip period.
	Tick()
}

// Sampler is the int-rank sampler used by the round-based simulators.
type Sampler = SamplerOf[int]

func ranks(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// Uniform is the idealized peer sampling service: every draw is uniform
// over all other peers.
type Uniform[P comparable] struct {
	peers []P
	index map[P]int
	rng   *rand.Rand
}

var _ Sampler = (*Uniform[int])(nil)

// NewUniformOf returns a uniform sampler over the given peers (at least
// two, all distinct).
func NewUniformOf[P comparable](peers []P, rng *rand.Rand) (*Uniform[P], error) {
	if len(peers) < 2 {
		return nil, fmt.Errorf("gossip: %d peers < 2", len(peers))
	}
	u := &Uniform[P]{
		peers: append([]P(nil), peers...),
		index: make(map[P]int, len(peers)),
		rng:   rng,
	}
	for i, p := range u.peers {
		if _, dup := u.index[p]; dup {
			return nil, fmt.Errorf("gossip: duplicate peer %v", p)
		}
		u.index[p] = i
	}
	return u, nil
}

// NewUniform returns a uniform sampler over the int ranks 0..n-1, n ≥ 2.
func NewUniform(n int, rng *rand.Rand) (*Uniform[int], error) {
	if n < 2 {
		return nil, fmt.Errorf("gossip: n = %d < 2", n)
	}
	return NewUniformOf(ranks(n), rng)
}

// Sample returns a uniformly random peer other than self.
func (u *Uniform[P]) Sample(self P) P {
	if i, ok := u.index[self]; ok {
		t := u.rng.Intn(len(u.peers) - 1)
		if t >= i {
			t++
		}
		return u.peers[t]
	}
	return u.peers[u.rng.Intn(len(u.peers))]
}

// Tick is a no-op for the idealized service.
func (u *Uniform[P]) Tick() {}

// Service is a gossip-based peer sampling service with partial views:
// each peer holds a bounded view of other peers; every period each peer
// swaps half of its view with a random contact, which keeps the overlay
// connected and the samples close to uniform.
type Service[P comparable] struct {
	peers []P
	index map[P]int
	size  int
	views [][]P
	rng   *rand.Rand
}

var _ Sampler = (*Service[int])(nil)

// NewServiceOf returns a shuffling peer sampler over the given peers (at
// least two, all distinct) with the given view size (clamped to one less
// than the peer count). Views are initialized uniformly.
func NewServiceOf[P comparable](peers []P, viewSize int, rng *rand.Rand) (*Service[P], error) {
	n := len(peers)
	if n < 2 {
		return nil, fmt.Errorf("gossip: %d peers < 2", n)
	}
	if viewSize < 1 {
		return nil, fmt.Errorf("gossip: view size = %d < 1", viewSize)
	}
	viewSize = min(viewSize, n-1)
	s := &Service[P]{
		peers: append([]P(nil), peers...),
		index: make(map[P]int, n),
		size:  viewSize,
		rng:   rng,
	}
	for i, p := range s.peers {
		if _, dup := s.index[p]; dup {
			return nil, fmt.Errorf("gossip: duplicate peer %v", p)
		}
		s.index[p] = i
	}
	s.views = make([][]P, n)
	for i := range s.views {
		view := make([]P, 0, viewSize)
		seen := map[int]bool{i: true}
		for len(view) < viewSize {
			j := rng.Intn(n)
			if seen[j] {
				continue
			}
			seen[j] = true
			view = append(view, s.peers[j])
		}
		s.views[i] = view
	}
	return s, nil
}

// NewService returns a shuffling peer sampler over the int ranks 0..n-1.
func NewService(n, viewSize int, rng *rand.Rand) (*Service[int], error) {
	if n < 2 {
		return nil, fmt.Errorf("gossip: n = %d < 2", n)
	}
	return NewServiceOf(ranks(n), viewSize, rng)
}

// ViewSize returns the per-peer view capacity.
func (s *Service[P]) ViewSize() int { return s.size }

// View returns a copy of self's current view (for tests and debugging).
func (s *Service[P]) View(self P) []P {
	view := s.views[s.index[self]]
	return append([]P(nil), view...)
}

// Sample returns a random peer from self's current partial view.
func (s *Service[P]) Sample(self P) P {
	view := s.views[s.index[self]]
	return view[s.rng.Intn(len(view))]
}

// Tick performs one shuffling round: every peer exchanges half of its
// view (plus its own id) with a random contact from its view; both sides
// merge what they receive, preferring fresh entries, deduplicating, and
// never listing themselves.
func (s *Service[P]) Tick() {
	for i := range s.views {
		contact := s.views[i][s.rng.Intn(len(s.views[i]))]
		s.exchange(i, s.index[contact])
	}
}

func (s *Service[P]) exchange(a, b int) {
	half := max(1, s.size/2)
	offerA := s.offer(a, b, half)
	offerB := s.offer(b, a, half)
	s.merge(a, offerB)
	s.merge(b, offerA)
}

// offer picks up to half random entries of from's view plus from's own
// id, excluding to.
func (s *Service[P]) offer(from, to, half int) []P {
	view := s.views[from]
	out := make([]P, 0, half+1)
	out = append(out, s.peers[from])
	perm := s.rng.Perm(len(view))
	for _, j := range perm {
		if len(out) > half {
			break
		}
		if view[j] != s.peers[to] {
			out = append(out, view[j])
		}
	}
	return out
}

// merge folds offered peers into node's view: duplicates and self are
// dropped, then random victims make room until the size bound holds.
func (s *Service[P]) merge(node int, offered []P) {
	view := s.views[node]
	have := make(map[P]bool, len(view)+1)
	have[s.peers[node]] = true
	for _, p := range view {
		have[p] = true
	}
	for _, p := range offered {
		if have[p] {
			continue
		}
		have[p] = true
		view = append(view, p)
	}
	for len(view) > s.size {
		j := s.rng.Intn(len(view))
		view[j] = view[len(view)-1]
		view = view[:len(view)-1]
	}
	s.views[node] = view
}
