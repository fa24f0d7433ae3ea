// Package gossip implements the peer sampling service underlying the
// epidemic dissemination: "packets are pushed to nodes picked uniformly at
// random in the network, using an underlying peer sampling service [23];
// the set of nodes to which a node pushes packets is renewed periodically
// in a gossip fashion" (Section IV-A).
//
// The samplers serve the round-based simulator (internal/sim), which
// identifies nodes by dense int ranks 0..n-1. Two are provided: Uniform,
// the idealized service the paper's simulations assume, and Service, a
// Cyclon-style partial-view shuffler (Jelasity et al., ACM TOCS 2007) for
// runs that model overlay dynamics explicitly. View (view.go), generic over
// the peer identifier, is the bounded partial view the session's
// membership plane shuffles over MEMBER frames, keyed by transport address.
package gossip

import (
	"fmt"
	"math/rand"
)

// Sampler chooses push targets for peers and is ticked once per gossip
// period.
type Sampler interface {
	// Sample returns a peer for self to push to (never self).
	Sample(self int) int
	// Tick advances the overlay by one gossip period.
	Tick()
}

// Uniform is the idealized peer sampling service: every draw is uniform
// over all other peers.
type Uniform struct {
	n   int
	rng *rand.Rand
}

var _ Sampler = (*Uniform)(nil)

// NewUniform returns a uniform sampler over the ranks 0..n-1, n ≥ 2.
func NewUniform(n int, rng *rand.Rand) (*Uniform, error) {
	if n < 2 {
		return nil, fmt.Errorf("gossip: n = %d < 2", n)
	}
	return &Uniform{n: n, rng: rng}, nil
}

// Sample returns a uniformly random peer other than self.
func (u *Uniform) Sample(self int) int {
	if self >= 0 && self < u.n {
		t := u.rng.Intn(u.n - 1)
		if t >= self {
			t++
		}
		return t
	}
	return u.rng.Intn(u.n)
}

// Tick is a no-op for the idealized service.
func (u *Uniform) Tick() {}

// Service is a gossip-based peer sampling service with partial views:
// each peer holds a bounded view of other peers; every period each peer
// swaps half of its view with a random contact, which keeps the overlay
// connected and the samples close to uniform.
type Service struct {
	size  int
	views [][]int
	rng   *rand.Rand
}

var _ Sampler = (*Service)(nil)

// NewService returns a shuffling peer sampler over the ranks 0..n-1 (n ≥
// 2) with the given view size (clamped to n-1). Views are initialized
// uniformly.
func NewService(n, viewSize int, rng *rand.Rand) (*Service, error) {
	if n < 2 {
		return nil, fmt.Errorf("gossip: n = %d < 2", n)
	}
	if viewSize < 1 {
		return nil, fmt.Errorf("gossip: view size = %d < 1", viewSize)
	}
	viewSize = min(viewSize, n-1)
	s := &Service{size: viewSize, views: make([][]int, n), rng: rng}
	for i := range s.views {
		view := make([]int, 0, viewSize)
		seen := map[int]bool{i: true}
		for len(view) < viewSize {
			j := rng.Intn(n)
			if seen[j] {
				continue
			}
			seen[j] = true
			view = append(view, j)
		}
		s.views[i] = view
	}
	return s, nil
}

// ViewSize returns the per-peer view capacity.
func (s *Service) ViewSize() int { return s.size }

// View returns a copy of self's current view (for tests and debugging).
func (s *Service) View(self int) []int { return append([]int(nil), s.views[self]...) }

// Sample returns a random peer from self's current partial view.
func (s *Service) Sample(self int) int {
	view := s.views[self]
	return view[s.rng.Intn(len(view))]
}

// Tick performs one shuffling round: every peer exchanges half of its
// view (plus its own id) with a random contact from its view; both sides
// merge what they receive, preferring fresh entries, deduplicating, and
// never listing themselves.
func (s *Service) Tick() {
	for i := range s.views {
		s.exchange(i, s.views[i][s.rng.Intn(len(s.views[i]))])
	}
}

func (s *Service) exchange(a, b int) {
	half := max(1, s.size/2)
	offerA := s.offer(a, b, half)
	offerB := s.offer(b, a, half)
	s.merge(a, offerB)
	s.merge(b, offerA)
}

// offer picks up to half random entries of from's view plus from's own
// id, excluding to.
func (s *Service) offer(from, to, half int) []int {
	view := s.views[from]
	out := make([]int, 0, half+1)
	out = append(out, from)
	perm := s.rng.Perm(len(view))
	for _, j := range perm {
		if len(out) > half {
			break
		}
		if view[j] != to {
			out = append(out, view[j])
		}
	}
	return out
}

// merge folds offered peers into node's view: duplicates and self are
// dropped, then random victims make room until the size bound holds.
func (s *Service) merge(node int, offered []int) {
	view := s.views[node]
	have := make(map[int]bool, len(view)+1)
	have[node] = true
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
