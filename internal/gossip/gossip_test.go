package gossip

import (
	"math/rand"
	"testing"
)

func TestNewUniformValidation(t *testing.T) {
	if _, err := NewUniform(1, nil); err == nil {
		t.Error("n=1 accepted")
	}
}

func TestUniformNeverSelf(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	u, err := NewUniform(5, rng)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 5)
	for i := 0; i < 10000; i++ {
		node := i % 5
		p := u.Sample(node)
		if p == node {
			t.Fatal("sampled self")
		}
		if p < 0 || p >= 5 {
			t.Fatalf("sample %d out of range", p)
		}
		counts[p]++
	}
	u.Tick() // no-op, must not panic
	// Each node appears as target roughly 10000/5 × (4/4)... every node is
	// excluded once in five draws: expected 2000 each.
	for i, c := range counts {
		if c < 1600 || c > 2400 {
			t.Errorf("node %d sampled %d times, want ≈2000", i, c)
		}
	}
}

func TestNewServiceValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	if _, err := NewService(1, 4, rng); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := NewService(10, 0, rng); err == nil {
		t.Error("view size 0 accepted")
	}
	// View size larger than n-1 is clamped.
	s, err := NewService(4, 100, rng)
	if err != nil {
		t.Fatal(err)
	}
	if s.ViewSize() != 3 {
		t.Errorf("ViewSize = %d, want 3", s.ViewSize())
	}
}

func checkViewInvariants(t *testing.T, s *Service, n int) {
	t.Helper()
	for node := 0; node < n; node++ {
		view := s.View(node)
		if len(view) == 0 || len(view) > s.ViewSize() {
			t.Fatalf("node %d view size %d", node, len(view))
		}
		seen := make(map[int]bool, len(view))
		for _, p := range view {
			if p == node {
				t.Fatalf("node %d lists itself", node)
			}
			if p < 0 || p >= n {
				t.Fatalf("node %d lists out-of-range %d", node, p)
			}
			if seen[p] {
				t.Fatalf("node %d lists %d twice", node, p)
			}
			seen[p] = true
		}
	}
}

func TestServiceInvariantsUnderShuffling(t *testing.T) {
	const n = 50
	rng := rand.New(rand.NewSource(3))
	s, err := NewService(n, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	checkViewInvariants(t, s, n)
	for round := 0; round < 200; round++ {
		s.Tick()
		checkViewInvariants(t, s, n)
	}
}

func TestServiceSampleInView(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s, _ := NewService(20, 5, rng)
	for i := 0; i < 1000; i++ {
		node := i % 20
		p := s.Sample(node)
		found := false
		for _, v := range s.View(node) {
			if v == p {
				found = true
			}
		}
		if !found {
			t.Fatal("sample not from view")
		}
	}
}

func TestServiceMixesTowardUniform(t *testing.T) {
	// After shuffling, long-run samples from a single node should cover
	// most of the network (view renewal), not just its initial view.
	const n = 64
	rng := rand.New(rand.NewSource(5))
	s, _ := NewService(n, 8, rng)
	seen := make(map[int]bool)
	for round := 0; round < 300; round++ {
		s.Tick()
		seen[s.Sample(0)] = true
	}
	if len(seen) < n/2 {
		t.Errorf("node 0 sampled only %d distinct peers of %d", len(seen), n)
	}
}

func TestServiceIndegreeBalanced(t *testing.T) {
	// No node should vanish from the overlay: after mixing, every node is
	// present in someone's view (indegree ≥ 1 for the vast majority).
	const n = 40
	rng := rand.New(rand.NewSource(6))
	s, _ := NewService(n, 6, rng)
	for round := 0; round < 100; round++ {
		s.Tick()
	}
	indeg := make([]int, n)
	for node := 0; node < n; node++ {
		for _, p := range s.View(node) {
			indeg[p]++
		}
	}
	missing := 0
	for _, d := range indeg {
		if d == 0 {
			missing++
		}
	}
	if missing > n/10 {
		t.Errorf("%d of %d nodes unreachable after shuffling", missing, n)
	}
}
