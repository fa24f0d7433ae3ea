package soliton

import (
	"math"
	"testing"
)

// TestRobustGoldenPMF pins the Robust Soliton against a golden table for
// k=16, c=0.1, δ=0.5 — small enough that the ⌊k/R⌋ spike position differs
// from the Round(k/R) one (k/R ≈ 11.54: floor 11, round 12), so a
// regression to the rounded spike fails on every row around the spike.
func TestRobustGoldenPMF(t *testing.T) {
	s, err := NewRobust(16, 0.1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Spike(); got != 11 {
		t.Fatalf("spike at %d, Luby's floor(k/R) = 11", got)
	}
	golden := []struct {
		d   int
		pmf float64
	}{
		{1, 0.111124149100},
		{2, 0.404819539106},
		{3, 0.145699260895},
		{10, 0.014734344172}, // last τ head slot: ρ(10) + R/(10k), normalized
		{11, 0.072606985572}, // the spike
		{12, 0.005644565084}, // pure ideal tail — no τ mass past the spike
		{16, 0.003104510796},
	}
	for _, g := range golden {
		if got := s.PMF(g.d); math.Abs(got-g.pmf) > 1e-9 {
			t.Errorf("PMF(%d) = %.12f, golden %.12f", g.d, got, g.pmf)
		}
	}
	if got := s.Mean(); math.Abs(got-3.888655771694) > 1e-9 {
		t.Errorf("mean = %.12f, golden 3.888655771694", got)
	}
}

// TestRobustSpikeIsFloor pins the spike position to ⌊k/R⌋ across sizes
// where floor and round disagree.
func TestRobustSpikeIsFloor(t *testing.T) {
	tests := []struct {
		k        int
		c, delta float64
		spike    int
	}{
		{16, 0.1, 0.5, 11},   // k/R ≈ 11.54
		{64, 0.03, 0.5, 54},  // k/R ≈ 54.96 — round would say 55
		{256, 0.03, 0.5, 85}, // k/R ≈ 85.49 — floor == round here
		{1024, 0.03, 0.5, 139},
	}
	for _, tt := range tests {
		s, err := NewRobust(tt.k, tt.c, tt.delta)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Spike(); got != tt.spike {
			t.Errorf("k=%d c=%v δ=%v: spike %d, want %d", tt.k, tt.c, tt.delta, got, tt.spike)
		}
		r := tt.c * math.Log(float64(tt.k)/tt.delta) * math.Sqrt(float64(tt.k))
		if want := int(math.Floor(float64(tt.k) / r)); s.Spike() != want {
			t.Errorf("k=%d: spike %d != floor(k/R) = %d", tt.k, s.Spike(), want)
		}
	}
}

// TestRobustMeanNearLogK: the default Robust Soliton's expected degree
// stays within a small constant factor of ln k — the property the
// O(k ln k) decoding cost bound rests on.
func TestRobustMeanNearLogK(t *testing.T) {
	for _, k := range []int{64, 256, 1024, 4096} {
		logK := math.Log(float64(k))
		s, err := NewDefaultRobust(k)
		if err != nil {
			t.Fatal(err)
		}
		if m := s.Mean(); m < 0.5*logK || m > 3.5*logK {
			t.Errorf("k=%d: mean %v outside [0.5, 3.5]·ln k (%v)", k, m, logK)
		}
	}
}

// TestSampleKnotBoundaries drives the bucket search through every CDF
// knot: a u exactly on CDF(d) belongs to the next degree with mass (the
// half-open convention), a u just below it to d itself, and a degree with
// zero probability is never returned from either side.
func TestSampleKnotBoundaries(t *testing.T) {
	for _, mk := range []struct {
		name string
		dist *Soliton
	}{
		{"ideal-32", must(NewIdeal(32))},
		{"robust-16", must(NewRobust(16, 0.1, 0.5))},
		{"robust-96", must(NewRobust(96, DefaultC, DefaultDelta))},
		{"lean-96", must(NewRobust(96, 0.02, 0.5))},
		{"harsh-96", must(NewRobust(96, 0.10, 0.1))},
	} {
		s := mk.dist
		for d := 1; d <= s.k; d++ {
			u := s.CDF(d)
			if u < 1 { // u = 1 is outside Float64's [0,1) range
				got := s.degreeAt(u)
				if got <= d {
					t.Fatalf("%s: degreeAt(CDF(%d)=%v) = %d, want > %d (knot belongs to the upper bucket)",
						mk.name, d, u, got, d)
				}
				if s.PMF(got) == 0 {
					t.Fatalf("%s: degreeAt(CDF(%d)) = %d has zero probability", mk.name, d, got)
				}
			}
			if below := math.Nextafter(u, 0); below >= s.CDF(d-1) {
				got := s.degreeAt(below)
				if got != d {
					t.Fatalf("%s: degreeAt(CDF(%d)⁻) = %d, want %d (bucket is closed from below)",
						mk.name, d, got, d)
				}
				if s.PMF(d) == 0 {
					t.Fatalf("%s: zero-probability degree %d owns [%v, %v)", mk.name, d, s.CDF(d-1), u)
				}
			}
		}
		if got := s.degreeAt(0); s.PMF(got) == 0 {
			t.Fatalf("%s: degreeAt(0) = %d has zero probability", mk.name, got)
		}
	}
}

func must(s *Soliton, err error) *Soliton {
	if err != nil {
		panic(err)
	}
	return s
}
