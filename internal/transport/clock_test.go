package transport

import (
	"testing"
	"time"
)

func TestSystemClockBasics(t *testing.T) {
	c := SystemClock()
	t0 := c.Now()
	if c.Since(t0) < 0 {
		t.Fatalf("Since went backwards")
	}
	if c != SystemClock() {
		t.Fatalf("SystemClock is not one comparable value")
	}
}

func TestVClockFrozenUntilAdvanced(t *testing.T) {
	c := NewVClock()
	t0 := c.Now()
	if !t0.Equal(VClockBase) {
		t.Fatalf("fresh VClock at %v, want %v", t0, VClockBase)
	}
	time.Sleep(5 * time.Millisecond)
	if !c.Now().Equal(t0) {
		t.Fatalf("virtual time moved without Advance")
	}
	c.Advance(3 * time.Second)
	if got := c.Since(t0); got != 3*time.Second {
		t.Fatalf("Since = %v, want 3s", got)
	}
	// Time never runs backwards: an earlier target leaves the clock be.
	c.AdvanceTo(t0.Add(time.Second))
	if got := c.Since(t0); got != 3*time.Second {
		t.Fatalf("AdvanceTo an earlier instant moved the clock to %v", got)
	}
}
