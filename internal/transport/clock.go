package transport

import (
	"sync"
	"time"
)

// Clock is the instant the dissemination stack reads — proof send stamps,
// idle eviction cutoffs, fetch retries, the push timer's deadlines.
// Production code runs on SystemClock; a simulation runs every session on
// one VClock and steps them itself (session.Step), so a minute of protocol
// time passes in milliseconds of wall time, at exact, reproducible
// instants. A Clock arms no timers: real time has time.Timer, and virtual
// time has whoever moves it.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// Since returns the elapsed time on this clock since t.
	Since(t time.Time) time.Duration
}

// systemClock is the process wall clock.
type systemClock struct{}

var sysClock Clock = systemClock{}

// SystemClock returns the real wall clock — the default Clock everywhere
// one is injectable.
func SystemClock() Clock { return sysClock }

func (systemClock) Now() time.Time                  { return time.Now() }
func (systemClock) Since(t time.Time) time.Duration { return time.Since(t) }

// VClockBase is where a fresh VClock starts. It is deliberately far from
// the zero time.Time: protocol code uses the zero value as "never"
// (proofAt, lastReq), and a clock starting at zero would alias it.
var VClockBase = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)

// VClock is a virtual clock: a settable instant that stands still until
// Advance or AdvanceTo moves it. Its owner (internal/simnet's scheduler, a
// test's step loop) decides when, from the deadlines the sessions it steps
// return.
type VClock struct {
	mu  sync.Mutex
	now time.Time
}

// NewVClock returns a virtual clock frozen at VClockBase.
func NewVClock() *VClock { return &VClock{now: VClockBase} }

// Now returns the current virtual time.
func (c *VClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Since returns the virtual time elapsed since t.
func (c *VClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

// Advance moves virtual time forward by d; see AdvanceTo.
func (c *VClock) Advance(d time.Duration) { c.AdvanceTo(c.Now().Add(d)) }

// AdvanceTo moves virtual time to t; it is a no-op if t is not after now.
func (c *VClock) AdvanceTo(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.After(c.now) {
		c.now = t
	}
}
