package transport

import (
	"container/heap"
	"runtime"
	"sync"
	"time"
)

// Clock abstracts the time source behind every timer the dissemination
// stack arms — session push ticks, META resend intervals, idle eviction,
// fetch retries, switch latency injection. Production
// code runs on SystemClock; simulations inject a VClock so a minute of
// protocol time passes in milliseconds of wall time and every timer fires
// at an exact, reproducible virtual instant.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// Since returns the elapsed time on this clock since t.
	Since(t time.Time) time.Duration
	// NewTicker returns a ticker firing every d on this clock; d must be
	// positive. Like time.Ticker, a fire is dropped when the channel is
	// not being consumed.
	NewTicker(d time.Duration) Ticker
	// AfterFunc arranges for fn to run after d has elapsed on this clock.
	// VClock runs fn synchronously on the goroutine advancing the clock;
	// fn must not block.
	AfterFunc(d time.Duration, fn func()) Timer
}

// Ticker is a Clock's periodic timer.
type Ticker interface {
	// C returns the delivery channel (capacity 1, as time.Ticker).
	C() <-chan time.Time
	// Stop ends the ticker; it does not close the channel.
	Stop()
}

// Timer is a Clock's one-shot timer, as armed by AfterFunc.
type Timer interface {
	// Stop cancels the timer, reporting whether it was still pending.
	Stop() bool
}

// systemClock is the process wall clock.
type systemClock struct{}

var sysClock Clock = systemClock{}

// SystemClock returns the real wall clock — the default Clock everywhere
// one is injectable.
func SystemClock() Clock { return sysClock }

func (systemClock) Now() time.Time                  { return time.Now() }
func (systemClock) Since(t time.Time) time.Duration { return time.Since(t) }

func (systemClock) NewTicker(d time.Duration) Ticker { return sysTicker{time.NewTicker(d)} }

type sysTicker struct{ t *time.Ticker }

func (s sysTicker) C() <-chan time.Time { return s.t.C }
func (s sysTicker) Stop()               { s.t.Stop() }

func (systemClock) AfterFunc(d time.Duration, fn func()) Timer {
	return sysTimer{time.AfterFunc(d, fn)}
}

type sysTimer struct{ t *time.Timer }

func (s sysTimer) Stop() bool { return s.t.Stop() }

// VClockBase is where a fresh VClock starts. It is deliberately far from
// the zero time.Time: protocol code uses the zero value as "never"
// (metaAt, lastReq), and a clock starting at zero would alias it.
var VClockBase = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)

// VClock is a virtual clock: time stands still until Advance/AdvanceTo
// moves it, firing every ticker and AfterFunc deadline crossed, in
// deadline order. It implements Clock, so the whole dissemination stack
// runs on it unchanged; internal/simnet drives one from its discrete-event
// scheduler to give swarms virtual time.
//
// Timer callbacks run synchronously on the advancing goroutine. Ticker
// fires are offered to the consumer: with a zero sync grace the offer is
// non-blocking (exactly time.Ticker's drop semantics); with
// SetSyncGrace(d) the advancing goroutine waits up to d of real time for
// the consumer to take the tick, which lets a simulation hand control to
// the woken goroutine before virtual time moves again.
type VClock struct {
	mu     sync.Mutex
	now    time.Time
	timers vtimerHeap
	seq    uint64
	grace  time.Duration
}

// NewVClock returns a virtual clock frozen at VClockBase.
func NewVClock() *VClock {
	return &VClock{now: VClockBase}
}

// SetSyncGrace sets how long Advance waits, in real time, for a ticker
// consumer to accept each fire before dropping it (0 = non-blocking).
func (c *VClock) SetSyncGrace(d time.Duration) {
	c.mu.Lock()
	c.grace = d
	c.mu.Unlock()
}

// Now returns the current virtual time.
func (c *VClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Since returns the virtual time elapsed since t.
func (c *VClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

// vtimer is one deadline on the virtual clock: a ticker (period > 0,
// fires on ch) or an AfterFunc (period 0, runs fn).
type vtimer struct {
	at      time.Time
	seq     uint64
	period  time.Duration
	ch      chan time.Time
	fn      func()
	stopped bool
	idx     int
}

type vtimerHeap []*vtimer

func (h vtimerHeap) Len() int { return len(h) }
func (h vtimerHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h vtimerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}
func (h *vtimerHeap) Push(x any) {
	t := x.(*vtimer)
	t.idx = len(*h)
	*h = append(*h, t)
}
func (h *vtimerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	t.idx = -1
	*h = old[:n-1]
	return t
}

// NewTicker returns a ticker firing every d of virtual time; it panics if
// d <= 0, like time.NewTicker.
func (c *VClock) NewTicker(d time.Duration) Ticker {
	if d <= 0 {
		panic("transport: non-positive VClock ticker period")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &vtimer{at: c.now.Add(d), period: d, ch: make(chan time.Time, 1)}
	c.pushLocked(t)
	return &vTicker{c: c, t: t}
}

type vTicker struct {
	c *VClock
	t *vtimer
}

func (vt *vTicker) C() <-chan time.Time { return vt.t.ch }
func (vt *vTicker) Stop()               { vt.c.stop(vt.t) }

// AfterFunc arranges for fn to run when virtual time passes d from now.
// fn runs synchronously on the advancing goroutine and must not block.
func (c *VClock) AfterFunc(d time.Duration, fn func()) Timer {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &vtimer{at: c.now.Add(d), fn: fn}
	c.pushLocked(t)
	return &vTimer{c: c, t: t}
}

type vTimer struct {
	c *VClock
	t *vtimer
}

func (vt *vTimer) Stop() bool { return vt.c.stop(vt.t) }

func (c *VClock) pushLocked(t *vtimer) {
	t.seq = c.seq
	c.seq++
	heap.Push(&c.timers, t)
}

func (c *VClock) stop(t *vtimer) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.stopped {
		return false
	}
	t.stopped = true
	pending := t.idx >= 0
	if pending {
		heap.Remove(&c.timers, t.idx)
	}
	return pending
}

// NextDeadline returns the earliest pending timer deadline, if any. A
// discrete-event scheduler uses it to decide how far to advance.
func (c *VClock) NextDeadline() (time.Time, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.timers) > 0 && c.timers[0].stopped {
		heap.Pop(&c.timers)
	}
	if len(c.timers) == 0 {
		return time.Time{}, false
	}
	return c.timers[0].at, true
}

// Advance moves virtual time forward by d; see AdvanceTo.
func (c *VClock) Advance(d time.Duration) { c.AdvanceTo(c.Now().Add(d)) }

// AdvanceTo moves virtual time to t (no-op if t is not after now), firing
// every deadline crossed in (deadline, registration) order. The clock
// reads t.Deadline time for each fire — a ticker firing at its deadline
// observes Now() == deadline — and lands on t when all due timers have
// run. Timer callbacks and ticker hand-offs happen with the clock's lock
// released, so fired code may freely read the clock or arm new timers
// (new deadlines at or before t fire within this same call).
func (c *VClock) AdvanceTo(t time.Time) {
	for {
		c.mu.Lock()
		for len(c.timers) > 0 && c.timers[0].stopped {
			heap.Pop(&c.timers)
		}
		if len(c.timers) == 0 || c.timers[0].at.After(t) {
			if t.After(c.now) {
				c.now = t
			}
			c.mu.Unlock()
			return
		}
		tm := heap.Pop(&c.timers).(*vtimer)
		if tm.at.After(c.now) {
			c.now = tm.at
		}
		now := c.now
		grace := c.grace
		if tm.period > 0 {
			// Re-arm before delivering so Stop from the consumer works and
			// the next deadline is visible to NextDeadline immediately.
			tm.at = tm.at.Add(tm.period)
			c.pushLocked(tm)
		}
		c.mu.Unlock()

		switch {
		case tm.fn != nil:
			tm.fn()
		case grace <= 0:
			select {
			case tm.ch <- now:
			default: // consumer busy: drop, like time.Ticker
			}
		default:
			// Sync grace: the buffered send succeeds instantly, so the
			// hand-off must additionally wait for the consumer to DRAIN
			// the tick — that receive is the proof the woken goroutine is
			// running, which is what lets a simulation scheduler trust
			// that the tick's work has started before time moves again.
			deadline := time.Now().Add(grace)
			select {
			case tm.ch <- now:
			default: // consumer still owes a drain from the last tick
			}
			for len(tm.ch) > 0 && time.Now().Before(deadline) {
				runtime.Gosched()
				time.Sleep(5 * time.Microsecond)
			}
		}
	}
}
