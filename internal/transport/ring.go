package transport

import "sync/atomic"

// spscRing is a fixed-capacity single-producer/single-consumer frame
// queue: the socket's reader goroutine pushes, the consumer that Recv
// and RecvBatch share pops. Head and tail are monotonically increasing positions
// masked into the buffer, each written by exactly one side, so the only
// synchronization is two atomic loads per operation — no locks on the
// per-frame path. The head/tail words live on separate cache lines so
// the producer and consumer cores do not false-share.
type spscRing struct {
	buf  []Frame
	mask uint64

	_    [56]byte // pad: keep head off the buf/mask line
	head atomic.Uint64
	_    [56]byte // pad: keep tail on its own line
	tail atomic.Uint64
}

// newSPSCRing builds a ring with the given capacity rounded up to a
// power of two (minimum 2).
func newSPSCRing(capacity int) *spscRing {
	n := uint64(2)
	for n < uint64(capacity) {
		n <<= 1
	}
	return &spscRing{buf: make([]Frame, n), mask: n - 1}
}

// push appends one frame; it reports false when the ring is full (the
// producer decides whether to park or drop). Producer-side only.
func (r *spscRing) push(f Frame) bool {
	tail := r.tail.Load()
	if tail-r.head.Load() == uint64(len(r.buf)) {
		return false
	}
	r.buf[tail&r.mask] = f
	r.tail.Store(tail + 1)
	return true
}

// pop removes the oldest frame; ok is false when the ring is empty.
// Consumer-side only.
func (r *spscRing) pop() (Frame, bool) {
	head := r.head.Load()
	if head == r.tail.Load() {
		return Frame{}, false
	}
	f := r.buf[head&r.mask]
	r.buf[head&r.mask] = Frame{} // drop buffer references promptly
	r.head.Store(head + 1)
	return f, true
}

// drain pops everything currently queued, releasing each frame —
// shutdown cleanup, not a hot path.
func (r *spscRing) drain() {
	for {
		f, ok := r.pop()
		if !ok {
			return
		}
		f.Release()
	}
}
