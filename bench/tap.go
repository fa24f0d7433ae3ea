package main

import (
	"context"
	"sync"
	"time"

	"ltnc/transport"
)

// Session wire frame kinds: the first byte of every frame a session
// sends. They are part of the wire format (DESIGN.md), which is what lets
// the tap classify traffic from outside the session.
const (
	kindData     = 0x01
	kindReq      = 0x02
	kindMeta     = 0x03
	kindFeedback = 0x04
	kindManifest = 0x05
	kindMember   = 0x06
	numKinds     = 7 // index 0 collects empty and unknown frames
)

var kindNames = [numKinds]string{"OTHER", "DATA", "REQ", "META", "FEEDBACK", "MANIFEST", "MEMBER"}

func frameKind(frame []byte) int {
	if len(frame) == 0 || int(frame[0]) >= numKinds {
		return 0
	}
	return int(frame[0])
}

// tapSpan is one transport call observed at a session boundary.
type tapSpan struct {
	send       bool
	start, end time.Duration  // since the tap's epoch
	peer       transport.Addr // destination of a send; empty for a receive
	frames     int
	bytes      int
	kinds      [numKinds]int
}

// tap wraps a session's transport and records one span per Send,
// SendBatch, Recv and RecvBatch call, and (when capture is set) a copy of
// every DATA frame received, in arrival order, for the replay. It always
// offers the batch interfaces and forwards through the package helpers,
// which fall back to per-frame calls exactly as the session itself would
// on a transport without them — so a tapped session issues the same
// inner calls as an untapped one. Frames pass through untouched: the
// receiver still owns Release.
type tap struct {
	inner   transport.Transport
	epoch   time.Time
	capture bool

	mu    sync.Mutex
	spans []tapSpan
	// data holds the captured DATA frames back to back, without the
	// session type byte (what packet.ParseWire takes); ends[i] is where
	// frame i stops.
	data []byte
	ends []int
}

var (
	_ transport.Transport   = (*tap)(nil)
	_ transport.BatchSender = (*tap)(nil)
	_ transport.BatchRecver = (*tap)(nil)
)

// newTap wraps inner; buf, when non-nil, is reused as the capture buffer.
func newTap(inner transport.Transport, epoch time.Time, capture bool, buf []byte) *tap {
	return &tap{inner: inner, epoch: epoch, capture: capture, data: buf[:0]}
}

func (t *tap) LocalAddr() transport.Addr { return t.inner.LocalAddr() }
func (t *tap) Close() error              { return t.inner.Close() }

func (t *tap) Send(to transport.Addr, frame []byte) error {
	start := time.Since(t.epoch)
	err := t.inner.Send(to, frame)
	sp := tapSpan{send: true, start: start, end: time.Since(t.epoch), peer: to, frames: 1, bytes: len(frame)}
	sp.kinds[frameKind(frame)]++
	t.record(sp)
	return err
}

func (t *tap) SendBatch(to transport.Addr, frames [][]byte) (int, error) {
	start := time.Since(t.epoch)
	n, err := transport.SendBatch(t.inner, to, frames)
	sp := tapSpan{send: true, start: start, end: time.Since(t.epoch), peer: to, frames: len(frames)}
	for _, f := range frames {
		sp.bytes += len(f)
		sp.kinds[frameKind(f)]++
	}
	t.record(sp)
	return n, err
}

func (t *tap) Recv(ctx context.Context) (transport.Frame, error) {
	start := time.Since(t.epoch)
	f, err := t.inner.Recv(ctx)
	if err != nil {
		return f, err
	}
	t.recordRecv(start, []transport.Frame{f})
	return f, nil
}

func (t *tap) RecvBatch(ctx context.Context, out []transport.Frame) (int, error) {
	start := time.Since(t.epoch)
	n, err := transport.RecvBatch(ctx, t.inner, out)
	if n > 0 {
		t.recordRecv(start, out[:n])
	}
	return n, err
}

func (t *tap) recordRecv(start time.Duration, frames []transport.Frame) {
	sp := tapSpan{start: start, end: time.Since(t.epoch), frames: len(frames)}
	t.mu.Lock()
	for _, f := range frames {
		k := frameKind(f.Data)
		sp.bytes += len(f.Data)
		sp.kinds[k]++
		if t.capture && k == kindData {
			t.data = append(t.data, f.Data[1:]...)
			t.ends = append(t.ends, len(t.data))
		}
	}
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

func (t *tap) record(sp tapSpan) {
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// recorded returns the spans observed so far.
func (t *tap) recorded() []tapSpan {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans
}

// captured returns the DATA frames received so far, in arrival order.
// They alias the tap's buffer: call it once the session has stopped.
func (t *tap) captured() [][]byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	frames := make([][]byte, len(t.ends))
	from := 0
	for i, end := range t.ends {
		frames[i] = t.data[from:end]
		from = end
	}
	return frames
}
