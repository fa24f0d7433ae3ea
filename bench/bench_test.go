package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"ltnc/transport"
)

// TestSpecNamesTheProgram: BENCHMARK.json and the program must describe
// the same benchmark — same workloads, in the same order, and the
// mandatory set-up metric.
func TestSpecNamesTheProgram(t *testing.T) {
	spec, _, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" {
			t.Errorf("workload %s has no why", w.Name)
		}
	}
	hasSetup := false
	for _, ms := range spec.EndToEnd {
		hasSetup = hasSetup || ms.Name == "setup_s"
		if ms.Bound <= 0 || ms.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", ms.Name, ms.Bound)
		}
	}
	if !hasSetup {
		t.Error("BENCHMARK.json has no setup_s metric")
	}
}

// TestSmoke pushes a 64 KiB object through each of the four topologies
// with pacing opened, untraced and traced, and asserts that every metric
// BENCHMARK.json names is emitted with a finite value (n/a per-layer
// metrics excepted: they must still be present).
func TestSmoke(t *testing.T) {
	spec, _, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		w.size, w.k = 64<<10, 64
		w.tick, w.burst = 200*time.Microsecond, 8
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/traced=%v", w.name, traced), func(t *testing.T) {
				r, err := runWorkload(w, 1, 0, traced, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				if r.failed != 0 || r.attempted < w.fetchers {
					t.Fatalf("%d of %d fetches failed: %v", r.failed, r.attempted, r.failures)
				}
				out, err := report(spec, r)
				if err != nil {
					t.Fatal(err)
				}
				names := spec.EndToEnd
				if traced {
					names = spec.PerLayer
				}
				for _, ms := range names {
					v, ok := out.Metrics[ms.Name]
					if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("%s: emitted %v (present %v)", ms.Name, v.Value, ok)
					}
					if !traced && v.Value <= 0 {
						t.Errorf("%s: end-to-end metric is %v, must be positive", ms.Name, v.Value)
					}
				}
			})
		}
	}
}

// fakeTransport is a Transport without the batch interfaces: it records
// every frame sent, in order, and hands out queued frames one per Recv.
type fakeTransport struct {
	sent  [][]byte
	queue []transport.Frame
}

func (f *fakeTransport) LocalAddr() transport.Addr { return "fake" }
func (f *fakeTransport) Close() error              { return nil }
func (f *fakeTransport) Send(_ transport.Addr, frame []byte) error {
	f.sent = append(f.sent, bytes.Clone(frame))
	return nil
}
func (f *fakeTransport) Recv(context.Context) (transport.Frame, error) {
	if len(f.queue) == 0 {
		return transport.Frame{}, transport.ErrClosed
	}
	fr := f.queue[0]
	f.queue = f.queue[1:]
	return fr, nil
}

// fakeBatch adds the batch interfaces and records how it was called.
type fakeBatch struct {
	fakeTransport
	sendBatches []int
	recvBatches int
}

func (f *fakeBatch) SendBatch(to transport.Addr, frames [][]byte) (int, error) {
	f.sendBatches = append(f.sendBatches, len(frames))
	for _, fr := range frames {
		f.Send(to, fr)
	}
	return len(frames), nil
}

func (f *fakeBatch) RecvBatch(_ context.Context, out []transport.Frame) (int, error) {
	if len(f.queue) == 0 {
		return 0, transport.ErrClosed
	}
	f.recvBatches++
	n := copy(out, f.queue)
	f.queue = f.queue[n:]
	return n, nil
}

// TestTapIsTransparent: a tapped transport sees the same inner calls, in
// the same order, as an untapped one; frames come back untouched and
// still owned by the receiver, whose Release runs the hook exactly once.
func TestTapIsTransparent(t *testing.T) {
	frames := [][]byte{{kindData, 1, 2, 3}, {kindReq, 9}, {kindData, 4}}
	released := make([]int, len(frames))
	queue := func() []transport.Frame {
		q := make([]transport.Frame, len(frames))
		for i, f := range frames {
			q[i] = transport.NewFrame("peer", f, func() { released[i]++ })
		}
		return q
	}

	t.Run("per-frame inner", func(t *testing.T) {
		inner := &fakeTransport{queue: queue()}
		tp := newTap(inner, time.Now(), true, nil)
		if n, err := tp.SendBatch("dst", frames); n != len(frames) || err != nil {
			t.Fatalf("SendBatch = %d, %v", n, err)
		}
		if err := tp.Send("dst", frames[1]); err != nil {
			t.Fatal(err)
		}
		want := append(append([][]byte{}, frames...), frames[1])
		if len(inner.sent) != len(want) {
			t.Fatalf("inner saw %d sends, want %d", len(inner.sent), len(want))
		}
		for i := range want {
			if !bytes.Equal(inner.sent[i], want[i]) {
				t.Errorf("send %d: got %v want %v", i, inner.sent[i], want[i])
			}
		}
		// Without a batch path underneath, RecvBatch yields one frame a call.
		out := make([]transport.Frame, 8)
		for i := range frames {
			n, err := tp.RecvBatch(context.Background(), out)
			if n != 1 || err != nil {
				t.Fatalf("RecvBatch %d = %d, %v", i, n, err)
			}
			if !bytes.Equal(out[0].Data, frames[i]) || out[0].From != "peer" {
				t.Errorf("frame %d altered: %v from %s", i, out[0].Data, out[0].From)
			}
			if released[i] != 0 {
				t.Errorf("tap released frame %d", i)
			}
			out[0].Release()
			out[0].Release()
			if released[i] != 1 {
				t.Errorf("frame %d released %d times, want 1", i, released[i])
			}
		}
		if _, err := tp.RecvBatch(context.Background(), out); err != transport.ErrClosed {
			t.Errorf("error not passed through: %v", err)
		}
		if got := tp.captured(); len(got) != 2 || !bytes.Equal(got[0], frames[0][1:]) || !bytes.Equal(got[1], frames[2][1:]) {
			t.Errorf("captured DATA frames = %v", got)
		}
		spans := tp.recorded()
		if len(spans) != 5 || !spans[0].send || spans[0].frames != 3 || spans[0].kinds[kindData] != 2 || spans[2].send {
			t.Errorf("spans = %+v", spans)
		}
	})

	t.Run("batch inner", func(t *testing.T) {
		clear(released)
		inner := &fakeBatch{fakeTransport: fakeTransport{queue: queue()}}
		tp := newTap(inner, time.Now(), false, nil)
		if n, err := tp.SendBatch("dst", frames); n != len(frames) || err != nil {
			t.Fatalf("SendBatch = %d, %v", n, err)
		}
		if len(inner.sendBatches) != 1 || inner.sendBatches[0] != len(frames) {
			t.Errorf("batch not forwarded whole: %v", inner.sendBatches)
		}
		out := make([]transport.Frame, 8)
		n, err := tp.RecvBatch(context.Background(), out)
		if n != len(frames) || err != nil || inner.recvBatches != 1 {
			t.Fatalf("RecvBatch = %d, %v after %d inner calls", n, err, inner.recvBatches)
		}
		for i := range frames {
			if !bytes.Equal(out[i].Data, frames[i]) {
				t.Errorf("frame %d out of order or altered: %v", i, out[i].Data)
			}
			out[i].Release()
			if released[i] != 1 {
				t.Errorf("frame %d released %d times, want 1", i, released[i])
			}
		}
		if got := tp.captured(); len(got) != 0 {
			t.Errorf("capture off, yet %d frames kept", len(got))
		}
	})
}

func TestMedianAndPercentile(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	if got := percentile(xs, 0.9); got != 90 {
		t.Errorf("p90 of 0..100 = %v", got)
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
	if !math.IsNaN(median([]float64{math.NaN(), math.NaN()})) {
		t.Error("median of n/a values must stay n/a")
	}
}

// TestTailRule: a percentile is reported only with at least ten samples
// beyond it; with fewer than 20 samples nothing but the median is.
func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want string
	}{{1, ""}, {19, ""}, {20, ""}, {39, ""}, {40, "p75"}, {99, "p75"}, {100, "p90"}, {200, "p95"}, {1000, "p99"}} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		name, _, ok := tail(xs)
		if name != tc.want || ok != (tc.want != "") {
			t.Errorf("n=%d: tail = %q, %v; want %q", tc.n, name, ok, tc.want)
		}
	}
	if s := timingSummary([]float64{1, 2, 3}, "s"); s != "2.0000 s n=3" {
		t.Errorf("summary of 3 samples = %q", s)
	}
}
