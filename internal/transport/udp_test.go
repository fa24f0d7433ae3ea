package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"
)

func listenPair(t *testing.T, cfg udpConfig) (*UDPTransport, *UDPTransport) {
	t.Helper()
	a, err := listenUDP("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := listenUDP("127.0.0.1:0", cfg)
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

// portableShape gives the fast path the fallback's shape: one datagram
// a recvmmsg and a sendmmsg, no offload. Built with ltnc_portable, where
// every configuration runs the fallback, it is the fallback itself.
var portableShape = udpConfig{Batch: 1, DisableGSO: true, DisableGRO: true}

// The full Transport contract must hold across every configuration of
// the transport; built with ltnc_portable, every case runs the fallback.
func TestUDPConfigConformance(t *testing.T) {
	cases := []struct {
		name string
		cfg  udpConfig
	}{
		{"portable", portableShape},
		{"batched", udpConfig{}},
		{"no-offload", udpConfig{DisableGSO: true, DisableGRO: true}},
		{"tiny-batch", udpConfig{Batch: 2, RingSize: 4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, err := listenUDP("127.0.0.1:0", tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := listenUDP("127.0.0.1:0", tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			defer b.Close()
			conformance(t, a, b)
		})
	}
}

// Each SendBatch hands over 48 equal-size frames, more than either
// configuration's Batch, so the fast path splits them across syscalls.
// The second configuration's 4-frame ring fills long before the 96
// frames are in, so its reader parks until the consumer frees room.
func TestUDPSendBatchRecvBatchRoundTrip(t *testing.T) {
	for _, cfg := range []udpConfig{{}, {Batch: 2, RingSize: 4}} {
		a, b := listenPair(t, cfg)
		sendRecvInOrder(t, a, b, 96)
	}
}

func sendRecvInOrder(t *testing.T, a, b *UDPTransport, total int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	frames := make([][]byte, 0, 48)
	sent := 0
	for sent < total {
		frames = frames[:0]
		for i := 0; i < 48; i++ {
			frames = append(frames, []byte(fmt.Sprintf("frame %03d", sent+i)))
		}
		n, err := a.SendBatch(b.LocalAddr(), frames)
		if err != nil {
			t.Fatalf("send batch: %v", err)
		}
		if n != len(frames) {
			t.Fatalf("send batch accepted %d of %d", n, len(frames))
		}
		sent += n
	}

	// Loopback does not drop or reorder on one socket: every frame
	// arrives, in order, whatever mix of batch sizes Recv returns.
	out := make([]Frame, 64)
	got := 0
	for got < total {
		n, err := b.RecvBatch(ctx, out)
		if err != nil {
			t.Fatalf("recv batch after %d frames: %v", got, err)
		}
		for _, f := range out[:n] {
			if want := fmt.Sprintf("frame %03d", got); string(f.Data) != want {
				t.Fatalf("frame %d = %q, want %q", got, f.Data, want)
			}
			if f.From != a.LocalAddr() {
				t.Fatalf("frame from %q, want %q", f.From, a.LocalAddr())
			}
			f.Release()
			got++
		}
	}
}

// The headline acceptance number: batching must collapse send syscalls
// by at least 4x vs one frame per syscall. A 32-frame uniform batch is
// one GSO sendmsg or one sendmmsg — deterministically ≥ 8x — so assert
// on the send side, which does not depend on receive timing.
func TestUDPSendBatchSyscallReduction(t *testing.T) {
	if !batchSupported {
		t.Skip("no batch fast path on this platform")
	}
	a, b := listenPair(t, udpConfig{})
	if !a.Stats().BatchEnabled {
		t.Skip("batch path did not initialize")
	}
	frames := make([][]byte, 32)
	for i := range frames {
		frames[i] = make([]byte, 1024)
		frames[i][0] = byte(i)
	}
	before := a.Stats()
	if n, err := a.SendBatch(b.LocalAddr(), frames); err != nil || n != 32 {
		t.Fatalf("send batch = %d, %v", n, err)
	}
	after := a.Stats()
	syscalls := after.SendSyscalls - before.SendSyscalls
	sentFrames := after.SentFrames - before.SentFrames
	if sentFrames != 32 {
		t.Fatalf("sent frames = %d, want 32", sentFrames)
	}
	if syscalls*4 > sentFrames {
		t.Fatalf("%d syscalls for %d frames: reduction below 4x", syscalls, sentFrames)
	}
	if after.GSO && after.GSOBatches == before.GSOBatches && syscalls != 1 {
		t.Fatalf("GSO active but uniform batch took %d syscalls and no GSO batch", syscalls)
	}
}

// Regression: a send racing the socket's close must surface ErrClosed,
// not an opaque wrapped error — symmetric with Recv. White-box: close
// the underlying conn without flipping the transport's closed flag.
func TestUDPSendIntoClosedSocketReturnsErrClosed(t *testing.T) {
	a, b := listenPair(t, udpConfig{})
	a.conn.Close()
	if err := a.Send(b.LocalAddr(), []byte("late")); !errors.Is(err, ErrClosed) {
		t.Fatalf("send into closed socket = %v, want ErrClosed", err)
	}
}

// A Recv blocked on an empty ring must honor context cancellation
// promptly: the consumer parks on the context, not on the socket.
func TestUDPRecvCancelPromptly(t *testing.T) {
	a, _ := listenPair(t, udpConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := a.Recv(ctx)
		errc <- err
	}()
	time.Sleep(30 * time.Millisecond)
	start := time.Now()
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("recv = %v, want context.Canceled", err)
		}
		if wait := time.Since(start); wait > time.Second {
			t.Fatalf("cancellation took %v", wait)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancel did not unblock Recv")
	}
}

// After one context is cancelled, receives under a fresh context must
// still work: a cancelled Recv may not wedge the reader or the ring.
func TestUDPRecvSurvivesContextChurn(t *testing.T) {
	a, b := listenPair(t, udpConfig{})
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := b.Recv(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("round %d: cancelled recv = %v", i, err)
		}
		ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
		if err := a.Send(b.LocalAddr(), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		f, err := b.Recv(ctx2)
		if err != nil {
			t.Fatalf("round %d: recv under fresh ctx = %v", i, err)
		}
		if f.Data[0] != byte(i) {
			t.Fatalf("round %d: got %v", i, f.Data)
		}
		f.Release()
		cancel2()
	}
}

// Satellite: allocation budgets for the hot paths. One steady-state
// send+recv round trip must stay within a small constant number of
// allocations — no per-frame buffers, no address formatting.
func TestUDPAllocsPerFrame(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under the race detector")
	}
	cases := []struct {
		name   string
		cfg    udpConfig
		budget float64
	}{
		// Pooled buffer and release closure per frame; the fast path's
		// addr cache eliminates the formatting, and the fallback
		// (ltnc_portable) pays from.String() per datagram.
		{"portable", portableShape, 8},
		{"batched", udpConfig{}, 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b := listenPair(t, tc.cfg)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			payload := make([]byte, 1024)
			dst := b.LocalAddr()
			// Warm up: resolve the peer, fill caches.
			for i := 0; i < 4; i++ {
				if err := a.Send(dst, payload); err != nil {
					t.Fatal(err)
				}
				f, err := b.Recv(ctx)
				if err != nil {
					t.Fatal(err)
				}
				f.Release()
			}
			got := testing.AllocsPerRun(200, func() {
				if err := a.Send(dst, payload); err != nil {
					t.Fatal(err)
				}
				f, err := b.Recv(ctx)
				if err != nil {
					t.Fatal(err)
				}
				f.Release()
			})
			if got > tc.budget {
				t.Fatalf("send+recv round trip = %.1f allocs/frame, budget %.1f", got, tc.budget)
			}
		})
	}
}

func TestUDPSendBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under the race detector")
	}
	if !batchSupported {
		t.Skip("no batch fast path on this platform")
	}
	a, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	// AllocsPerRun counts every malloc in the process: a receiving
	// transport's reader goroutine, re-arming its pooled buffers as the
	// frames pile up, would be counted against SendBatch. The frames go to a
	// plain socket nothing reads; the kernel drops what its buffer cannot
	// hold.
	sink, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	frames := make([][]byte, 32)
	for i := range frames {
		frames[i] = make([]byte, 512)
	}
	dst := Addr(sink.LocalAddr().String())
	if _, err := a.SendBatch(dst, frames); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(100, func() {
		if _, err := a.SendBatch(dst, frames); err != nil {
			t.Fatal(err)
		}
	})
	// 32 frames per run: the vectors are preallocated and the sockaddr
	// cached, so the whole batch should cost at most ~2 allocations.
	if got > 2 {
		t.Fatalf("SendBatch(32 frames) = %.1f allocs/run, budget 2", got)
	}
}

func TestUDPStatsSnapshot(t *testing.T) {
	a, b := listenPair(t, udpConfig{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := a.Send(b.LocalAddr(), []byte("one")); err != nil {
		t.Fatal(err)
	}
	f, err := b.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	f.Release()
	as, bs := a.Stats(), b.Stats()
	if as.SendSyscalls < 1 || as.SentFrames < 1 {
		t.Fatalf("sender stats not counted: %+v", as)
	}
	if bs.RecvSyscalls < 1 || bs.RecvMessages < 1 || bs.RecvFrames < 1 {
		t.Fatalf("receiver stats not counted: %+v", bs)
	}
	if bs.RecvMessages > bs.RecvFrames {
		t.Fatalf("%d messages gave %d frames: a message is at least one frame", bs.RecvMessages, bs.RecvFrames)
	}
	if bs.BatchEnabled != batchSupported {
		t.Fatalf("BatchEnabled = %v, batchSupported = %v", bs.BatchEnabled, batchSupported)
	}
}

// A received frame may wait in an ingest queue for as long as its decode
// worker is busy, and there it should hold a buffer of its own size
// class: a small frame off the Switch or off the UDP reader owns at most
// smallFrame bytes, a large one still gets through intact.
func TestSmallFramesOwnSmallBuffers(t *testing.T) {
	sw, err := NewSwitch(SwitchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	sa, err := sw.Attach("a")
	if err != nil {
		t.Fatal(err)
	}
	sb, err := sw.Attach("b")
	if err != nil {
		t.Fatal(err)
	}
	ua, ub := listenPair(t, udpConfig{})
	for _, link := range []struct {
		name     string
		from, to Transport
	}{
		{"switch", sa, sb},
		{"udp", ua, ub},
	} {
		for _, n := range []int{1200, smallFrame, smallFrame + 1, 30000} {
			payload := bytes.Repeat([]byte{byte(n)}, n)
			if err := link.from.Send(link.to.LocalAddr(), payload); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			f, err := link.to.Recv(ctx)
			cancel()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(f.Data, payload) {
				t.Fatalf("%s: %d-byte frame corrupted in transit", link.name, n)
			}
			if n <= smallFrame && cap(f.Data) > smallFrame {
				t.Errorf("%s: %d-byte frame owns a %d-byte buffer, want ≤ %d", link.name, n, cap(f.Data), smallFrame)
			}
			f.Release()
		}
	}
}
