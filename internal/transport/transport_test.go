package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
	"time"
)

// conformance exercises the Transport contract on a connected pair.
func conformance(t *testing.T, a, b Transport) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	msg := []byte("hello over the wire")
	if err := a.Send(b.LocalAddr(), msg); err != nil {
		t.Fatalf("send: %v", err)
	}
	f, err := b.Recv(ctx)
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	if !bytes.Equal(f.Data, msg) {
		t.Fatalf("recv data = %q, want %q", f.Data, msg)
	}
	if f.From != a.LocalAddr() {
		t.Fatalf("recv from = %q, want %q", f.From, a.LocalAddr())
	}
	// Reply to the sender address carried on the frame (how sessions
	// answer feedback frames).
	if err := b.Send(f.From, []byte("ack")); err != nil {
		t.Fatalf("reply: %v", err)
	}
	f.Release()
	if f.Data != nil {
		t.Fatal("release did not clear frame data")
	}
	g, err := a.Recv(ctx)
	if err != nil {
		t.Fatalf("recv reply: %v", err)
	}
	if string(g.Data) != "ack" {
		t.Fatalf("reply = %q", g.Data)
	}
	g.Release()

	if err := a.Send(b.LocalAddr(), make([]byte, MaxFrame+1)); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("oversized frame: err = %v", err)
	}

	// Cancellation unblocks Recv.
	short, scancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer scancel()
	if _, err := b.Recv(short); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancelled recv: err = %v", err)
	}

	// Close unblocks Recv with ErrClosed.
	done := make(chan error, 1)
	go func() {
		_, err := b.Recv(context.Background())
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	b.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("recv after close: err = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("close did not unblock Recv")
	}
	if err := b.Send(a.LocalAddr(), []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close: err = %v", err)
	}
}

func TestChanTransportConformance(t *testing.T) {
	sw, err := NewSwitch(SwitchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := sw.Attach("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := sw.Attach("b")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()
	conformance(t, a, b)
}

func TestUDPTransportConformance(t *testing.T) {
	a, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()
	conformance(t, a, b)
}

func TestSwitchUnknownPeer(t *testing.T) {
	sw, err := NewSwitch(SwitchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := sw.Attach("a")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Send("nobody", []byte("x")); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("err = %v", err)
	}
	if _, err := sw.Attach("a"); err == nil {
		t.Fatal("duplicate attach accepted")
	}
}

func TestSwitchLossIsDeterministic(t *testing.T) {
	counts := make([]int64, 2)
	for trial := range counts {
		sw, err := NewSwitch(SwitchConfig{LossRate: 0.5, Seed: 42, QueueDepth: 2000})
		if err != nil {
			t.Fatal(err)
		}
		a, _ := sw.Attach("a")
		b, _ := sw.Attach("b")
		for i := 0; i < 1000; i++ {
			if err := a.Send(b.LocalAddr(), []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		counts[trial] = sw.Lost()
		a.Close()
		b.Close()
	}
	if counts[0] != counts[1] {
		t.Fatalf("same seed, different loss: %d vs %d", counts[0], counts[1])
	}
	if counts[0] < 400 || counts[0] > 600 {
		t.Fatalf("loss count %d far from 500/1000", counts[0])
	}
}

func TestSwitchQueueOverflowDrops(t *testing.T) {
	sw, err := NewSwitch(SwitchConfig{QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := sw.Attach("a")
	b, _ := sw.Attach("b")
	defer a.Close()
	defer b.Close()
	for i := 0; i < 10; i++ {
		if err := a.Send(b.LocalAddr(), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := sw.Dropped(); got != 6 {
		t.Fatalf("dropped = %d, want 6", got)
	}
}

func TestSwitchLatency(t *testing.T) {
	sw, err := NewSwitch(SwitchConfig{Latency: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := sw.Attach("a")
	b, _ := sw.Attach("b")
	defer a.Close()
	defer b.Close()
	start := time.Now()
	if err := a.Send(b.LocalAddr(), []byte("delayed")); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := b.Recv(ctx); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("frame arrived after %v, want >= 20ms", elapsed)
	}
	sw.Wait()
}

func TestUDPRecvReusesPoolBuffers(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool randomizes reuse under the race detector")
	}
	a, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// Release after every Recv: the pool should stabilize on a small
	// working set, observable as a backing array coming back. The batch
	// reader re-arms its next buffer before the consumer releases the
	// current one, so a couple of buffers stay in flight — any repeat
	// counts, not specifically the first. A GC cycle empties a sync.Pool,
	// so one between a Release and the next Recv would hide the reuse
	// under a loaded host: the collector is off for the loop. Two cycles
	// first empty the pool of what earlier tests left in it: a stock of
	// small buffers parked on the reader's P would feed it a fresh one at
	// every Get while the consumer's Releases pile up on another P.
	runtime.GC()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	seen := make(map[*byte]bool)
	reused := false
	for i := 0; i < 50; i++ {
		if err := a.Send(b.LocalAddr(), []byte(fmt.Sprintf("frame %d", i))); err != nil {
			t.Fatal(err)
		}
		f, err := b.Recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		p := &f.Data[:1][0]
		if seen[p] {
			reused = true
		}
		seen[p] = true
		f.Release()
	}
	if !reused {
		t.Fatal("pool never reused a receive buffer across 50 datagrams")
	}
}
