//go:build linux && (amd64 || arm64) && !ltnc_portable

package transport

import (
	"context"
	"errors"
	"testing"
	"time"
)

// Tests that reach into the batched fast path's socket state, which the
// portable fallback does not have.

func TestUDPSendBatchIntoClosedSocketReturnsErrClosed(t *testing.T) {
	a, b := listenPair(t, udpConfig{})
	a.conn.Close()
	_, err := a.SendBatch(b.LocalAddr(), [][]byte{[]byte("x"), []byte("y")})
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("batch send into closed socket = %v, want ErrClosed", err)
	}
}

// A socket that took UDP_GRO arms min(Batch, groSlots) recvmmsg
// slots, each with a MaxFrame buffer; without GRO it arms Batch.
func TestRecvSlotsFollowGRO(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  udpConfig
		want int
	}{
		{"gro", udpConfig{}, groSlots},
		{"gro-small-batch", udpConfig{Batch: 4}, 4},
		{"no-gro", udpConfig{DisableGRO: true}, 32},
		{"no-gro-max-batch", udpConfig{Batch: 64, DisableGRO: true}, 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, err := listenUDP("127.0.0.1:0", tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			if !tc.cfg.DisableGRO && !a.Stats().GRO {
				t.Skip("kernel refused UDP_GRO")
			}
			if a.batch.slots != tc.want {
				t.Fatalf("%d recvmmsg slots, want %d", a.batch.slots, tc.want)
			}
		})
	}
}

// More GRO super-datagrams than a socket has slots, queued in the kernel
// while its reader is parked on a full ring, come out whole and in order
// over successive recvmmsg calls, none of which fills more than groSlots
// messages.
func TestGROBurstSpansRecvCalls(t *testing.T) {
	// One burst is one GSO send of segs frames. The reader takes at most
	// two calls' worth (a call that fills the ring, then one it parks
	// holding), so with 2·groSlots+2 bursts at least groSlots+1 wait in
	// the kernel at once.
	const bursts, segs, size = 2*groSlots + 2, 32, 64
	a, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := listenUDP("127.0.0.1:0", udpConfig{RingSize: segs})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if !a.Stats().GSO || !b.Stats().GRO {
		t.Skip("kernel refused UDP_SEGMENT or UDP_GRO")
	}
	frames := make([][]byte, segs)
	for i := range bursts {
		for j := range frames {
			frames[j] = make([]byte, size)
			frames[j][0], frames[j][1] = byte(i), byte(j)
		}
		if n, err := a.SendBatch(b.LocalAddr(), frames); err != nil || n != segs {
			t.Fatalf("burst %d: sent %d of %d: %v", i, n, segs, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	out := make([]Frame, 64)
	for got := 0; got < bursts*segs; {
		n, err := b.RecvBatch(ctx, out)
		if err != nil {
			t.Fatalf("after %d frames: %v", got, err)
		}
		for _, f := range out[:n] {
			i, j := got/segs, got%segs
			if len(f.Data) != size || f.Data[0] != byte(i) || f.Data[1] != byte(j) || f.From != a.LocalAddr() {
				t.Fatalf("frame %d: got %d bytes from %s starting %v, want burst %d frame %d from %s",
					got, len(f.Data), f.From, f.Data[:min(2, len(f.Data))], i, j, a.LocalAddr())
			}
			f.Release()
			got++
		}
	}
	s := b.Stats()
	if s.RecvFrames != bursts*segs {
		t.Fatalf("%d frames counted, want %d", s.RecvFrames, bursts*segs)
	}
	if s.RecvSyscalls < 2 || s.RecvMessages > groSlots*s.RecvSyscalls {
		t.Fatalf("%d messages in %d recvmmsg calls: want ≥ 2 calls of ≤ %d", s.RecvMessages, s.RecvSyscalls, groSlots)
	}
	t.Logf("%d frames: %d messages in %d recvmmsg calls", s.RecvFrames, s.RecvMessages, s.RecvSyscalls)
}
