package session

import (
	"bytes"
	"context"
	"encoding/binary"
	"testing"
	"time"

	"ltnc/internal/packet"
	"ltnc/internal/transport"
)

// TestAdaptiveReceiptEmission feeds a relay a stream of native
// rows by hand, stamped with their send sequence as a sender stamps them,
// the fourth row's stamp missing — the link lost it — and expects kind-6
// receipt reports carrying the cumulative received/innovative counters and
// the departure count — one by the time receiptEvery frames are in,
// possibly earlier ones whenever the relay's queue ran dry in between —
// and, the generation still filling, its frontier: the natives fed so far.
// (Unstamped rows get a departure count of 0: TestReceiptFlushedOnDrain.)
func TestAdaptiveReceiptEmission(t *testing.T) {
	sw, err := transport.NewSwitch(transport.SwitchConfig{QueueDepth: 256})
	if err != nil {
		t.Fatal(err)
	}
	startSession(t, attach(t, sw, "relay"), func(c *Config) {
		c.Relay = true
		c.Tick = time.Hour
	})
	probe := attach(t, sw, "probe")
	defer probe.Close()

	id := packet.NewObjectID([]byte("receipt emission"))
	const k = 2 * receiptEvery // completion must not preempt the receipt
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	seq := func(i uint32) uint32 { return i + 1 + uint32(btoi(i >= 3)) } // row i's send sequence: 4 was lost
	for i := 0; i < receiptEvery; i++ {
		p := packet.Native(k, i, bytes.Repeat([]byte{byte(i)}, 8))
		p.Object, p.Stamp = id, packet.SeqStamp(uint64(seq(uint32(i))))
		wire, err := packet.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := probe.Send("relay", append([]byte{packet.FrameData}, wire...)); err != nil {
			t.Fatal(err)
		}
	}
	for received := uint32(0); received < receiptEvery; {
		f, err := probe.Recv(ctx)
		if err != nil {
			t.Fatalf("last receipt reported %d rows of %d: %v", received, receiptEvery, err)
		}
		// No run came: each receipt says it needs the first.
		r, _ := parseReport(f.Data)
		if !isNeed(f.Data) || r.Need != 0 || len(r.Frontier) != packet.FrontierLen(k) {
			t.Fatalf("reply = %x, want a report needing run 0 with a %d-byte frontier", f.Data, packet.FrontierLen(k))
		}
		if r.Object != id {
			t.Fatalf("receipt for %v, want %v", r.Object, id)
		}
		next, innovative, departed := r.Received, r.Innovative, r.Departed
		if frontier := binary.LittleEndian.Uint32(r.Frontier); frontier != 1<<next-1 {
			t.Fatalf("frontier %032b with natives 0..%d in", frontier, next-1)
		}
		f.Release()
		if next <= received || next > receiptEvery || innovative != next || departed != seq(next-1) {
			t.Fatalf("receipt counters (%d, %d, departed %d) after %d, want cumulative, all innovative, at most %d, and the last row's sequence %d",
				next, innovative, departed, received, receiptEvery, seq(next-1))
		}
		received = next
	}
}

func bigEndianU32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// TestSystematicFirstPass: a source answers a subscription with every
// native exactly once, in order, as degree-1 rows before any coded
// repair — and the stats expose the count.
func TestSystematicFirstPass(t *testing.T) {
	sw, err := transport.NewSwitch(transport.SwitchConfig{QueueDepth: 4096})
	if err != nil {
		t.Fatal(err)
	}
	src := startSession(t, attach(t, sw, "source"), func(c *Config) { c.Tick = time.Millisecond })
	probe := attach(t, sw, "probe")
	defer probe.Close()

	const k = 16
	id, err := src.Serve(testContent(k*64, 24), k, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := probe.Send("source", subReport(id)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var natives []int
	for len(natives) < k {
		f, err := probe.Recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(f.Data) == 0 || f.Data[0] != packet.FrameData {
			f.Release()
			continue
		}
		h, err := packet.ReadHeader(bytes.NewReader(f.Data[1:]))
		f.Release()
		if err != nil {
			t.Fatal(err)
		}
		if d := h.Vec.PopCount(); d != 1 {
			t.Fatalf("coded frame (degree %d) before the systematic pass finished (%d/%d natives seen)",
				d, len(natives), k)
		}
		natives = append(natives, h.Vec.LowestSet())
	}
	for i, x := range natives {
		if x != i {
			t.Fatalf("systematic pass out of order: position %d carried native %d (%v)", i, x, natives)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		stats, ok := src.Object(id)
		if !ok {
			t.Fatal("source lost its object")
		}
		if stats.Systematic >= k {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("Systematic stat = %d, want ≥ %d", stats.Systematic, k)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdaptiveEndToEnd runs a full source → relay → fetcher transfer on
// the feedback loop — receipts pacing every hop, the systematic first pass
// — and checks the plain correctness bar: the content arrives
// byte-identical, and the source's pass went out.
func TestAdaptiveEndToEnd(t *testing.T) {
	sw, err := transport.NewSwitch(transport.SwitchConfig{QueueDepth: 1024, Seed: 25})
	if err != nil {
		t.Fatal(err)
	}
	src := startSession(t, attach(t, sw, "source"), nil)
	startSession(t, attach(t, sw, "relay"), func(c *Config) { c.Relay = true })
	client := startSession(t, attach(t, sw, "client"), nil)

	content := testContent(32*1024, 26)
	id, err := src.Serve(content, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	src.AddPeer("relay")

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	got, stats, err := client.Fetch(ctx, id, "relay")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("transfer corrupted the content")
	}
	if stats.Overhead() < 1 {
		t.Fatalf("overhead %.3f < 1", stats.Overhead())
	}
	srcStats, ok := src.Object(id)
	if !ok {
		t.Fatal("source lost its object")
	}
	if srcStats.Systematic == 0 {
		t.Error("source pushed no systematic rows")
	}
}

// TestLyingReceiverDoesNotStarveHonest: a receiver spamming forged
// under-claiming receipts (estimator input it fully controls) must not
// break the transfer to an honest peer sharing the same source, and the
// source's estimate for the liar stays at the clamp.
func TestLyingReceiverDoesNotStarveHonest(t *testing.T) {
	sw, err := transport.NewSwitch(transport.SwitchConfig{QueueDepth: 4096, Seed: 27})
	if err != nil {
		t.Fatal(err)
	}
	src := startSession(t, attach(t, sw, "source"), nil)
	client := startSession(t, attach(t, sw, "client"), nil)
	liar := attach(t, sw, "liar")
	defer liar.Close()

	content := testContent(16*1024, 28)
	id, err := src.Serve(content, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The liar subscribes and floods forged receipts: "I received
	// nothing", forever — the under-claim that extorts redundancy.
	if err := liar.Send("source", subReport(id)); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	lied := make(chan struct{})
	go func() {
		defer close(lied)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			liar.Send("source", receiptFrame(id, 0, 0, 0))
			// Drain so the switch queue toward the liar stays clear.
			ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
			if f, err := liar.Recv(ctx); err == nil {
				f.Release()
			}
			cancel()
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	got, _, err := client.Fetch(ctx, id, "source")
	close(stop)
	<-lied
	if err != nil {
		t.Fatalf("honest fetch starved by lying receiver: %v", err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("content mismatch")
	}
	s := src
	s.mu.Lock()
	st := s.objects[id]
	var liarLoss float64
	if ps, ok := st.peers["liar"]; ok {
		liarLoss = ps.link.Loss()
	}
	s.mu.Unlock()
	if liarLoss > 0.6 {
		t.Fatalf("liar's loss estimate %v escaped the clamp", liarLoss)
	}
}
