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

// TestReceiptResetsSatiationStreak pins the satiation streak's reset
// paths: a kind-5 receipt showing innovative progress clears both the
// redundancy streak and any standing backoff (redundancy aborts and
// receipts race on the wire, so a stale streak must not keep a
// progressing peer paused), while a receipt without innovative progress
// leaves the streak alone.
func TestReceiptResetsSatiationStreak(t *testing.T) {
	sw, err := transport.NewSwitch(transport.SwitchConfig{QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	s := startSession(t, attach(t, sw, "src"), func(c *Config) {
		c.Adaptive = true
		c.Tick = time.Hour // passive: no pushes interfere
	})
	id, err := s.Serve(testContent(1024, 21), 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	st := s.objects[id]
	ps := st.peer("peer")
	ps.consecRedund = satiationLimit - 1
	ps.pauseUntil = s.clk.Now().Add(time.Hour)
	s.mu.Unlock()

	// Innovative progress: 16 rows received, 8 innovative (from zero).
	s.handleFeedback("peer", receiptFrame(id, 0, 16, 8)[1:])
	s.mu.Lock()
	if ps.consecRedund != 0 {
		t.Errorf("innovative receipt left consecRedund = %d", ps.consecRedund)
	}
	if !ps.pauseUntil.IsZero() {
		t.Error("innovative receipt did not lift the satiation pause")
	}
	ps.consecRedund = 5
	s.mu.Unlock()

	// Received grew, innovative did not: redundant traffic, no reset.
	s.handleFeedback("peer", receiptFrame(id, 0, 32, 8)[1:])
	s.mu.Lock()
	if ps.consecRedund != 5 {
		t.Errorf("redundant-only receipt changed consecRedund to %d", ps.consecRedund)
	}
	s.mu.Unlock()

	// Kind-3 feedback (generation complete elsewhere) keeps resetting the
	// streak as before — the pre-adaptive reset path must survive.
	gid, err := s.Serve(testContent(2048, 22), 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	gst := s.objects[gid]
	gps := gst.peer("peer")
	gps.consecRedund = satiationLimit - 1
	s.mu.Unlock()
	s.handleFeedback("peer", genFeedbackFrame(gid, 1)[1:])
	s.mu.Lock()
	if gps.consecRedund != 0 {
		t.Errorf("kind-3 feedback left consecRedund = %d", gps.consecRedund)
	}
	if !gps.gensDone[1] || gps.gensDoneN != 1 {
		t.Errorf("kind-3 feedback not recorded: %v n=%d", gps.gensDone, gps.gensDoneN)
	}
	s.mu.Unlock()
}

// TestAdaptiveBudgetPausesEarly: with AdaptBudget on and a clean link
// estimate, the redundancy streak trips the pause at the estimator's
// floored budget instead of the full static satiationLimit.
func TestAdaptiveBudgetPausesEarly(t *testing.T) {
	sw, err := transport.NewSwitch(transport.SwitchConfig{QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	s := startSession(t, attach(t, sw, "src"), func(c *Config) {
		c.Adaptive = true
		c.Tick = time.Hour
	})
	id, err := s.Serve(testContent(1024, 23), 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	st := s.objects[id]
	ps := st.peer("peer")
	s.mu.Unlock()
	// A clean receipt (everything sent was received) drops the budget to
	// the floor: satiationLimit/8.
	s.handleFeedback("peer", receiptFrame(id, 0, 8, 8)[1:])
	s.mu.Lock()
	budget := ps.link.Budget(satiationLimit)
	s.mu.Unlock()
	if budget >= satiationLimit {
		t.Fatalf("clean-link budget %d not below static %d", budget, satiationLimit)
	}
	fb := feedbackFrame(id, fbRedundant)
	for i := 0; i < budget; i++ {
		s.handleFeedback("peer", fb[1:])
	}
	s.mu.Lock()
	paused := s.clk.Now().Before(ps.pauseUntil)
	s.mu.Unlock()
	if !paused {
		t.Fatalf("peer not paused after %d redundant reports (adaptive budget)", budget)
	}
}

// TestAdaptiveReceiptEmission feeds an adaptive relay a stream of native
// rows by hand, stamped with their send sequence as a sender stamps them,
// the fourth row's stamp missing — the link lost it — and expects kind-6
// receipt reports carrying the cumulative received/innovative counters and
// the departure count — one by the time receiptEvery frames are in,
// possibly earlier ones whenever the relay's queue ran dry in between —
// and, the generation still filling, its frontier: the natives fed so far.
// (Unstamped rows get kind 5, byte for byte as before stamps:
// TestReceiptFlushedOnDrain.)
func TestAdaptiveReceiptEmission(t *testing.T) {
	sw, err := transport.NewSwitch(transport.SwitchConfig{QueueDepth: 256})
	if err != nil {
		t.Fatal(err)
	}
	startSession(t, attach(t, sw, "relay"), func(c *Config) {
		c.Relay = true
		c.Adaptive = true
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
		if err := probe.Send("relay", append([]byte{frameData}, wire...)); err != nil {
			t.Fatal(err)
		}
	}
	for received := uint32(0); received < receiptEvery; {
		f, err := probe.Recv(ctx)
		if err != nil {
			t.Fatalf("last receipt reported %d rows of %d: %v", received, receiptEvery, err)
		}
		if f.Data[17] != fbDeparted || len(f.Data) != departedLen+frontierLen(k) {
			t.Fatalf("reply = %x, want a kind-6 receipt with a %d-byte frontier", f.Data, frontierLen(k))
		}
		var gotID packet.ObjectID
		copy(gotID[:], f.Data[1:17])
		if gotID != id {
			t.Fatalf("receipt for %v, want %v", gotID, id)
		}
		next, innovative, departed := bigEndianU32(f.Data[22:26]), bigEndianU32(f.Data[26:30]), bigEndianU32(f.Data[30:34])
		if frontier := binary.LittleEndian.Uint32(f.Data[departedLen:]); frontier != 1<<next-1 {
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

// TestSystematicFirstPass: an adaptive source answers a REQ with every
// native exactly once, in order, as degree-1 rows before any coded
// repair — and the stats expose the count.
func TestSystematicFirstPass(t *testing.T) {
	sw, err := transport.NewSwitch(transport.SwitchConfig{QueueDepth: 4096})
	if err != nil {
		t.Fatal(err)
	}
	src := startSession(t, attach(t, sw, "source"), func(c *Config) {
		c.Adaptive = true
		c.Tick = time.Millisecond
		c.Burst = 4
	})
	probe := attach(t, sw, "probe")
	defer probe.Close()

	const k = 16
	id, err := src.Serve(testContent(k*64, 24), k, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := probe.Send("source", encodeReq(id)); err != nil {
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
		if len(f.Data) == 0 || f.Data[0] != frameData {
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

// TestAdaptiveEndToEnd runs a full adaptive source → adaptive relay →
// adaptive fetcher transfer and checks the plain correctness bar: the
// content arrives byte-identical, and the source saw receipt feedback
// (its loss estimator has samples).
func TestAdaptiveEndToEnd(t *testing.T) {
	sw, err := transport.NewSwitch(transport.SwitchConfig{QueueDepth: 1024, Seed: 25})
	if err != nil {
		t.Fatal(err)
	}
	adaptive := func(c *Config) { c.Adaptive = true }
	src := startSession(t, attach(t, sw, "source"), adaptive)
	startSession(t, attach(t, sw, "relay"), func(c *Config) {
		c.Relay = true
		c.Adaptive = true
	})
	client := startSession(t, attach(t, sw, "client"), adaptive)

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
		t.Fatal("adaptive transfer corrupted the content")
	}
	if stats.Overhead() < 1 {
		t.Fatalf("overhead %.3f < 1", stats.Overhead())
	}
	srcStats, ok := src.Object(id)
	if !ok {
		t.Fatal("source lost its object")
	}
	if srcStats.Systematic == 0 {
		t.Error("adaptive source pushed no systematic rows")
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
	src := startSession(t, attach(t, sw, "source"), func(c *Config) { c.Adaptive = true })
	client := startSession(t, attach(t, sw, "client"), func(c *Config) { c.Adaptive = true })
	liar := attach(t, sw, "liar")
	defer liar.Close()

	content := testContent(16*1024, 28)
	id, err := src.Serve(content, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The liar subscribes and floods forged receipts: "I received
	// nothing", forever — the under-claim that extorts redundancy.
	if err := liar.Send("source", encodeReq(id)); err != nil {
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
