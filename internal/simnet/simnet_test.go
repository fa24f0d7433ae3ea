package simnet

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"ltnc/internal/packet"
	"ltnc/internal/transport"
)

func newNet(t *testing.T, cfg Config) *Net {
	t.Helper()
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

func mustAttach(t *testing.T, n *Net, addr transport.Addr) *Port {
	t.Helper()
	p, err := n.Attach(addr)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// runUntil steps the fabric until cond holds; running out of things to
// happen first fails the test.
func runUntil(t *testing.T, n *Net, cond func() bool) {
	t.Helper()
	if err := n.Run(context.Background(), cond); err != nil {
		t.Fatal(err)
	}
}

// recvOne steps the fabric until a frame is queued at p and takes it.
func recvOne(t *testing.T, n *Net, p *Port) transport.Frame {
	t.Helper()
	runUntil(t, n, func() bool { return p.queued() > 0 })
	f, _ := p.Poll()
	return f
}

func TestFabricDeliversWithVirtualLatency(t *testing.T) {
	n := newNet(t, Config{DefaultLink: LinkConfig{Latency: 250 * time.Millisecond}})
	a := mustAttach(t, n, "a")
	b := mustAttach(t, n, "b")
	if err := a.Send("b", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Poll(); ok {
		t.Fatal("frame delivered before any virtual time passed")
	}
	f := recvOne(t, n, b)
	if string(f.Data) != "hello" || f.From != "a" {
		t.Fatalf("got %q from %s", f.Data, f.From)
	}
	f.Release()
	// The clock sits exactly at the delivery instant.
	if el := n.Elapsed(); el != 250*time.Millisecond {
		t.Fatalf("virtual elapsed %v, want 250ms", el)
	}
}

func TestFabricSendToDownAddressVanishes(t *testing.T) {
	n := newNet(t, Config{DefaultLink: LinkConfig{Latency: time.Millisecond}})
	a := mustAttach(t, n, "a")
	if err := a.Send("ghost", []byte("x")); err != nil {
		t.Fatalf("send to down address errored: %v", err)
	}
	runUntil(t, n, func() bool { return n.Stats().DropDown == 1 })
}

func TestFabricMTUAndOversize(t *testing.T) {
	n := newNet(t, Config{DefaultLink: LinkConfig{MTU: 100}})
	a := mustAttach(t, n, "a")
	mustAttach(t, n, "b")
	if err := a.Send("b", make([]byte, transport.MaxFrame+1)); err != transport.ErrFrameTooBig {
		t.Fatalf("oversize send: %v", err)
	}
	if err := a.Send("b", make([]byte, 101)); err != nil {
		t.Fatal(err)
	}
	if st := n.Stats(); st.DropMTU != 1 {
		t.Fatalf("MTU drops = %d, want 1", st.DropMTU)
	}
}

func TestFabricPartitionAndHeal(t *testing.T) {
	n := newNet(t, Config{DefaultLink: LinkConfig{Latency: time.Millisecond}})
	a := mustAttach(t, n, "a")
	b := mustAttach(t, n, "b")
	n.Partition([]transport.Addr{"a"}, []transport.Addr{"b"})
	if err := a.Send("b", []byte("blocked")); err != nil {
		t.Fatal(err)
	}
	runUntil(t, n, func() bool { return n.Stats().DropPartition == 1 })
	n.Heal()
	if err := a.Send("b", []byte("open")); err != nil {
		t.Fatal(err)
	}
	f := recvOne(t, n, b)
	if string(f.Data) != "open" {
		t.Fatalf("got %q after heal", f.Data)
	}
	f.Release()
}

func TestFabricAsymmetricLink(t *testing.T) {
	n := newNet(t, Config{DefaultLink: LinkConfig{Latency: time.Millisecond}})
	if err := n.SetLink("a", "b", LinkConfig{Latency: 500 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	a := mustAttach(t, n, "a")
	b := mustAttach(t, n, "b")
	if err := b.Send("a", []byte("fast")); err != nil {
		t.Fatal(err)
	}
	f := recvOne(t, n, a)
	f.Release()
	fastAt := n.Elapsed()
	if err := a.Send("b", []byte("slow")); err != nil {
		t.Fatal(err)
	}
	f = recvOne(t, n, b)
	f.Release()
	if fastAt != time.Millisecond {
		t.Fatalf("reverse direction took %v of virtual time, want 1ms", fastAt)
	}
	if d := n.Elapsed() - fastAt; d != 500*time.Millisecond {
		t.Fatalf("overridden direction took %v, want 500ms", d)
	}
}

func TestFabricBandwidthSerializes(t *testing.T) {
	// 1000 B/s: two 500-byte frames sent back to back arrive 0.5s apart.
	n := newNet(t, Config{DefaultLink: LinkConfig{BandwidthBPS: 1000}})
	a := mustAttach(t, n, "a")
	b := mustAttach(t, n, "b")
	buf := make([]byte, 500)
	if err := a.Send("b", buf); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("b", buf); err != nil {
		t.Fatal(err)
	}
	f := recvOne(t, n, b)
	f.Release()
	first := n.Elapsed()
	f = recvOne(t, n, b)
	f.Release()
	if first != 500*time.Millisecond || n.Elapsed()-first != 500*time.Millisecond {
		t.Fatalf("frames at %v and %v, want 500ms and 1s", first, n.Elapsed())
	}
}

// TestFabricStepsDrivenPortsInAddressOrder pins the per-instant order:
// callbacks first, then every stepper with work by address, again while
// anything is due — a stepper is called at the first instant, when a frame
// is queued at its port and when its own deadline comes, and not otherwise.
func TestFabricStepsDrivenPortsInAddressOrder(t *testing.T) {
	n := newNet(t, Config{}) // zero latency: a frame is due the instant it is sent
	var log []string
	drive := func(name transport.Addr, step func(p *Port, got int)) {
		p := mustAttach(t, n, name)
		p.Drive(func() time.Time {
			got := 0
			for f, ok := p.Poll(); ok; f, ok = p.Poll() {
				got++
				f.Release()
			}
			log = append(log, fmt.Sprintf("%s@%v+%d", name, n.Elapsed(), got))
			step(p, got)
			return n.Now().Add(10 * time.Millisecond)
		})
	}
	// c is attached first and steps second; it answers a's frame in the
	// instant it arrives.
	drive("c", func(p *Port, got int) {
		if got > 0 {
			p.Send("a", []byte("pong"))
		}
	})
	pinged := false
	drive("a", func(p *Port, _ int) {
		if !pinged {
			pinged = true
			p.Send("c", []byte("ping"))
		}
	})
	n.After(0, func() { log = append(log, "callback") })
	runUntil(t, n, func() bool { return n.Elapsed() >= 10*time.Millisecond })
	want := []string{"callback", "a@0s+0", "c@0s+0", "c@0s+1", "a@0s+1", "a@10ms+0", "c@10ms+0"}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("step order\n got  %v\n want %v", log, want)
	}
}

// TestFabricInstantMustSettle: two steppers that answer each other over a
// zero-delay link forever never let their instant end; Run reports it
// instead of hanging.
func TestFabricInstantMustSettle(t *testing.T) {
	n := newNet(t, Config{})
	for _, pair := range [][2]transport.Addr{{"a", "b"}, {"b", "a"}} {
		p, peer := mustAttach(t, n, pair[0]), pair[1]
		p.Drive(func() time.Time {
			for f, ok := p.Poll(); ok; f, ok = p.Poll() {
				f.Release()
			}
			p.Send(peer, []byte("again"))
			return n.Now().Add(time.Hour)
		})
	}
	if err := n.Run(context.Background(), func() bool { return false }); err == nil || n.Elapsed() != 0 {
		t.Fatalf("Run returned %v at %v, want the unsettled instant reported at 0s", err, n.Elapsed())
	}
	// With nothing driven and nothing scheduled there is nothing to wait
	// for either.
	idle := newNet(t, Config{})
	if err := idle.Run(context.Background(), func() bool { return false }); err == nil {
		t.Fatal("Run on an empty fabric returned nil with done still false")
	}
}

// scriptedRun drives a fully scripted workload — every send, churn event
// and partition issued from fabric callbacks — over a lossy, jittery
// 50-port fabric with mid-run crashes, a partition and rejoins, and
// returns the canonical trace hash plus stats. It is the determinism
// probe: everything that happens is a pure function of the seed.
func scriptedRun(t *testing.T, seed int64) (string, Stats) {
	t.Helper()
	const (
		ports  = 50
		rounds = 30
	)
	n := newNet(t, Config{
		Seed:       seed,
		Trace:      true,
		QueueDepth: 4096,
		DefaultLink: LinkConfig{
			Loss:    0.15,
			Latency: 3 * time.Millisecond,
			Jitter:  2 * time.Millisecond,
		},
	})
	addr := func(i int) transport.Addr { return transport.Addr(fmt.Sprintf("p%02d", i)) }
	live := make(map[int]*Port, ports)
	up := func(i int) {
		p := mustAttach(t, n, addr(i))
		live[i] = p
		p.Drive(func() time.Time {
			for f, ok := p.Poll(); ok; f, ok = p.Poll() {
				f.Release()
			}
			return n.Now().Add(time.Hour)
		})
	}
	down := func(i int) {
		live[i].Close()
		delete(live, i)
	}
	for i := 0; i < ports; i++ {
		up(i)
	}

	settled := false
	var tick func(round int)
	tick = func(round int) {
		if round == rounds {
			// Let the tail of in-flight deliveries land before reading the trace.
			n.After(100*time.Millisecond, func() { settled = true })
			return
		}
		switch round {
		case 8: // crash three ports mid-stream
			down(3)
			down(7)
			down(11)
		case 12: // split the fabric in half
			var g1, g2 []transport.Addr
			for i := 0; i < ports; i++ {
				if i%2 == 0 {
					g1 = append(g1, addr(i))
				} else {
					g2 = append(g2, addr(i))
				}
			}
			n.Partition(g1, g2)
		case 18: // heal and resurrect
			n.Heal()
			up(3)
			up(7)
			up(11)
		}
		for i := 0; i < ports; i++ {
			if p := live[i]; p != nil {
				p.Send(addr((i*7+round*3+1)%ports), make([]byte, 64+(i*13+round)%512))
			}
		}
		n.After(2*time.Millisecond, func() { tick(round + 1) })
	}
	n.After(time.Millisecond, func() { tick(0) })
	runUntil(t, n, func() bool { return settled })
	return n.TraceHash(), n.Stats()
}

// TestFabricDeterministicTrace is the reproducibility property at the
// heart of the lab: two runs of the same scripted workload on the same
// seed produce byte-identical per-frame delivery traces — same verdicts,
// same virtual timestamps — while a different seed produces a different
// trace.
func TestFabricDeterministicTrace(t *testing.T) {
	h1, st1 := scriptedRun(t, 42)
	h2, st2 := scriptedRun(t, 42)
	if h1 != h2 {
		t.Fatalf("same seed, different traces:\n  %s\n  %s", h1, h2)
	}
	if st1 != st2 {
		t.Fatalf("same seed, different stats:\n  %+v\n  %+v", st1, st2)
	}
	if st1.Delivered == 0 || st1.DropLoss == 0 || st1.DropPartition == 0 || st1.DropDown == 0 {
		t.Fatalf("workload did not exercise all verdicts: %+v", st1)
	}
	h3, _ := scriptedRun(t, 43)
	if h3 == h1 {
		t.Fatalf("different seeds produced identical traces")
	}
}

// dataFates sends 400 DATA frames over a 20 %-loss, jittered link, ctl(i)
// control frames ahead of the i-th, and returns each DATA frame's fate:
// the virtual instant it arrived at, or −1 if the link lost it.
func dataFates(t *testing.T, ctl func(i int) int) []time.Duration {
	t.Helper()
	n := newNet(t, Config{Seed: 7, QueueDepth: 1 << 12, DefaultLink: LinkConfig{
		Loss: 0.2, Latency: time.Millisecond, Jitter: 3 * time.Millisecond,
	}})
	a := mustAttach(t, n, "a")
	b := mustAttach(t, n, "b")
	fates := make([]time.Duration, 400)
	for i := range fates {
		fates[i] = -1
	}
	b.Drive(func() time.Time {
		for f, ok := b.Poll(); ok; f, ok = b.Poll() {
			if f.Data[0] == packet.FrameData {
				fates[int(f.Data[1])<<8|int(f.Data[2])] = n.Elapsed()
			}
			f.Release()
		}
		return n.Now().Add(time.Hour)
	})
	for i := range fates {
		for c := range ctl(i) {
			a.Send("b", []byte{0x04, byte(c)})
		}
		a.Send("b", []byte{packet.FrameData, byte(i >> 8), byte(i)})
	}
	n.After(10*time.Millisecond, func() {})
	runUntil(t, n, func() bool { return n.Elapsed() >= 10*time.Millisecond })
	return fates
}

// TestFabricControlFramesMoveNoDataVerdict pins the draw split: control
// frames draw loss and jitter from a stream of their own, so sending more
// of them, interleaved anyhow, leaves every DATA frame's fate — lost, or
// the instant it arrived — exactly as it was.
func TestFabricControlFramesMoveNoDataVerdict(t *testing.T) {
	alone := dataFates(t, func(int) int { return 0 })
	lost := 0
	for _, at := range alone {
		if at < 0 {
			lost++
		}
	}
	if lost < 40 || lost > 120 {
		t.Fatalf("%d of %d DATA frames lost on a 20 %% loss link", lost, len(alone))
	}
	for name, ctl := range map[string]func(int) int{
		"one each":  func(int) int { return 1 },
		"irregular": func(i int) int { return i * 7 % 5 },
	} {
		if got := dataFates(t, ctl); !slices.Equal(got, alone) {
			t.Errorf("%s: control frames moved DATA verdicts", name)
		}
	}
}
