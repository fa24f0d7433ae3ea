package session

import (
	"bytes"
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"ltnc/internal/packet"
	"ltnc/internal/transport"
)

func testContent(size int, seed int64) []byte {
	content := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(content)
	return content
}

// captureTransport records the code vectors of DATA frames crossing a
// transport, to distinguish recoding from store-and-forward.
type captureTransport struct {
	transport.Transport
	mu       sync.Mutex
	sentVecs []string
	recvVecs []string
}

func dataVec(frame []byte) (string, bool) {
	if len(frame) == 0 || frame[0] != packet.FrameData {
		return "", false
	}
	h, err := packet.ReadHeader(bytes.NewReader(frame[1:]))
	if err != nil {
		return "", false
	}
	return h.Vec.String(), true
}

func (c *captureTransport) Send(to transport.Addr, frame []byte) error {
	if v, ok := dataVec(frame); ok {
		c.mu.Lock()
		c.sentVecs = append(c.sentVecs, v)
		c.mu.Unlock()
	}
	return c.Transport.Send(to, frame)
}

func (c *captureTransport) Recv(ctx context.Context) (transport.Frame, error) {
	f, err := c.Transport.Recv(ctx)
	if err == nil {
		if v, ok := dataVec(f.Data); ok {
			c.mu.Lock()
			c.recvVecs = append(c.recvVecs, v)
			c.mu.Unlock()
		}
	}
	return f, err
}

// shortReceipts makes the session behind it a peer of the version before
// frontiers: every receipt it sends leaves as the counters alone.
type shortReceipts struct{ transport.Transport }

func (t shortReceipts) Send(to transport.Addr, frame []byte) error {
	if isReport(frame) {
		frame = frame[:1+packet.ReportLen]
	}
	return t.Transport.Send(to, frame)
}

// startSession builds and runs a session over tr; cleanup closes it.
func startSession(t *testing.T, tr transport.Transport, mut func(*Config)) *Session {
	t.Helper()
	cfg := Config{
		Transport: tr,
		Tick:      500 * time.Microsecond,
		Seed:      int64(len(t.Name())),
	}
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runSession(t, s)
	return s
}

// runSession runs s; cleanup closes it. The channel closes once Run has
// returned.
func runSession(t *testing.T, s *Session) <-chan struct{} {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Run(context.Background())
	}()
	t.Cleanup(func() {
		s.Close()
		<-done
	})
	return done
}

func attach(t *testing.T, sw *transport.Switch, name transport.Addr) *transport.ChanTransport {
	t.Helper()
	tr, err := sw.Attach(name)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestSourceRelayFetchChan is the deterministic counterpart of the UDP
// end-to-end test: source → relay (recoding) → fetch over an in-memory
// switch, byte-identical content, relay provably not store-and-forward.
// The switch drops a tenth of the frames, and the client's receipts are
// the short ones: on a lossless switch the relay's systematic pass alone
// completes the client — every native forwarded plainly as it is decoded —
// and against a frontier the relay repeats what was lost, so either way
// there is nothing left to recode.
func TestSourceRelayFetchChan(t *testing.T) {
	sw, err := transport.NewSwitch(transport.SwitchConfig{QueueDepth: 256, Seed: 11, LossRate: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	relayTr := &captureTransport{Transport: attach(t, sw, "relay")}

	src := startSession(t, attach(t, sw, "source"), nil)
	startSession(t, relayTr, func(c *Config) { c.Relay = true })
	client := startSession(t, shortReceipts{attach(t, sw, "client")}, nil)

	content := testContent(64*1024, 1)
	id, err := src.Serve(content, 128, 1)
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
		t.Fatalf("content mismatch: %d bytes fetched, %d served", len(got), len(content))
	}
	if stats.Overhead() < 1 {
		t.Fatalf("overhead %.3f < 1: decoded with fewer than k packets?", stats.Overhead())
	}
	t.Logf("fetched %d bytes, overhead %.3f, aborted %d", len(got), stats.Overhead(), stats.Aborted)

	// The relay must emit recoded packets: code vectors it never
	// received. Store-and-forward would make sent ⊆ received.
	relayTr.mu.Lock()
	received := make(map[string]bool, len(relayTr.recvVecs))
	for _, v := range relayTr.recvVecs {
		received[v] = true
	}
	fresh := 0
	for _, v := range relayTr.sentVecs {
		if !received[v] {
			fresh++
		}
	}
	sent := len(relayTr.sentVecs)
	relayTr.mu.Unlock()
	if sent == 0 {
		t.Fatal("relay sent no data frames")
	}
	if fresh == 0 {
		t.Fatalf("relay store-and-forwarded all %d frames (no recoding)", sent)
	}
	t.Logf("relay sent %d frames, %d recoded fresh", sent, fresh)
}

// TestRunSwarmSmoke is the production driver at small-swarm scale, for the
// race detector: Run's goroutines — receive loop, decode workers, push
// loop — in eleven sessions on one Switch, in real time, receipt-clocked.
// A source pushes through two relays at 10 % loss, eight fetchers pull from
// both, and one relay is closed once the first fetcher is a quarter
// through; every fetch must still return the served bytes. (The virtual
// time lab steps sessions on one goroutine, so it no longer exercises
// this.)
func TestRunSwarmSmoke(t *testing.T) {
	const k, m, fetchers = 512, 256, 8
	sw, err := transport.NewSwitch(transport.SwitchConfig{QueueDepth: 256, Seed: 17, LossRate: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	paced := func(c *Config) { c.Tick = 2 * time.Millisecond }
	src := startSession(t, attach(t, sw, "source"), paced)
	relays := make([]*Session, 2)
	for i, name := range []transport.Addr{"r0", "r1"} {
		relays[i] = startSession(t, attach(t, sw, name), func(c *Config) { paced(c); c.Relay = true })
		src.AddPeer(name)
	}
	content := testContent(k*m, 44)
	id, err := src.Serve(content, k, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	quarter := make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	for i := 0; i < fetchers; i++ {
		f := startSession(t, attach(t, sw, transport.Addr("f"+string(rune('0'+i)))), paced)
		if i == 0 {
			f.Watch(id, func(o ObjectStats) {
				if o.Decoded >= k/4 {
					once.Do(func() { close(quarter) })
				}
			})
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, _, err := f.Fetch(ctx, id, "r0", "r1")
			if err != nil {
				t.Errorf("fetcher %d: %v", i, err)
			} else if !bytes.Equal(got, content) {
				t.Errorf("fetcher %d: fetched bytes differ from the served content", i)
			}
		}()
	}
	select {
	case <-quarter:
		relays[0].Close()
	case <-ctx.Done():
		t.Error("no fetcher got a quarter through")
	}
	wg.Wait()
}

// TestMultiObjectMultiplex serves several objects over one transport and
// fetches them concurrently through the same client session.
func TestMultiObjectMultiplex(t *testing.T) {
	sw, err := transport.NewSwitch(transport.SwitchConfig{QueueDepth: 512})
	if err != nil {
		t.Fatal(err)
	}
	src := startSession(t, attach(t, sw, "source"), nil)
	client := startSession(t, attach(t, sw, "client"), nil)

	contents := [][]byte{
		testContent(16*1024, 1),
		testContent(24*1024, 2),
		testContent(8*1024, 3),
	}
	ids := make([]packet.ObjectID, len(contents))
	for i, c := range contents {
		if ids[i], err = src.Serve(c, 64, 1); err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, len(ids))
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, _, err := client.Fetch(ctx, ids[i], "source")
			if err != nil {
				errs[i] = err
				return
			}
			if !bytes.Equal(got, contents[i]) {
				t.Errorf("object %d content mismatch", i)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("fetch %d: %v", i, err)
		}
	}
	if n := len(src.Objects()); n != len(contents) {
		t.Fatalf("source holds %d objects, want %d", n, len(contents))
	}
}

// TestRedundancyAbortFeedback drives the protocol by hand: a duplicate
// packet is judged redundant on its header (the paper's Section III-C-2)
// — its payload never copied or decoded, the row counted as aborted — and
// nothing answers it but the receipt, which counts it received and not
// innovative: that is how the sender hears of it.
func TestRedundancyAbortFeedback(t *testing.T) {
	sw, err := transport.NewSwitch(transport.SwitchConfig{QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	relay := startSession(t, attach(t, sw, "relay"), func(c *Config) {
		c.Relay = true
		c.Tick = time.Hour // passive: no pushes interfere
	})
	probe := attach(t, sw, "probe")
	defer probe.Close()

	id := packet.NewObjectID([]byte("abort test"))
	p := packet.Native(16, 3, bytes.Repeat([]byte{7}, 32))
	p.Object = id
	wire, err := packet.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	frame := append([]byte{packet.FrameData}, wire...)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := probe.Send("relay", frame); err != nil {
		t.Fatal(err)
	}
	// Duplicate: redundant on the header alone.
	if err := probe.Send("relay", frame); err != nil {
		t.Fatal(err)
	}
	// The worker may take the first frame alone, its queue dry behind it:
	// then a receipt for it comes first.
	for received := uint32(0); received < 2; {
		f, err := probe.Recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !isReport(f.Data) {
			t.Fatalf("reply frame = %x, want receipts only", f.Data)
		}
		var gotID packet.ObjectID
		copy(gotID[:], f.Data[1:17])
		_, recv, innovative, _ := reportCounters(f.Data)
		received = recv
		f.Release()
		if gotID != id || innovative != 1 {
			t.Fatalf("receipt for %v reports %d received, %d innovative; want %v and 1 innovative", gotID, received, innovative, id)
		}
	}

	stats := relay.Objects()
	if len(stats) != 1 || stats[0].Aborted != 1 || stats[0].Received != 1 {
		t.Fatalf("relay stats = %+v", stats)
	}
}

// TestIdleEviction checks that a relay forgets objects nobody touches.
func TestIdleEviction(t *testing.T) {
	sw, err := transport.NewSwitch(transport.SwitchConfig{QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	relay := startSession(t, attach(t, sw, "relay"), func(c *Config) {
		c.Relay = true
		c.Tick = time.Millisecond
		c.IdleTimeout = 50 * time.Millisecond
	})
	probe := attach(t, sw, "probe")
	defer probe.Close()

	p := packet.Native(8, 1, []byte{1, 2, 3, 4})
	p.Object = packet.NewObjectID([]byte("ephemeral"))
	wire, err := packet.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := probe.Send("relay", append([]byte{packet.FrameData}, wire...)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(relay.Objects()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("relay never learned the object")
		}
		time.Sleep(time.Millisecond)
	}
	for len(relay.Objects()) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("object not evicted; relay holds %+v", relay.Objects())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServedObjectsSurviveEviction: pinned sources must never be evicted.
func TestServedObjectsSurviveEviction(t *testing.T) {
	sw, err := transport.NewSwitch(transport.SwitchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	src := startSession(t, attach(t, sw, "source"), func(c *Config) {
		c.Tick = time.Millisecond
		c.IdleTimeout = 20 * time.Millisecond
	})
	if _, err := src.Serve(testContent(1024, 9), 16, 1); err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond)
	if n := len(src.Objects()); n != 1 {
		t.Fatalf("source evicted its own object (%d left)", n)
	}
}

// proofDropTransport drops the first n MANIFEST frames sent through it,
// simulating their loss on a datagram channel.
type proofDropTransport struct {
	transport.Transport
	mu   sync.Mutex
	drop int
}

func (m *proofDropTransport) Send(to transport.Addr, frame []byte) error {
	if len(frame) > 0 && frame[0] == packet.FrameManifest {
		m.mu.Lock()
		d := m.drop
		if d > 0 {
			m.drop--
		}
		m.mu.Unlock()
		if d > 0 {
			return nil
		}
	}
	return m.Transport.Send(to, frame)
}

// TestLostMetaRecovers: the fetch must complete even when the server's
// first proof frames, which carry the object's description, are lost —
// the need beside the client's receipts brings the run again, so a dropped
// one heals instead of wedging the transfer.
func TestLostMetaRecovers(t *testing.T) {
	sw, err := transport.NewSwitch(transport.SwitchConfig{QueueDepth: 512})
	if err != nil {
		t.Fatal(err)
	}
	srcTr := &proofDropTransport{Transport: attach(t, sw, "source"), drop: 2}
	src := startSession(t, srcTr, nil)
	client := startSession(t, attach(t, sw, "client"), nil)

	content := testContent(16*1024, 11)
	id, err := src.Serve(content, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	got, _, err := client.Fetch(ctx, id, "source")
	if err != nil {
		t.Fatalf("fetch never recovered from lost proof: %v", err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("content mismatch after proof loss")
	}
}

// TestRelayLearnBounds: forged frames must not grow a relay's state
// beyond MaxObjects, nor allocate decode state for oversized k.
func TestRelayLearnBounds(t *testing.T) {
	sw, err := transport.NewSwitch(transport.SwitchConfig{QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	relay := startSession(t, attach(t, sw, "relay"), func(c *Config) {
		c.Relay = true
		c.Tick = time.Hour
		c.MaxObjects = 2
		c.MaxK = 64
	})
	probe := attach(t, sw, "probe")
	defer probe.Close()

	send := func(name string, k int) {
		p := packet.Native(k, 0, []byte{1})
		p.Object = packet.NewObjectID([]byte(name))
		wire, err := packet.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := probe.Send("relay", append([]byte{packet.FrameData}, wire...)); err != nil {
			t.Fatal(err)
		}
	}
	send("over-k", 65) // above MaxK: must not allocate
	send("a", 16)
	send("b", 16)
	send("c", 16) // above MaxObjects: must not allocate

	deadline := time.Now().Add(5 * time.Second)
	for len(relay.Objects()) < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("relay learned %d objects, want 2", len(relay.Objects()))
		}
		time.Sleep(2 * time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // allow any stragglers to land
	stats := relay.Objects()
	if len(stats) != 2 {
		t.Fatalf("relay holds %d objects, want exactly 2 (bounds ignored): %+v", len(stats), stats)
	}
	for _, o := range stats {
		if o.K > 64 {
			t.Fatalf("relay allocated k=%d above MaxK", o.K)
		}
	}
}

// TestServeRejectsOversizeFrames: a k too small for the content would
// yield datagrams over the transport limit; Serve must refuse loudly
// instead of letting every push fail silently.
func TestServeRejectsOversizeFrames(t *testing.T) {
	sw, err := transport.NewSwitch(transport.SwitchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	src := startSession(t, attach(t, sw, "source"), nil)
	// 2 MiB over k=16 → 128 KiB payloads, twice the 64 KiB frame limit.
	if _, err := src.Serve(testContent(2*1024*1024, 1), 16, 1); err == nil {
		t.Fatal("oversize-frame Serve accepted")
	}
}

// TestFetchTimeout: fetching an object nobody serves fails with the
// context error and partial stats.
func TestFetchTimeout(t *testing.T) {
	sw, err := transport.NewSwitch(transport.SwitchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	src := startSession(t, attach(t, sw, "source"), nil)
	client := startSession(t, attach(t, sw, "client"), nil)
	_ = src
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, _, err := client.Fetch(ctx, packet.NewObjectID([]byte("missing")), "source"); err == nil {
		t.Fatal("fetch of unserved object succeeded")
	}
}

// TestLossyChanTransfer: the transfer still completes over a channel
// network dropping 20% of frames.
func TestLossyChanTransfer(t *testing.T) {
	sw, err := transport.NewSwitch(transport.SwitchConfig{
		QueueDepth: 256,
		LossRate:   0.2,
		Seed:       5,
	})
	if err != nil {
		t.Fatal(err)
	}
	src := startSession(t, attach(t, sw, "source"), nil)
	client := startSession(t, attach(t, sw, "client"), nil)
	content := testContent(32*1024, 6)
	id, err := src.Serve(content, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	got, _, err := client.Fetch(ctx, id, "source")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("content mismatch over lossy links")
	}
	if sw.Lost() == 0 {
		t.Fatal("loss injection never fired")
	}
}

// TestPushMetaAfterThreshold is the regression test for a push() bug:
// marking the object's description (once the META) as sent for a
// below-threshold object (which emits no rows that tick) must not latch —
// the configured peer would otherwise receive DATA forever but never the
// size, and could never assemble the object. The relay here learns the
// manifest's one run while it has no packets, holds one short of the
// recoding threshold for a while, then crosses it; the peer must still get
// the run.
func TestPushMetaAfterThreshold(t *testing.T) {
	sw, err := transport.NewSwitch(transport.SwitchConfig{QueueDepth: 256})
	if err != nil {
		t.Fatal(err)
	}
	const (
		k = 400 // threshold k/100+1 = 5 rows
		m = 4
	)
	relay := startSession(t, attach(t, sw, "relay"), func(c *Config) {
		c.Relay = true
		c.Tick = time.Millisecond
	})
	relay.AddPeer("probe")
	probe := attach(t, sw, "probe")
	defer probe.Close()

	var content []byte
	for i := range k {
		content = append(content, bytes.Repeat([]byte{byte(i)}, m)...)
	}
	d := servedDesc(t, content, k, 1)
	id := d.Object
	if err := probe.Send("relay", manifestRuns(t, d, content)[0]); err != nil {
		t.Fatal(err)
	}
	native := func(i int) {
		p := packet.Native(k, i, content[i*m:(i+1)*m])
		p.Object = id
		wire, err := packet.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := probe.Send("relay", append([]byte{packet.FrameData}, wire...)); err != nil {
			t.Fatal(err)
		}
	}
	gate := threshold(k)
	for i := 0; i < gate-1; i++ {
		native(i)
	}
	// Let several ticks pass while the relay is below threshold — the
	// buggy push() latched metaSent exactly here.
	time.Sleep(20 * time.Millisecond)
	native(gate - 1) // cross the threshold
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for {
		f, err := probe.Recv(ctx)
		if err != nil {
			t.Fatalf("no MANIFEST ever pushed after threshold: %v", err)
		}
		isRun := len(f.Data) > 0 && f.Data[0] == packet.FrameManifest
		f.Release()
		if isRun {
			return
		}
	}
}

// TestLostMetaToConfiguredPeerHeals pins the repair of the object's
// description: a configured push-peer never subscribes, so when its first
// proof frames — the object's one run, which alone describes it — are lost
// to the fabric the size must still arrive, through the needs beside its
// receipts — a run sent once and never again would wedge the whole
// downstream pipeline (the relay could never prove the rows it forwards to
// its own subscribers).
func TestLostMetaToConfiguredPeerHeals(t *testing.T) {
	sw, err := transport.NewSwitch(transport.SwitchConfig{QueueDepth: 256})
	if err != nil {
		t.Fatal(err)
	}
	drop := &proofDropTransport{Transport: attach(t, sw, "src"), drop: 3}
	src := startSession(t, drop, nil)
	relay := startSession(t, attach(t, sw, "relay"), func(c *Config) { c.Relay = true })
	src.AddPeer("relay")

	content := testContent(4096, 12)
	id, err := src.Serve(content, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if o, ok := relay.Object(id); ok && o.Size >= 0 {
			if o.Size != int64(len(content)) {
				t.Fatalf("relay learned size %d, want %d", o.Size, len(content))
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("relay never learned the size: the lost run was not resent")
		}
		time.Sleep(time.Millisecond)
	}
	drop.mu.Lock()
	dropped := drop.drop == 0
	drop.mu.Unlock()
	if !dropped {
		t.Fatal("test dropped no MANIFEST frames")
	}
}

// TestEvictedStateDropsInFlightFrames pins the evict/ingest race fix: a
// decode worker that resolved an object state before evict() deleted it
// must drop its frames instead of decoding into the orphaned state, so a
// decode never splits across an evicted and a relearned state.
func TestEvictedStateDropsInFlightFrames(t *testing.T) {
	sw, err := transport.NewSwitch(transport.SwitchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sw.Attach("relay")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Transport:   tr,
		Relay:       true,
		Tick:        time.Hour,
		IdleTimeout: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	id := packet.NewObjectID([]byte("evict race"))
	frame := func(i int) inFrame {
		p := packet.Native(8, i, []byte{1, 2})
		p.Object = id
		wire, err := packet.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		raw := append([]byte{packet.FrameData}, wire...)
		wv, err := packet.ParseWire(raw[1:])
		if err != nil {
			t.Fatal(err)
		}
		return inFrame{f: transport.NewFrame("peer", raw, nil), wv: wv}
	}

	// Learn the object, then simulate the race: resolve the state as a
	// worker would, evict it, and only then run the decode phase.
	s.ingestBatch([]inFrame{frame(0)}, &ingestScratch{}, false)
	s.mu.Lock()
	stale := s.objects[id]
	s.mu.Unlock()
	if stale == nil {
		t.Fatal("relay never learned the object")
	}
	time.Sleep(5 * time.Millisecond) // pass the idle timeout
	s.evict()
	if len(s.Objects()) != 0 {
		t.Fatal("object not evicted")
	}

	in := frame(1)
	stale.mu.Lock()
	owed, _, _ := s.decodeDataLocked(stale, &in, s.clk.Now(), &pollActions{})
	received := stale.received
	stale.mu.Unlock()
	in.f.Release()
	if owed != 0 {
		t.Fatalf("dead state owed a report, flags %03b", owed)
	}
	if received != 1 {
		t.Fatalf("dead state decoded the frame (received %d, want 1)", received)
	}

	// A later batch relearns the object into fresh state.
	s.ingestBatch([]inFrame{frame(2)}, &ingestScratch{}, false)
	objs := s.Objects()
	if len(objs) != 1 || objs[0].Received != 1 {
		t.Fatalf("relearned state wrong: %+v", objs)
	}
}
