package session

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"ltnc/internal/integrity"
	"ltnc/internal/packet"
	"ltnc/internal/transport"
)

// TestManifestTravelsAndVerifies pins the clean-path tentpole wiring: the
// manifest born at the source rides MANIFEST frames to the fetcher, which
// verifies every generation as it completes — no pollution, no bans.
func TestManifestTravelsAndVerifies(t *testing.T) {
	sw, err := transport.NewSwitch(transport.SwitchConfig{QueueDepth: 256, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	src := startSession(t, attach(t, sw, "source"), nil)
	dst := startSession(t, attach(t, sw, "dest"), nil)

	content := testContent(4096, 21)
	const gens = 4
	id, err := src.Serve(content, 64, gens)
	if err != nil {
		t.Fatal(err)
	}
	if o, ok := src.Object(id); !ok || !o.HaveManifest || o.GensVerified != gens {
		t.Fatalf("source manifest state: %+v", o)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	got, stats, err := dst.Fetch(ctx, id, "source")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("fetched content differs")
	}
	if !stats.HaveManifest {
		t.Fatal("manifest never reached the fetcher")
	}
	if stats.GensVerified != gens {
		t.Fatalf("GensVerified = %d, want %d", stats.GensVerified, gens)
	}
	if stats.Polluted != 0 {
		t.Fatalf("clean fetch recorded %d pollution events", stats.Polluted)
	}
	if banned := dst.BannedPeers(); len(banned) != 0 {
		t.Fatalf("clean fetch banned %v", banned)
	}
}

// polluterPort is a hostile actor over a raw switch port: once it sees a
// subscription (a report not flagged complete) it streams forged DATA rows
// — valid v3 geometry, garbage payloads — at the subscriber, burst rows
// every 2 ms and burst more on every frame the subscriber sends it (the
// subscription, and the receipts its own rows draw: the
// clock an honest receipt-paced sender runs on), stopping for no feedback,
// like a peer whose only goal is to poison decoders. With dense set the
// forged rows are degree-2 (immune to the on-arrival unit-row digest check,
// so they reach the decoder and must be caught by generation verification);
// without it they are unit rows, the cheapest forgery, convicted on arrival
// once the victim holds the manifest.
func polluterPort(t *testing.T, tr *transport.ChanTransport, kPer, m, gens, burst int, dense bool) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	cues := make(chan transport.Frame, 64)
	go func() { // every frame is a cue to pump; a subscription also names the victim
		defer close(cues)
		for {
			f, err := tr.Recv(ctx)
			if err != nil {
				return
			}
			select {
			case cues <- f:
			default:
				f.Release()
			}
		}
	}()
	go func() {
		defer close(done)
		var id packet.ObjectID
		var victim transport.Addr
		seq := 0
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case f, ok := <-cues:
				if !ok {
					return
				}
				if r, ok := parseReport(f.Data); ok && r.Flags&packet.ReportComplete == 0 {
					id = r.Object
					victim = f.From
				}
				f.Release()
			case <-tick.C:
			}
			if victim == "" {
				continue
			}
			for i := 0; i < burst; i++ {
				payload := bytes.Repeat([]byte{0xB6}, m)
				payload[0] = byte(seq) // vary: forged rows must not collapse
				p := packet.Native(kPer, seq%kPer, payload)
				if dense && kPer > 1 {
					p.Vec.Set((seq + 1) % kPer)
				}
				p.Object = id
				p.Generation = uint32(seq % gens)
				p.Generations = uint32(gens)
				seq++
				wire, err := packet.Marshal(p)
				if err != nil {
					return
				}
				tr.Send(victim, append([]byte{packet.FrameData}, wire...))
			}
		}
	}()
	t.Cleanup(func() {
		cancel()
		tr.Close()
		<-done
	})
}

// TestPolluterConvictedFetchSurvives is the session-level adversarial
// invariant: with one honest source and one polluter both serving the
// fetcher, the fetch still completes byte-identically, the quarantine
// machinery records the pollution, and the polluter ends the run banned.
// The polluter sends dense forged rows — the kind the on-arrival digest
// check cannot touch — so this exercises the full quarantine/probe/audit
// pipeline rather than the instant unit-row conviction. The switch delays
// every frame by a millisecond: a receipt-clocked fetch over a zero-latency
// switch can run source and fetcher back to back to completion before the
// polluter's goroutines are scheduled at all (one CPU, a loaded machine),
// and then nothing forged ever lands; with each hop a timer, the polluter
// answers the subscription while the honest rows are still in flight.
func TestPolluterConvictedFetchSurvives(t *testing.T) {
	sw, err := transport.NewSwitch(transport.SwitchConfig{QueueDepth: 1024, Seed: 13, Latency: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	const (
		gens = 4
		kPer = 16
		m    = 64
	)
	src := startSession(t, attach(t, sw, "source"), nil)
	dst := startSession(t, attach(t, sw, "dest"), nil)
	polluterPort(t, attach(t, sw, "polluter"), kPer, m, gens, 8, true)

	content := testContent(gens*kPer*m, 31)
	id, err := src.Serve(content, gens*kPer, gens)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	got, stats, err := dst.Fetch(ctx, id, "source", "polluter")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("fetched content differs under pollution")
	}
	if stats.Polluted == 0 {
		t.Fatal("no pollution event recorded; the polluter never landed a row?")
	}
	// The ban may land moments after completion: the polluter keeps
	// streaming, and its first row into verified territory convicts it.
	deadline := time.Now().Add(10 * time.Second)
	var banned []transport.Addr
	for time.Now().Before(deadline) {
		if banned = dst.BannedPeers(); len(banned) > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(banned) != 1 || banned[0] != "polluter" {
		t.Fatalf("banned = %v, want [polluter]", banned)
	}
	// Once banned, the polluter is refused service too.
	dst.handleFeedback("polluter", subReport(id)[1:])
	dst.mu.Lock()
	_, served := dst.objects[id].peers["polluter"]
	dst.mu.Unlock()
	if served {
		t.Fatal("banned peer's subscription made it a push target")
	}
}

// TestManifestStallerHoldsUpNobody: a candidate that re-sends one valid run
// of a two-run manifest every tick, and never the other, neither completes
// the manifest nor is convicted: its run is adopted once and dropped,
// unhashed, every time after. It holds up no one: each run proves itself
// alone, so the source's other run, re-sent once the fetcher has decoded,
// completes the manifest beside it and the fetch completes verified. The
// source's first manifest pass is lost, so the staller's run is in first.
func TestManifestStallerHoldsUpNobody(t *testing.T) {
	const k, m, seed = 2 * integrity.RunLen, 8, 37
	n := newStepNet(t, k, m, seed, nil, "source", "dest")
	n.delay = n.nodes["source"].cfg.Tick / 2
	dst := n.nodes["dest"]
	content := testContent(k*m, seed)
	stall := manifestRuns(t, servedDesc(t, content, k, 1), content)[0]
	stalling := false
	n.lose = func(from, to transport.Addr, f []byte) bool {
		return from == "source" && f[0] == packet.FrameManifest && !stalling
	}
	fetch, err := dst.BeginFetch(n.id, "source", "staller")
	if err != nil {
		t.Fatal(err)
	}
	defer fetch.End()
	for tick := 0; tick < 1000; tick++ {
		if _, _, _, ok := fetch.Result(); ok {
			break
		}
		if o, _ := dst.Object(n.id); o.K > 0 { // the first rows are in
			n.recs["dest"].deliver("staller", stall)
			stalling = true
		}
		n.tick()
	}
	data, stats, err, ok := fetch.Result()
	if !ok || err != nil || !bytes.Equal(data, content) {
		t.Fatalf("fetch beside a manifest staller: ok=%v err=%v, stats %+v", ok, err, stats)
	}
	if !stalling || !stats.HaveManifest || stats.GensVerified != 1 {
		t.Fatalf("complete with %+v (staller in: %v): want the manifest, every generation verified", stats, stalling)
	}
	if b := dst.BannedPeers(); len(b) != 0 {
		t.Fatalf("banned %v: a staller proves nothing", b)
	}
}

// TestForgedRunRefutedOnArrival: one MANIFEST frame whose run differs from
// the true one in a single digest byte, at a valid length, is refuted the
// moment it arrives, at a fetcher and at a relay alike, and its sender is
// banned at that frame: each frame proves itself against the object's ID,
// so no other frame of the sender's is needed. The manifest is two runs,
// and the forged frame is the second, alone: no frame came before it. Its
// description, true, is learned; its run convicts its sender.
func TestForgedRunRefutedOnArrival(t *testing.T) {
	const k, m = 2 * integrity.RunLen, 8
	content := testContent(k*m, 44)
	d := servedDesc(t, content, k, 1)
	id := d.Object
	forged := forgedRun(manifestRuns(t, d, content)[1])
	for _, relay := range []bool{false, true} {
		name := map[bool]string{false: "fetcher", true: "relay"}[relay]
		t.Run(name, func(t *testing.T) {
			s, _, _ := pushSession(t, "node", func(c *Config) { c.Relay = relay })
			if !relay {
				fetch, err := s.BeginFetch(id, "src", "mallory")
				if err != nil {
					t.Fatal(err)
				}
				defer fetch.End()
			}
			stepFrame(s, "mallory", forged)
			if b := s.BannedPeers(); !slices.Equal(b, []transport.Addr{"mallory"}) {
				t.Fatalf("after one forged run: banned %v, want [mallory]", b)
			}
			st := s.objects[id]
			st.mu.Lock()
			held := st.man != nil && (st.man.HoldsRun(0) || st.man.HoldsRun(1))
			st.mu.Unlock()
			if o, _ := s.Object(id); held || o.HaveManifest || o.Size != int64(len(content)) {
				t.Fatalf("after the forged run: %+v, a run held %v; want none held, the true description kept", o, held)
			}
		})
	}
}

// TestGenerationVerifiesAheadOfLastRun: a k = 16,384, G = 16 fetch, whose
// manifest is 16 runs, one a generation, verifies generation 0 with the
// source's run 15 not yet in: every run that reaches the fetcher proves
// itself, and the generation it covers verifies as it completes. Run 15 is
// lost until generation 0 has verified; the fetch then completes verified
// once a later pass brings it.
func TestGenerationVerifiesAheadOfLastRun(t *testing.T) {
	const k, gens, m, seed = 16 * integrity.RunLen, 16, 4, 58
	n := newStepNetG(t, k, gens, m, seed, nil, "source", "dest")
	n.delay = n.nodes["source"].cfg.Tick / 2
	dst := n.nodes["dest"]
	lost := 0
	n.lose = func(from, to transport.Addr, f []byte) bool {
		if f[0] != packet.FrameManifest {
			return false
		}
		mr, err := packet.ParseManifestChunk(f[1:])
		if err != nil || mr.Run != gens-1 {
			return false
		}
		o, _ := dst.Object(n.id)
		lost += btoi(o.GensVerified == 0)
		return o.GensVerified == 0
	}
	fetch, err := dst.BeginFetch(n.id, "source")
	if err != nil {
		t.Fatal(err)
	}
	defer fetch.End()
	ahead := false
	for tick := 0; tick < 2000; tick++ {
		if _, _, _, ok := fetch.Result(); ok {
			break
		}
		n.tick()
		st := dst.objects[n.id]
		st.mu.Lock()
		if st.guard != nil && st.guard[0].state == genVerified && !st.man.HoldsRun(gens-1) {
			ahead = true
		}
		st.mu.Unlock()
	}
	if !ahead || lost == 0 {
		t.Fatalf("generation 0 verified ahead of run 15: %v (run 15 lost %d times)", ahead, lost)
	}
	data, stats, err, ok := fetch.Result()
	if !ok || err != nil || !bytes.Equal(data, testContent(k*m, seed)) || stats.GensVerified != gens {
		t.Fatalf("fetch: ok=%v err=%v, stats %+v", ok, err, stats)
	}
}

// TestFetchAllCandidatesBannedErrPolluted pins the typed failure: when
// every candidate peer for a fetch has been convicted, Fetch fails fast
// with ErrPolluted instead of spinning until the context dies.
func TestFetchAllCandidatesBannedErrPolluted(t *testing.T) {
	sw, err := transport.NewSwitch(transport.SwitchConfig{QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	dst := startSession(t, attach(t, sw, "dest"), nil)
	dst.banPeers([]transport.Addr{"evil"})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	id := packet.NewObjectID([]byte("nobody left"))
	_, _, err = dst.Fetch(ctx, id, "evil")
	if !errors.Is(err, ErrPolluted) {
		t.Fatalf("err = %v, want ErrPolluted", err)
	}
}

// TestDropOnePeerVictimOrdering pins dropOnePeerLocked's eviction order:
// a done peer goes first regardless of anything else, then the stalest
// subscriber; an entry that is neither done nor a subscriber (a
// configured push peer mid-stream) is never the victim.
func TestDropOnePeerVictimOrdering(t *testing.T) {
	base := time.Unix(1000, 0)
	build := func() *objectState {
		st := &objectState{peers: map[transport.Addr]*peerState{
			"done-sub":   {subscribed: true, done: true, heard: base},
			"stale-sub":  {subscribed: true, heard: base.Add(1 * time.Second)},
			"fresh-sub":  {subscribed: true, heard: base.Add(9 * time.Second)},
			"configured": {}, // push peer: no subscription, not done
		}}
		return st
	}

	st := build()
	if !st.dropOnePeerLocked() {
		t.Fatal("full table with a done peer freed nothing")
	}
	if _, ok := st.peers["done-sub"]; ok {
		t.Fatal("done peer survived eviction round 1")
	}
	if !st.dropOnePeerLocked() {
		t.Fatal("table with subscribers freed nothing")
	}
	if _, ok := st.peers["stale-sub"]; ok {
		t.Fatal("stalest subscriber survived eviction round 2")
	}
	if _, ok := st.peers["fresh-sub"]; !ok {
		t.Fatal("fresh subscriber was evicted before the stale one")
	}
	if !st.dropOnePeerLocked() {
		t.Fatal("remaining subscriber freed nothing")
	}
	// Only the configured push peer remains: nothing may be freed.
	if st.dropOnePeerLocked() {
		t.Fatal("configured push peer was evicted")
	}
	if _, ok := st.peers["configured"]; !ok {
		t.Fatal("configured push peer vanished")
	}
}

// TestRelayEmitsOnlyProvenRows is the emit oracle for the taint gate's
// native grain: a relay that holds the manifest forwards decoded natives
// before their generation can be verified, so every DATA frame it emits —
// whatever mix of true rows from the source and forged dense and unit rows
// from a forger it was fed — must carry exactly the XOR of the TRUE natives
// its vector names.
// A false native belief propagation peeled out of a forged dense row never
// leaves — not in the systematic pass and not as a repeat, when the
// subscriber's frontier shows it missing; its generation quarantines when
// it completes, emits nothing while quarantined, and serves again, coded
// rows included, once a clean refill has verified.
func TestRelayEmitsOnlyProvenRows(t *testing.T) {
	const k, m = 32, 48
	content := testContent(k*m, 41)
	src, srcRec, srcClk := pushSession(t, "src", nil)
	src.AddPeer("relay")
	id, err := src.Serve(content, k, 1)
	if err != nil {
		t.Fatal(err)
	}
	relay, rec, clk := pushSession(t, "relay", func(c *Config) { c.Relay = true })
	// The manifest comes from the source's opening round; its DATA is
	// replaced by the hand-made mix below.
	pushTicks(src, srcClk, 1)
	feed(relay, srcRec, packet.FrameData)
	injectFrame(relay, "sub", subReport(id))
	st := relay.objects[id]
	if st.man == nil {
		t.Fatal("set-up: the relay holds no manifest")
	}
	in := func(forged bool, idx ...int) {
		from := transport.Addr("src")
		if forged {
			from = "mallory"
		}
		injectFrame(relay, from, handRow(t, id, content, 1, k, 0, forged, idx...))
	}
	plain, coded := map[int]int{}, 0 // degree-1 rows emitted per native, coded rows emitted
	push := func(ticks int) (data int) {
		t.Helper()
		for ; ticks > 0; ticks-- {
			pushTicks(relay, clk, 1)
			for _, f := range rec.take()["sub"] {
				if f[0] != packet.FrameData {
					continue
				}
				data++
				if !trueRow(t, content, m, f) {
					t.Fatalf("the relay emitted a row that is not the XOR of the true natives it names: %x", f[:48])
				}
				h, err := packet.ReadHeader(bytes.NewReader(f[1:]))
				if err != nil {
					t.Fatal(err)
				}
				if h.Vec.PopCount() == 1 {
					plain[h.Vec.LowestSet()]++
				} else {
					coded++
				}
			}
		}
		return data
	}

	for x := 0; x < 8; x++ {
		in(false, x) // true unit rows: proven on arrival
	}
	in(true, 0, 9) // forged dense row over a decoded native: peels a false 9
	in(false, 10, 11)
	in(false, 10)   // peels a true 11 nothing has hashed yet: proven when drawn
	in(true, 9, 12) // the false 9 poisons what it touches: a false 12
	in(true, 8)     // forged unit row: dropped on arrival, never decoded, its sender banned
	if got := st.coder.DecodedCount(); got != 8+4 {
		t.Fatalf("set-up: %d natives decoded, want 12", got)
	}
	if b := relay.BannedPeers(); !slices.Equal(b, []transport.Addr{"mallory"}) {
		t.Fatalf("after a forged unit row the relay banned %v, want its sender", b)
	}
	push(6)
	for x := 0; x < k; x++ {
		if want := btoi(x < 8 || x == 10 || x == 11); plain[x] != want {
			t.Fatalf("native %d left %d times as a plain row ahead of its generation, want %d (all: %v)", x, plain[x], want, plain)
		}
	}
	if coded != 0 {
		t.Fatalf("%d coded rows left an unverified generation", coded)
	}
	if st.proof[9] != proofBad || st.proof[12] != proofBad || st.proof[11] != proofGood {
		t.Fatalf("proof bits: native 9 %d, 12 %d (want bad), 11 %d (want good)", st.proof[9], st.proof[12], st.proof[11])
	}

	// The subscriber reports that it holds nothing. Twelve natives are
	// decoded here; the ten that are proven are repeated, the two false ones
	// never, and the frontier buys no coded row from the gated generation.
	injectFrame(relay, "sub", reportFrame(packet.Report{Object: id, Received: 10, Innovative: 10, Frontier: frontierOf(k)}))
	push(6)
	for x := 0; x < k; x++ {
		if proven := x < 8 || x == 10 || x == 11; (plain[x] > 1) != proven {
			t.Fatalf("native %d left %d times against an empty frontier; proven: %v (all: %v)", x, plain[x], proven, plain)
		}
	}
	if o, _ := relay.Object(id); coded != 0 || o.Repeated < 10 || o.Systematic != 10 {
		t.Fatalf("against an empty frontier: %d coded rows, stats %d repeated and %d systematic, want 0, at least 10 and 10", coded, o.Repeated, o.Systematic)
	}

	// The rest arrives clean; 9 and 12 count as decoded, so their true
	// unit rows are redundant and the generation completes around them.
	for x := 8; x < k; x++ {
		in(false, x)
		push(1)
	}
	if st.polluted != 1 || !st.quarantinedLocked(0) || st.coder.DecodedCount() != 0 {
		t.Fatalf("the generation did not quarantine at completion: polluted %d, quarantined %v, %d natives decoded",
			st.polluted, st.quarantinedLocked(0), st.coder.DecodedCount())
	}
	if plain[9]+plain[12] != 0 {
		t.Fatalf("a false native was forwarded: 9 ×%d, 12 ×%d", plain[9], plain[12])
	}
	for x, bit := range st.proof {
		if bit != 0 {
			t.Fatalf("proof[%d] = %d survived the quarantine", x, bit)
		}
	}
	if n := push(3); n != 0 {
		t.Fatalf("%d rows left a quarantined generation", n)
	}

	// A clean refill verifies, and the generation serves again: the natives
	// decoded anew (re-sent, proven), then coded repair — the subscriber
	// restarts (a complete report, then its subscription), which drops its
	// frontier, and with nothing known of it the relay codes blind, once the
	// natives ahead of it have settled. The
	// subscriber sends no receipt, so the pacer's floor of a row a tick is
	// the pace: k ticks and two more for the last native to age out bound it.
	// The refill comes from src, which forged nothing.
	for x := 0; x < k; x++ {
		in(false, x)
	}
	injectBurst(relay, "sub", [][]byte{completeReport(id), subReport(id)})
	if st.guard[0].state != genVerified {
		t.Fatal("the clean refill did not verify")
	}
	for tick := 0; tick < k+4 && coded == 0; tick++ {
		push(1)
	}
	if plain[9] == 0 || plain[12] == 0 || coded == 0 {
		t.Fatalf("after the refill: native 9 ×%d, 12 ×%d, %d coded rows", plain[9], plain[12], coded)
	}
	if b := relay.BannedPeers(); !slices.Equal(b, []transport.Addr{"mallory"}) {
		t.Fatalf("the relay banned %v, want the forger alone", b)
	}
}

// TestForgedManifestRefutedAtRelay: a forger races the source to a relay
// with a whole forged manifest under the object's true description —
// anyone may copy one. The manifest does not hash to the root the ID
// commits to: it is refused the moment it is whole and its sender banned,
// so nothing is ever proven against it. The source's manifest is adopted
// after it; rows that only the forged one would prove are refused on
// arrival against the true one, and every row the relay emits is the XOR
// of the true natives it names.
func TestForgedManifestRefutedAtRelay(t *testing.T) {
	const k, m = 32, 48
	content, forged := testContent(k*m, 42), testContent(k*m, 43)
	src, srcRec, srcClk := pushSession(t, "src", nil)
	src.AddPeer("relay")
	id, err := src.Serve(content, k, 1)
	if err != nil {
		t.Fatal(err)
	}
	relay, rec, clk := pushSession(t, "relay", func(c *Config) { c.Relay = true })
	injectBurst(relay, "mallory", manifestRuns(t, servedDesc(t, content, k, 1), forged))
	if b := relay.BannedPeers(); !slices.Equal(b, []transport.Addr{"mallory"}) {
		t.Fatalf("banned %v, want the forged manifest's sender", b)
	}
	if o, _ := relay.Object(id); o.HaveManifest || o.Size != int64(len(content)) {
		t.Fatalf("after the forged manifest: %+v; want it refused, the true description kept", o)
	}
	injectFrame(relay, "sub", subReport(id))
	emitted := 0
	for tick := 0; tick < 4*k; tick++ {
		pushTicks(src, srcClk, 1)
		feed(relay, srcRec)
		if tick == 0 {
			if o, _ := relay.Object(id); !o.HaveManifest {
				t.Fatal("the source's manifest was not adopted")
			}
			// Unit rows of the forged natives: proven by the forged manifest,
			// refused by the true one.
			for x := 0; x < k; x += 3 {
				injectFrame(relay, "eve", handRow(t, id, forged, 1, k, 0, false, x))
			}
		}
		pushTicks(relay, clk, 1)
		sent := rec.take()
		for _, f := range sent["sub"] {
			if f[0] != packet.FrameData {
				continue
			}
			if emitted++; !trueRow(t, content, m, f) {
				t.Fatalf("the relay emitted a row that is not the XOR of the true natives it names: %x", f[:48])
			}
		}
		injectBurst(src, "relay", sent["src"])
	}
	o, _ := relay.Object(id)
	if !o.Complete || o.Polluted != 0 || o.Received != k || emitted < k {
		t.Fatalf("relay %+v after emitting %d rows: want complete, unpolluted, every native received once, k rows out", o, emitted)
	}
}

// TestDenseForgerConvictedAtFirstFailure: a solicited upstream that forges
// only dense rows — no unit-row check touches them, and degree-2 rows never
// complete a generation alone — is banned at the first generation that fails
// verification, though the honest source sent all its other rows: the
// forger's row released the generation's first false native in decode order,
// and every native decoded before that one was true. The honest source is
// not blamed for the false native its own true row released later, reduced
// by the forged one, though that native comes first in index order. The
// quarantine re-arms the honest source — a report about the generation, its
// frontier open again — and sends the convict nothing. It holds as well
// after maxPeersPerObject other addresses have each sent a row first: a
// solicited sender still gets a tag to be named by, and a further
// unsolicited one, which would get none, has its rows refused rather than
// decoded untagged.
func TestDenseForgerConvictedAtFirstFailure(t *testing.T) {
	for _, others := range []int{0, maxPeersPerObject} {
		t.Run(fmt.Sprintf("%d-others", others), func(t *testing.T) { testDenseForger(t, others) })
	}
}

func testDenseForger(t *testing.T, others int) {
	const gens, kPer, m = 2, 8, 16
	content := testContent(gens*kPer*m, 95)
	d := servedDesc(t, content, gens*kPer, gens)
	id := d.Object
	f, rec, _ := pushSession(t, "fetcher", nil)
	fetch, err := f.BeginFetch(id, "mallory", "src")
	if err != nil {
		t.Fatal(err)
	}
	defer fetch.End()
	injectBurst(f, "src", manifestRuns(t, d, content))
	if o, _ := f.Object(id); !o.HaveManifest {
		t.Fatal("set-up: the manifest was not adopted")
	}
	// Each other address sends the same true row of generation 1: the first
	// decodes, the rest are redundant, and every one takes a tally.
	for i := range others {
		injectFrame(f, transport.Addr(fmt.Sprintf("other-%d", i)), handRow(t, id, content, gens, kPer, 1, false, 0))
	}
	injectFrame(f, "late", handRow(t, id, content, gens, kPer, 1, false, 1))
	if o, _ := f.Object(id); others > 0 && o.GenDecoded[1] != 1 {
		t.Fatalf("generation 1 decoded %d natives: the row of an unsolicited sender past a full tally table was decoded", o.GenDecoded[1])
	}
	rec.take()
	injectFrame(f, "mallory", handRow(t, id, content, gens, kPer, 0, true, 2, 3))
	injectFrame(f, "src", handRow(t, id, content, gens, kPer, 0, false, 2))    // releases a false 3
	injectFrame(f, "src", handRow(t, id, content, gens, kPer, 0, false, 0, 3)) // reduced by it: a false 0
	for _, i := range []int{1, 4, 5, 6} {
		injectFrame(f, "src", handRow(t, id, content, gens, kPer, 0, false, i))
	}
	rec.take()
	injectFrame(f, "src", handRow(t, id, content, gens, kPer, 0, false, 7)) // completes generation 0
	o, _ := f.Object(id)
	if b := f.BannedPeers(); o.Polluted != 1 || !slices.Equal(b, []transport.Addr{"mallory"}) {
		t.Fatalf("after generation 0 failed: %d quarantines, banned %v; want 1 and mallory", o.Polluted, b)
	}
	sent := rec.take()
	rearmed := slices.ContainsFunc(sent["src"], func(f []byte) bool {
		r, ok := parseReport(f)
		return ok && r.Gen == 0 && len(r.Frontier) == packet.FrontierLen(kPer)
	})
	if !rearmed || len(sent["mallory"]) != 0 {
		t.Fatalf("the quarantine sent %q to the source and %d frames to the convict; want a report about generation 0 with its frontier, and none",
			kinds(sent["src"]), len(sent["mallory"]))
	}
}

// TestUnsolicitedSprayerCannotStallAFetch is a regression guard on virtual
// time: while the source serves a node, addresses the node never asked —
// one, two or four, as one host's UDP ports would be — spray forged dense
// rows at it, two a tick between them, from the first tick to the end. The
// forgeries poison the generation until it fails verification, and each
// quarantine bans the sprayer whose row released the first false native,
// asked for or not: no decoder-backed node emits a row it has not proven. So there
// are at most as many quarantines as sprayers, each naming a sprayer, the
// source never; the refills run clean once every sprayer that got a row in
// is banned. A fetcher (it solicited the source) and a relay (the source
// pushes to it; it solicited no one) both complete byte-exact within 100 ms
// of virtual time (a clean fetch of the object takes 22 ms here).
func TestUnsolicitedSprayerCannotStallAFetch(t *testing.T) {
	for _, fetching := range []bool{true, false} {
		for _, sprayers := range []int{1, 2, 4} {
			name := fmt.Sprintf("fetcher/%d-sprayers", sprayers)
			if !fetching {
				name = fmt.Sprintf("relay/%d-sprayers", sprayers)
			}
			t.Run(name, func(t *testing.T) { testSprayers(t, fetching, sprayers) })
		}
	}
}

func testSprayers(t *testing.T, fetching bool, sprayers int) {
	const k, m, seed = 128, 32, 96
	const bound = 100 * time.Millisecond
	n := newStepNet(t, k, m, seed, nil, "src", "dst")
	n.delay = n.nodes["src"].cfg.Tick / 2
	dst := n.nodes["dst"]
	content := testContent(k*m, seed)
	if fetching {
		fetch, err := dst.BeginFetch(n.id, "src")
		if err != nil {
			t.Fatal(err)
		}
		defer fetch.End()
	} else {
		dst.Watch(n.id, func(ObjectStats) {})
		n.join("src")
	}
	start, sprayed := n.clk.Now(), 0
	for n.clk.Since(start) < 4*bound {
		if o, _ := dst.Object(n.id); o.Complete {
			break
		}
		for range 2 {
			from := transport.Addr(fmt.Sprintf("spray-%d", sprayed%sprayers))
			n.recs["dst"].deliver(from, handRow(t, n.id, content, 1, k, 0, true, sprayed%k, (sprayed+1)%k))
			sprayed++
		}
		n.tick()
	}
	took := n.clk.Since(start)
	o, _ := dst.Object(n.id)
	st := dst.objects[n.id]
	st.mu.Lock()
	data := st.data
	st.mu.Unlock()
	if !o.Complete || !bytes.Equal(data, content) {
		t.Fatalf("beside %d sprayers after %v: %+v, content byte-exact %v", sprayers, took, o, bytes.Equal(data, content))
	}
	if o.Polluted == 0 {
		t.Fatal("no quarantine: the sprayed forgeries never poisoned a decode")
	}
	b := dst.BannedPeers()
	if o.Polluted > int64(sprayers) || int64(len(b)) != o.Polluted {
		t.Fatalf("%d quarantines beside %d sprayers, banned %v: want each quarantine to ban the sprayer it names, so at most one a sprayer", o.Polluted, sprayers, b)
	}
	for _, addr := range b {
		if !strings.HasPrefix(string(addr), "spray-") {
			t.Fatalf("banned %v: %s sprayed nothing", b, addr)
		}
	}
	if took > bound {
		t.Fatalf("complete after %v of virtual time beside %d sprayers (%d quarantines), over %v", took, sprayers, o.Polluted, bound)
	}
	t.Logf("complete after %v, %d quarantines, banned %v, %d rows sprayed", took, o.Polluted, b, sprayed)
}

// TestHonestRelayIsNeverConvicted: source → relay → fetcher, the relay
// pushing to the fetcher as a configured peer, so the fetcher never asked
// it for anything. A raw sprayer sends the relay forged unit and dense rows
// from the first instant — before the relay holds any run of the object's
// manifest, so nothing can check them yet — and one a tick after. The
// relay convicts the sprayer, asked for or not, and emits only rows that
// are the XOR of the true natives they name: no row leaves it unproven. So
// the fetcher, which would convict the relay of any forgery it passed on,
// completes byte-exact and bans no one.
func TestHonestRelayIsNeverConvicted(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) { testHonestRelay(t, seed) })
	}
}

func testHonestRelay(t *testing.T, seed int64) {
	const k, m = 128, 32
	const bound = 100 * time.Millisecond
	n := newStepNet(t, k, m, seed, nil, "src", "relay", "fetcher")
	n.delay = n.nodes["src"].cfg.Tick / 2
	relay, fetcher := n.nodes["relay"], n.nodes["fetcher"]
	relay.AddPeer("fetcher")
	fetcher.Watch(n.id, func(ObjectStats) {})
	content := testContent(k*m, seed)
	emitted := 0
	n.lose = func(from, _ transport.Addr, f []byte) bool {
		if from == "relay" && f[0] == packet.FrameData {
			if emitted++; !trueRow(t, content, m, f) {
				t.Fatalf("the relay emitted a row that is not the XOR of the true natives it names: %x", f[:48])
			}
		}
		return false
	}
	rng := rand.New(rand.NewSource(seed))
	sprayed := 0
	spray := func() { // unit and dense rows by turns
		idx := []int{rng.Intn(k)}
		if sprayed%2 == 1 {
			idx = append(idx, (idx[0]+1+rng.Intn(k-1))%k)
		}
		n.recs["relay"].deliver("sprayer", handRow(t, n.id, content, 1, k, 0, true, idx...))
		sprayed++
	}
	for range 4 {
		spray()
	}
	start := n.clk.Now()
	for n.clk.Since(start) < bound && !n.fetched().Complete {
		n.tick()
		spray()
	}
	o := n.fetched()
	st := fetcher.objects[n.id]
	st.mu.Lock()
	data := st.data
	st.mu.Unlock()
	if !o.Complete || !bytes.Equal(data, content) {
		t.Fatalf("fetcher after %v: %+v, content byte-exact %v", n.clk.Since(start), o, bytes.Equal(data, content))
	}
	if b := relay.BannedPeers(); !slices.Equal(b, []transport.Addr{"sprayer"}) {
		t.Fatalf("the relay banned %v, want the sprayer", b)
	}
	if b := fetcher.BannedPeers(); len(b) != 0 {
		t.Fatalf("the fetcher banned %v: the relay forwarded nothing forged", b)
	}
	ro, _ := relay.Object(n.id)
	t.Logf("complete after %v: the relay quarantined %d times and emitted %d rows; %d forged rows sprayed", n.clk.Since(start), ro.Polluted, emitted, sprayed)
}
