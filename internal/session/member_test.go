package session

import (
	"bytes"
	"context"
	"slices"
	"testing"
	"time"

	"ltnc/internal/packet"
	"ltnc/internal/transport"
)

// memberBody builds the wire body (no frame tag) of one MEMBER exchange.
func memberBody(t testing.TB, flags byte, entries ...packet.MemberEntry) []byte {
	t.Helper()
	body, err := packet.AppendMemberBody(nil, flags, entries)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestMembershipDiscoveryFetch exercises the happy path end to end: a
// fetcher configured with only a bootstrap address — no static peers, no
// explicit sources — discovers the swarm via MEMBER shuffles and
// completes a byte-identical fetch through the discovered neighbors.
func TestMembershipDiscoveryFetch(t *testing.T) {
	sw, err := transport.NewSwitch(transport.SwitchConfig{QueueDepth: 256, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	member := func(boot transport.Addr) func(*Config) {
		return func(c *Config) {
			c.Bootstrap = []transport.Addr{boot}
			c.ShufflePeriod = 5 * time.Millisecond
		}
	}
	src := startSession(t, attach(t, sw, "src"), member("relay"))
	startSession(t, attach(t, sw, "relay"), func(c *Config) {
		member("src")(c)
		c.Relay = true
	})
	client := startSession(t, attach(t, sw, "client"), member("src"))

	content := testContent(32*1024, 3)
	id, err := src.Serve(content, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	got, _, err := client.Fetch(ctx, id) // no sources: membership steering
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("fetched content differs from served content")
	}
	// Discovery must have happened: the client's view holds the swarm
	// (src directly, relay gossiped through src), within the bound.
	deadline := time.Now().Add(10 * time.Second)
	for {
		ms := client.MemberStats()
		if !ms.Enabled {
			t.Fatal("membership not enabled despite Bootstrap")
		}
		if ms.ViewLen > ms.ViewCap {
			t.Fatalf("view %d over bound %d", ms.ViewLen, ms.ViewCap)
		}
		if slices.Contains(ms.View, "client") {
			t.Fatal("view contains self")
		}
		// Neighbors are re-selected on the shuffle cadence, which a fetch
		// this size can finish inside of: wait for the selection too.
		if slices.Contains(ms.View, "src") && slices.Contains(ms.View, "relay") && len(client.Neighbors()) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("view never converged, or no neighbors were selected from it: view %v, neighbors %v",
				ms.View, client.Neighbors())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMembershipBanNeverReadmits is the ban/membership interaction
// regression test: a peer convicted via the pollution path is evicted
// from the view, cannot be re-admitted by any later shuffle, and is
// never forwarded to neighbors in our own exchanges.
func TestMembershipBanNeverReadmits(t *testing.T) {
	s := fuzzSession(t, func(c *Config) {
		c.Bootstrap = []transport.Addr{"boot"}
	})
	evil := packet.MemberEntry{Addr: "evil", Capacity: 255, Role: packet.MemberRoleRelay}
	good := packet.MemberEntry{Addr: "good", Capacity: 10}

	// A gossiped offer populates the view: sender, evil, good.
	if reply := s.handleMember("gossiper", memberBody(t, 0, evil, good)); reply == nil {
		t.Fatal("shuffle offer not answered")
	}
	ms := s.MemberStats()
	for _, want := range []transport.Addr{"gossiper", "evil", "good"} {
		if !slices.Contains(ms.View, want) {
			t.Fatalf("view %v missing %s", ms.View, want)
		}
	}

	// Conviction (the pollution path lands in banPeers) evicts evil.
	s.banPeers([]transport.Addr{"evil"})
	if ms = s.MemberStats(); slices.Contains(ms.View, "evil") {
		t.Fatalf("banned peer still in view: %v", ms.View)
	}
	if slices.Contains(s.Neighbors(), "evil") {
		t.Fatal("banned peer still a neighbor")
	}

	// No shuffle may re-admit it: neither a third party gossiping its
	// entry, nor the banned peer advertising itself.
	s.handleMember("gossiper", memberBody(t, packet.MemberFlagReply, evil))
	if ms = s.MemberStats(); slices.Contains(ms.View, "evil") {
		t.Fatal("gossip re-admitted a banned peer")
	}
	if reply := s.handleMember("evil", memberBody(t, 0, evil)); reply != nil {
		t.Fatal("answered a banned peer's shuffle")
	}
	if ms = s.MemberStats(); slices.Contains(ms.View, "evil") {
		t.Fatal("a banned peer advertised itself back into the view")
	}

	// And our own exchanges never forward it: drive many shuffle
	// replies and check every offered entry.
	for i := 0; i < 50; i++ {
		reply := s.handleMember("gossiper", memberBody(t, 0, good))
		if reply == nil {
			t.Fatal("offer not answered")
		}
		if reply[0] != packet.FrameMember {
			t.Fatalf("reply tag %#x", reply[0])
		}
		_, entries, err := packet.ParseMemberBody(reply[1:])
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.Addr == "evil" {
				t.Fatal("banned peer forwarded to a neighbor")
			}
		}
	}
}

// TestMembershipViewBoundAndSelf: hostile or buggy gossip can neither
// grow the view past its bound nor insert the session's own address.
func TestMembershipViewBoundAndSelf(t *testing.T) {
	s := fuzzSession(t, func(c *Config) {
		c.Bootstrap = []transport.Addr{"boot"}
		c.ViewSize = 4
	})
	for i := 0; i < 20; i++ {
		var entries []packet.MemberEntry
		for j := 0; j < 8; j++ {
			entries = append(entries, packet.MemberEntry{
				Addr: string(rune('A'+i)) + string(rune('a'+j)),
			})
		}
		// "fuzz" is this session's own address (see fuzzSession).
		entries = append(entries, packet.MemberEntry{Addr: "fuzz", Capacity: 255})
		s.handleMember("gossiper", memberBody(t, packet.MemberFlagReply, entries...))
	}
	ms := s.MemberStats()
	if ms.ViewLen > 4 {
		t.Fatalf("view %d over bound 4", ms.ViewLen)
	}
	if slices.Contains(ms.View, "fuzz") {
		t.Fatal("own address admitted to the view")
	}
}

// TestMembershipReplyNotAnswered: a reply-flagged exchange must not
// produce a counter-reply (the ping-pong guard).
func TestMembershipReplyNotAnswered(t *testing.T) {
	s := fuzzSession(t, func(c *Config) {
		c.Bootstrap = []transport.Addr{"boot"}
	})
	if reply := s.handleMember("peer", memberBody(t, packet.MemberFlagReply)); reply != nil {
		t.Fatal("reply answered with a reply: shuffle ping-pong")
	}
	if reply := s.handleMember("peer", memberBody(t, 0)); reply == nil {
		t.Fatal("offer not answered")
	}
}

// TestMembershipStatelessBootstrapReply: a session not running the
// membership plane still answers shuffle offers with a self-only
// advertisement, so plain sources work as bootstrap targets — but it
// never answers replies, and never answers convicted peers.
func TestMembershipStatelessBootstrapReply(t *testing.T) {
	s := fuzzSession(t, nil) // no Bootstrap: membership off, Relay on
	reply := s.handleMember("joiner", memberBody(t, 0))
	if reply == nil {
		t.Fatal("membership-less session did not answer a shuffle offer")
	}
	flags, entries, err := packet.ParseMemberBody(reply[1:])
	if err != nil {
		t.Fatal(err)
	}
	if flags&packet.MemberFlagReply == 0 {
		t.Fatal("self-advert not flagged as a reply")
	}
	if len(entries) != 1 || entries[0].Addr != "fuzz" {
		t.Fatalf("self-advert entries = %+v, want only self", entries)
	}
	if entries[0].Role&packet.MemberRoleRelay == 0 {
		t.Fatal("relay session advertised no relay role")
	}
	if s.handleMember("joiner", memberBody(t, packet.MemberFlagReply)) != nil {
		t.Fatal("membership-less session answered a reply: shuffle ping-pong")
	}
	s.banPeers([]transport.Addr{"joiner"})
	if s.handleMember("joiner", memberBody(t, 0)) != nil {
		t.Fatal("answered a banned peer's offer")
	}
}

// FuzzMemberFrames chews mutated MEMBER frames (plus interleaved other
// control frames) through a live membership session: no input may
// panic, grow the view past its bound, admit the session itself, or
// re-admit a banned peer.
func FuzzMemberFrames(f *testing.F) {
	valid := func(flags byte, entries ...packet.MemberEntry) []byte {
		body, err := packet.AppendMemberBody([]byte{packet.FrameMember}, flags, entries)
		if err != nil {
			f.Fatal(err)
		}
		return body
	}
	pack := func(frames ...[]byte) []byte {
		var seq []byte
		for _, fr := range frames {
			seq = append(seq, byte(len(fr)))
			seq = append(seq, fr...)
		}
		return seq
	}
	offer := valid(0,
		packet.MemberEntry{Addr: "peer", Age: 0, Capacity: 200, Role: packet.MemberRoleRelay},
		packet.MemberEntry{Addr: "other", Age: 3, Capacity: 16},
	)
	f.Add(pack(offer))
	f.Add(pack(valid(packet.MemberFlagReply, packet.MemberEntry{Addr: "cache", Role: packet.MemberRoleCache})))
	f.Add(pack(valid(0)))                                                         // empty offer
	f.Add(pack(valid(0, packet.MemberEntry{Addr: "fuzz", Capacity: 255})))        // self-insertion attempt
	f.Add(pack(valid(0, packet.MemberEntry{Addr: "banned-peer", Capacity: 255}))) // banned re-admission attempt
	f.Add(pack(offer[:len(offer)-2]))                                             // truncated entry
	f.Add(pack([]byte{packet.FrameMember, 0, packet.MaxMemberEntries + 1}))       // oversized count
	f.Add(pack([]byte{packet.FrameMember, 0, 1, 0, 0, 0, 0, 0}))                  // zero-length address
	f.Add(pack(offer, valid(0, packet.MemberEntry{Addr: "late"}), offer))         // sequences

	f.Fuzz(func(t *testing.T, data []byte) {
		s := fuzzSession(t, func(c *Config) {
			c.Bootstrap = []transport.Addr{"boot"}
			c.ViewSize = 4
		})
		s.banPeers([]transport.Addr{"banned-peer"})
		for len(data) > 0 {
			n := int(data[0])
			data = data[1:]
			if n == 0 || n > len(data) {
				break
			}
			stepFrame(s, "peer", data[:n])
			data = data[n:]
		}
		ms := s.MemberStats()
		if ms.ViewLen > ms.ViewCap {
			t.Fatalf("view %d over bound %d", ms.ViewLen, ms.ViewCap)
		}
		if slices.Contains(ms.View, "fuzz") {
			t.Fatal("own address admitted to the view")
		}
		if slices.Contains(ms.View, "banned-peer") {
			t.Fatal("banned peer re-admitted")
		}
	})
}
