package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"ltnc/swarm"
	"ltnc/transport"
)

// fetchTimeout bounds one Fetch; a fetch that hits it is a failed fetch.
const fetchTimeout = 60 * time.Second

// postCompleteLinger is how long a traced round keeps its sessions up
// after the last fetch returned, so DATA still in flight toward a
// finished fetcher is counted (session.post_complete_frames). Untraced
// rounds tear down at once.
const postCompleteLinger = 20 * time.Millisecond

// workload is one topology + traffic shape. Every workload is a closed
// loop: one fetch round at a time, fresh sessions and fresh seeded
// content per round, one blocked Fetch per fetcher and no other load
// generator goroutines. All sessions live in this process, on loopback
// UDP or the in-memory Switch: no real link is crossed.
type workload struct {
	name     string
	fabric   string // "udp" (loopback UDPTransport) or "switch" (in-memory)
	size     int    // object bytes
	k        int    // natives; G is swarm's automatic choice, ceil(k/1024)
	fetchers int
	relay    bool    // source → recoding relay → fetcher
	cache    bool    // origin → pre-warmed CacheBudget session → fetchers
	loss     float64 // Switch per-link loss rate
	// Pacing and mode overrides applied to every session; zero values keep
	// swarm.Config defaults (Tick 2 ms, Burst 1, Adaptive off).
	tick     time.Duration
	burst    int
	adaptive bool
	// saturate adds, to a traced run, a few untapped rounds with pacing
	// opened all the way (saturatedTick × saturatedBurst): the CPU-bound
	// ceiling, reported as session.saturated_goodput_MB_s.
	saturate bool
}

// Pacing of the saturated rounds: ≈ 160 MB/s offered, far above what two
// cores absorb, so the source's push loop runs flat out.
const (
	saturatedTick   = 200 * time.Microsecond
	saturatedBurst  = 32
	saturatedRounds = 3
)

// workloads is the fixed benchmark matrix; BENCHMARK.json carries the
// one-line reason for each, bench/README.md the full rationale.
//
// direct_udp_open offers 20 frames per default 2 ms tick ≈ 10 MB/s, about
// half of what the two cores absorb (≈ 16 MB/s in the host's slow phases,
// ≈ 24 MB/s in its fast ones). Offered flat out, its fetch time followed
// the host's memory contention — the driver measured 18 % and 26 %
// run-to-run spread; at half load the tick sets the fetch time (2–5 %
// spread) and the CPU layers show in process.cpu_s_per_MiB.
var workloads = []workload{
	{name: "relay_udp_default", fabric: "udp", size: 1 << 20, k: 1024, fetchers: 1, relay: true},
	{name: "direct_udp_open", fabric: "udp", size: 16 << 20, k: 16384, fetchers: 1,
		burst: 20, saturate: true},
	{name: "crowd_switch_cache", fabric: "switch", size: 1 << 20, k: 1024, fetchers: 4, cache: true},
	{name: "relay_switch_loss20", fabric: "switch", size: 1 << 20, k: 1024, fetchers: 1, relay: true,
		loss: 0.20, adaptive: true},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// cacheBudget comfortably holds one full-rank object of any workload
// (k rows of m + k/8 + 16 bytes), so admission never hits NoRoom.
const cacheBudget = 8 << 20

// Node roles within a round.
const (
	roleSource  = "source"
	roleRelay   = "relay"
	roleCache   = "cache"
	roleFetcher = "fetcher"
)

// node is one running session of a round.
type node struct {
	name   string
	role   string
	s      *swarm.Session
	udp    *transport.UDPTransport // nil on the Switch fabric
	tap    *tap                    // nil in untraced rounds
	cancel context.CancelFunc
	done   chan error
}

// fetchResult is one Fetch as the fetcher saw it.
type fetchResult struct {
	seconds  float64 // wall time from the round's fetch start
	overhead float64
	stats    swarm.ObjectStats
	start    time.Duration // since the round epoch
	end      time.Duration
	err      error // Fetch error, timeout, or byte mismatch
}

// nodeStats is what the public counters say about one session after the
// round's fetches completed.
type nodeStats struct {
	obj           swarm.ObjectStats
	ingestDropped int64
	cache         swarm.CacheStats
	udp           transport.UDPStats
}

// roundResult is everything one round produced.
type roundResult struct {
	w       workload
	k       int
	setup   float64 // seconds from "start building sessions" to "first Fetch issued"
	cpu     float64 // process CPU seconds from session build to teardown (content generation excluded)
	fill    float64 // cache warm-up share of setup (cache workload only)
	fetches []fetchResult
	nodes   []*node
	stats   []nodeStats // parallel to nodes
	swLost  int64       // Switch Lost + Dropped
	content []byte
}

// first returns the index of the first node with the given role; every
// round has a source and at least one fetcher.
func (r *roundResult) first(role string) int {
	for i, n := range r.nodes {
		if n.role == role {
			return i
		}
	}
	panic("bench: round has no " + role)
}

// serving returns the node fetchers fetch from.
func (r *roundResult) serving() int {
	switch {
	case r.w.relay:
		return r.first(roleRelay)
	case r.w.cache:
		return r.first(roleCache)
	}
	return r.first(roleSource)
}

// seededContent returns size pseudo-random bytes drawn from seed.
func seededContent(size int, seed int64) []byte {
	content := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(content)
	return content
}

// runRound builds the workload's topology from scratch, fetches one
// object of size bytes through it with every fetcher at once, verifies
// the bytes and tears everything down. seed drives the content, every
// session's Config.Seed and the Switch loss coin.
//
// arena, when non-nil, makes the round a traced one: every transport is
// wrapped in a tap, and the taps' frame-capture buffers are taken from
// and handed back to arena (keyed by node name), so a run's tapped rounds
// reuse one set of buffers instead of growing fresh ones while the clock
// runs. The captures of a round are therefore valid until the next
// traced round starts.
//
// A setupOnly round stops where setup_s stops — sessions built, content
// served, cache warm, no Fetch issued — and tears down: an extra set-up
// sample for the price of a set-up.
func runRound(w workload, seed int64, round int, size, k int, arena map[string][]byte, setupOnly bool) (_ *roundResult, err error) {
	traced := arena != nil
	res := &roundResult{w: w, k: k}
	res.content = seededContent(size, seed*7919+int64(round))

	epoch, cpu0 := time.Now(), cpuSeconds()
	var sw *transport.Switch
	if w.fabric == "switch" {
		sw, err = transport.NewSwitch(transport.SwitchConfig{LossRate: w.loss, Seed: seed*31 + int64(round) + 1})
		if err != nil {
			return nil, err
		}
	}
	defer func() {
		if stopErr := stopNodes(res.nodes); err == nil {
			err = stopErr
		}
		res.cpu = cpuSeconds() - cpu0
		if traced { // the sessions have stopped appending: hand the buffers back
			for _, n := range res.nodes {
				arena[n.name] = n.tap.data
			}
		}
	}()

	start := func(name, role string, cfg swarm.Config) (*node, error) {
		n := &node{name: name, role: role}
		var tr transport.Transport
		if sw != nil {
			port, err := sw.Attach(transport.Addr(name))
			if err != nil {
				return nil, err
			}
			tr = port
		} else {
			udp, err := transport.ListenUDP("127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			n.udp, tr = udp, udp
		}
		if traced {
			// Only receivers whose rows the replay needs keep frame copies.
			n.tap = newTap(tr, epoch, role != roleSource, arena[name])
			tr = n.tap
		}
		cfg.Transport = tr
		cfg.Seed = seed*1_000_003 + int64(round)*101 + int64(len(res.nodes)) + 1
		cfg.Tick, cfg.Burst, cfg.Adaptive = w.tick, w.burst, w.adaptive
		s, err := swarm.New(cfg) // owns (and on error closes) the transport
		if err != nil {
			return nil, err
		}
		n.s = s
		ctx, cancel := context.WithCancel(context.Background())
		n.cancel, n.done = cancel, make(chan error, 1)
		go func() { n.done <- s.Run(ctx) }()
		res.nodes = append(res.nodes, n)
		return n, nil
	}

	// The node fetchers ask: a relay or cache in front of the source, or
	// the source itself.
	var front *node
	switch {
	case w.relay:
		front, err = start("relay", roleRelay, swarm.Config{Relay: true})
	case w.cache:
		front, err = start("cache", roleCache, swarm.Config{CacheBudget: cacheBudget})
	}
	if err != nil {
		return nil, err
	}
	var peers []swarm.Addr
	if front != nil {
		peers = []swarm.Addr{front.s.LocalAddr()}
	}
	src, err := start("source", roleSource, swarm.Config{Peers: peers})
	if err != nil {
		return nil, err
	}
	id, err := src.s.Serve(res.content, k)
	if err != nil {
		return nil, err
	}
	if id != swarm.ContentID(res.content) {
		return nil, fmt.Errorf("served id %v is not the content's id", id)
	}
	if front == nil {
		front = src
	}
	var fetchers []*node
	for i := 0; i < w.fetchers; i++ {
		f, err := start(fmt.Sprintf("fetcher%d", i), roleFetcher, swarm.Config{})
		if err != nil {
			return nil, err
		}
		fetchers = append(fetchers, f)
	}
	if w.cache {
		fillStart := time.Now()
		for {
			cs, _ := front.s.CacheStats()
			if cs.Rows >= k {
				break
			}
			if time.Since(fillStart) > fetchTimeout {
				return nil, fmt.Errorf("cache warm-up: %d/%d rows after %v", cs.Rows, k, fetchTimeout)
			}
			time.Sleep(time.Millisecond)
		}
		res.fill = time.Since(fillStart).Seconds()
	}
	res.setup = time.Since(epoch).Seconds()
	if setupOnly {
		return res, nil
	}

	// One blocked Fetch per fetcher, all timed from the same instant.
	res.fetches = make([]fetchResult, len(fetchers))
	fetchStart := time.Now()
	var wg sync.WaitGroup
	for i, f := range fetchers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), fetchTimeout)
			defer cancel()
			got, report, err := f.s.Fetch(ctx, id, front.s.LocalAddr())
			end := time.Now()
			if err == nil && !bytes.Equal(got, res.content) {
				err = fmt.Errorf("fetched %d bytes differ from the %d served", len(got), len(res.content))
			}
			res.fetches[i] = fetchResult{
				seconds:  end.Sub(fetchStart).Seconds(),
				overhead: report.Overhead(),
				stats:    report.Stats,
				start:    fetchStart.Sub(epoch),
				end:      end.Sub(epoch),
				err:      err,
			}
		}()
	}
	wg.Wait()

	if traced {
		time.Sleep(postCompleteLinger)
	}
	res.stats = make([]nodeStats, len(res.nodes))
	for i, n := range res.nodes {
		st := &res.stats[i]
		st.obj, _ = n.s.Object(id)
		st.ingestDropped = n.s.IngestDropped()
		st.cache, _ = n.s.CacheStats()
		if n.udp != nil {
			st.udp = n.udp.Stats()
		}
	}
	if sw != nil {
		res.swLost = sw.Lost() + sw.Dropped()
	}
	return res, nil
}

// stopNodes shuts every session down and waits for its Run goroutine.
func stopNodes(nodes []*node) error {
	var first error
	for _, n := range nodes {
		n.cancel()
		n.s.Close()
		select {
		case err := <-n.done:
			if err != nil && first == nil {
				first = fmt.Errorf("%s: session exit: %w", n.name, err)
			}
		case <-time.After(10 * time.Second):
			if first == nil {
				first = fmt.Errorf("%s: session did not shut down", n.name)
			}
		}
	}
	return first
}
