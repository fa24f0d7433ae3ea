package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// warmupSize caps the object of the untimed warm-up round: enough to
// bind sockets, fill the frame pools and touch every code path once,
// without spending a multi-second paced round that would not be
// measured.
const warmupSize = 128 << 10

const mib = 1 << 20

// setupSamples is how many set-up timings a run aims for, and setupTopUp
// the time it may spend on set-up-only rounds to get there.
const (
	setupSamples = 21
	setupTopUp   = 2 * time.Second
)

// runResult is what one workload run measured: the values of either
// every end-to-end metric (untraced) or every per-layer metric (traced),
// plus the failure accounting.
type runResult struct {
	workload  string
	traced    bool
	attempted int
	failed    int
	failures  []string
	metrics   map[string]float64
	samples   []float64 // per-fetch seconds behind fetch_s_p50
	cpuPerMiB float64   // process.cpu_s_per_MiB, over the rounds without a tap
	rounds    int
}

// runWorkload runs the closed loop: one untimed warm-up round, then
// timed rounds until at least minRounds have run and seconds have
// elapsed, so the run length is fixed by the benchmark and not by how
// fast the code is. In a traced run every other round carries the tap —
// the untapped rounds in between are what trace.overhead_share compares
// against — the last tapped round is replayed, and a workload that asks
// for them gets its saturated rounds.
func runWorkload(w workload, seed int64, seconds float64, traced bool, outDir string) (*runResult, error) {
	warm := min(w.size, warmupSize)
	if _, err := runRound(w, seed, -1, warm, max(warm*w.k/w.size, 1), nil, false); err != nil {
		return nil, fmt.Errorf("warm-up round: %w", err)
	}

	res := &runResult{workload: w.name, traced: traced, metrics: make(map[string]float64)}
	minRounds := 2
	if traced {
		minRounds = 3 // two tapped rounds around an untapped one
	}
	var setups, overheads, cpus, tappedSecs, untappedSecs []float64
	var sent float64
	var live []map[string]float64
	var lastTapped *roundResult
	arena := make(map[string][]byte) // capture buffers shared by the tapped rounds
	began := time.Now()
	for round := 0; round < minRounds || time.Since(began).Seconds() < seconds; round++ {
		tapped := traced && round%2 == 0
		var use map[string][]byte
		if tapped {
			use = arena
		}
		r, err := runRound(w, seed, round, w.size, w.k, use, false)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", round, err)
		}
		res.rounds++
		setups = append(setups, r.setup)
		if !tapped {
			cpus = append(cpus, r.cpu)
		}
		for _, st := range r.stats {
			sent += float64(st.obj.Sent)
		}
		for i, f := range r.fetches {
			res.attempted++
			res.samples = append(res.samples, f.seconds)
			if tapped {
				tappedSecs = append(tappedSecs, f.seconds)
			} else {
				untappedSecs = append(untappedSecs, f.seconds)
			}
			if f.err != nil {
				res.failed++
				res.failures = append(res.failures, fmt.Sprintf("round %d fetcher %d: %v", round, i, f.err))
				continue
			}
			overheads = append(overheads, f.overhead)
		}
		if tapped {
			live = append(live, liveLayers(r))
			lastTapped = r
		}
		// Rounds share nothing but the heap: collect the finished round's
		// garbage outside the timed and CPU-accounted part, so every round
		// starts from the same heap and peak_rss_MiB is the worst single
		// round, not an accident of GC timing across rounds.
		runtime.GC()
	}
	if !traced {
		// Set-up takes milliseconds where a fetch takes seconds, so the timed
		// rounds alone give it a handful of samples: top them up with
		// set-up-only rounds, within a fixed time allowance.
		topUp := time.Now()
		for round := res.rounds; len(setups) < setupSamples && time.Since(topUp) < setupTopUp; round++ {
			r, err := runRound(w, seed, round, w.size, w.k, nil, true)
			if err != nil {
				return nil, fmt.Errorf("set-up round %d: %w", round, err)
			}
			setups = append(setups, r.setup)
			runtime.GC()
		}
	}

	p50 := median(res.samples)
	// The median round, not the total: a burst of host interference lands
	// in one round's CPU time and would drag a mean with it.
	res.cpuPerMiB = median(cpus) / (float64(w.fetchers*w.size) / mib)
	if !traced {
		natives := float64(res.rounds * w.fetchers * w.k)
		rss, err := peakRSSMiB()
		if err != nil {
			return nil, err
		}
		res.metrics["setup_s"] = median(setups)
		res.metrics["fetch_s_p50"] = p50
		res.metrics["goodput_MB_s"] = float64(w.size) / p50 / 1e6
		res.metrics["overhead_mean"] = mean(overheads)
		res.metrics["sent_per_native"] = sent / natives
		res.metrics["peak_rss_MiB"] = rss
		return res, nil
	}

	// Per-layer: the median over tapped rounds of every live metric, then
	// the replay of the last tapped round.
	for name := range live[0] {
		vals := make([]float64, len(live))
		for i, m := range live {
			vals[i] = m[name]
		}
		res.metrics[name] = median(vals) // NaN (n/a) stays NaN
	}
	rp, err := replay(lastTapped, live[len(live)-1])
	if err != nil {
		return nil, err
	}
	for name, v := range rp.m {
		res.metrics[name] = v
	}
	stalls := 0
	maxSecs := 0.0
	for _, s := range res.samples {
		maxSecs = max(maxSecs, s)
		if s > 3*p50 {
			stalls++
		}
	}
	sat, err := saturatedGoodput(w, seed, res)
	if err != nil {
		return nil, err
	}
	res.metrics["session.saturated_goodput_MB_s"] = sat
	res.metrics["process.cpu_s_per_MiB"] = res.cpuPerMiB
	res.metrics["session.fetch_s_max"] = maxSecs
	res.metrics["session.stalls"] = float64(stalls)
	res.metrics["trace.overhead_share"] = median(tappedSecs)/median(untappedSecs) - 1
	if outDir != "" {
		if err := writeTrace(filepath.Join(outDir, "trace_"+w.name+".json"), lastTapped, rp); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// saturatedGoodput runs the workload's saturated rounds — same topology
// and object, pacing opened all the way, no tap — and returns the goodput
// of their median fetch; n/a on a workload that has none. Their fetches
// are verified and counted like any other, but stay out of the timing
// samples, which belong to the workload's own pacing.
func saturatedGoodput(w workload, seed int64, res *runResult) (float64, error) {
	if !w.saturate {
		return na, nil
	}
	w.tick, w.burst = saturatedTick, saturatedBurst
	var secs []float64
	for i := 0; i < saturatedRounds; i++ {
		round := res.rounds + i
		r, err := runRound(w, seed, round, w.size, w.k, nil, false)
		if err != nil {
			return 0, fmt.Errorf("saturated round %d: %w", round, err)
		}
		for j, f := range r.fetches {
			res.attempted++
			secs = append(secs, f.seconds)
			if f.err != nil {
				res.failed++
				res.failures = append(res.failures, fmt.Sprintf("saturated round %d fetcher %d: %v", round, j, f.err))
			}
		}
		runtime.GC()
	}
	return float64(w.size) / median(secs) / 1e6, nil
}

// span is one entry of the trace file: a fetch, a transport call at a
// session boundary caused by it, or a replay stage.
type span struct {
	ID     int            `json:"id"`
	Name   string         `json:"name"`
	Node   string         `json:"node"`
	Start  float64        `json:"start"` // seconds since the round began
	End    float64        `json:"end"`
	Parent int            `json:"parent"` // id of the causing span; 0 for a root
	Fetch  int            `json:"fetch"`  // fetch index the span belongs to
	Peer   string         `json:"peer,omitempty"`
	Frames int            `json:"frames,omitempty"`
	Bytes  int            `json:"bytes,omitempty"`
	Kinds  map[string]int `json:"kinds,omitempty"` // frames by session frame kind
}

// writeTrace dumps the last tapped round: one root span per fetch, every
// tap span under the fetch it served (a fetcher's own traffic, or a send
// addressed to that fetcher; everything else — source → relay, origin →
// cache — hangs off fetch 0, which it exists for), and the replay stages.
func writeTrace(path string, r *roundResult, rp *replayer) error {
	var spans []span
	fetchOfNode := make(map[string]int)
	fetchOfAddr := make(map[string]int)
	for _, n := range r.nodes {
		if n.role != roleFetcher {
			continue
		}
		i := len(spans)
		f := r.fetches[i]
		fetchOfNode[n.name] = i
		fetchOfAddr[string(n.s.LocalAddr())] = i
		spans = append(spans, span{ID: i + 1, Name: "fetch", Node: n.name,
			Start: f.start.Seconds(), End: f.end.Seconds(), Fetch: i})
	}
	for _, n := range r.nodes {
		for _, sp := range n.tap.recorded() {
			s := span{ID: len(spans) + 1, Name: "recv", Node: n.name,
				Start: sp.start.Seconds(), End: sp.end.Seconds(),
				Peer: string(sp.peer), Frames: sp.frames, Bytes: sp.bytes, Kinds: make(map[string]int)}
			if sp.send {
				s.Name = "send"
			}
			for k, c := range sp.kinds {
				if c > 0 {
					s.Kinds[kindNames[k]] = c
				}
			}
			if i, ok := fetchOfNode[n.name]; ok {
				s.Fetch = i
			} else if i, ok := fetchOfAddr[string(sp.peer)]; ok {
				s.Fetch = i
			}
			s.Parent = s.Fetch + 1
			spans = append(spans, s)
		}
	}
	epoch := r.nodes[0].tap.epoch
	for _, st := range rp.stages {
		spans = append(spans, span{ID: len(spans) + 1, Name: "replay." + st.name, Node: "replay",
			Start: st.start.Sub(epoch).Seconds(), End: st.end.Sub(epoch).Seconds(), Parent: 1})
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
