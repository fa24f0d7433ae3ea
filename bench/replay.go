package main

import (
	"fmt"
	"runtime"
	"time"

	"ltnc/internal/cache"
	"ltnc/internal/generation"
	"ltnc/internal/integrity"
	"ltnc/internal/lt"
	"ltnc/internal/packet"
	"ltnc/transport"
)

// stage is one timed replay step, kept for the trace file.
type stage struct {
	name       string
	start, end time.Time
}

// replayer runs the frames a traced round captured back through the
// layers' exported functions on one goroutine, timing each stage. Nothing
// else runs meanwhile, so a stage's time is its layer's self time for
// exactly the rows the live fetch handled.
type replayer struct {
	m      map[string]float64
	stages []stage
}

func (rp *replayer) time(name string, fn func()) time.Duration {
	st := stage{name: name, start: time.Now()}
	fn()
	st.end = time.Now()
	rp.stages = append(rp.stages, st)
	return st.end.Sub(st.start)
}

func perItem(d time.Duration, n int) float64 {
	return ratio(float64(d.Nanoseconds()), float64(n))
}

// ingest feeds one DATA frame to a decoder the way the session's decode
// path does: route on the header, refuse redundant rows on the code
// vector alone, move innovative ones into arena buffers. It reports
// whether the row was useful.
func ingest(c *generation.Coder, wv packet.WireView, data []byte) bool {
	if c.Check(wv.Generations, wv.Generation, wv.K) != nil {
		return false
	}
	g := int(wv.Generation)
	if c.GenComplete(g) {
		return false
	}
	vec := c.AcquireVec(g)
	if vec.UnmarshalInto(wv.VecBytes(data)) != nil || c.IsRedundant(g, vec) {
		c.ReleaseVec(g, vec)
		return false
	}
	payload := c.AcquireRow(g)
	copy(payload, wv.PayloadBytes(data))
	c.ReceiveOwned(g, vec, payload)
	return true
}

// parseAll validates captured frames, dropping any that do not parse (a
// session would drop them too).
func parseAll(frames [][]byte) ([]packet.WireView, [][]byte) {
	views := make([]packet.WireView, 0, len(frames))
	kept := make([][]byte, 0, len(frames))
	for _, f := range frames {
		if wv, err := packet.ParseWire(f); err == nil {
			views = append(views, wv)
			kept = append(kept, f)
		}
	}
	return views, kept
}

// replay computes the replay-derived per-layer metrics and the budget
// reconciliation for the first fetch of a traced round.
func replay(r *roundResult, live map[string]float64) (*replayer, error) {
	rp := &replayer{m: make(map[string]float64)}
	src := r.stats[r.first(roleSource)].obj
	gens, kPer, m := src.Generations, src.KPer, src.M
	if gens == 0 || kPer == 0 {
		return nil, fmt.Errorf("replay: source reports no geometry: %+v", src)
	}
	k := gens * kPer
	opts := generation.Options{Generations: gens, KPerGeneration: kPer, M: m, Seed: 1}

	// The source side: split + seed, manifest, recode at full rank, wire
	// encode.
	natives, err := lt.Split(r.content, k)
	if err != nil {
		return nil, err
	}
	var source *generation.Coder
	rp.m["generation.seed_s"] = rp.time("generation.seed", func() {
		if source, err = generation.New(opts); err == nil {
			err = source.Seed(natives)
		}
	}).Seconds()
	if err != nil {
		return nil, err
	}
	var man *integrity.Manifest
	rp.m["integrity.manifest_build_s"] = rp.time("integrity.manifest_build", func() {
		man, err = integrity.NewManifest(natives)
	}).Seconds()
	if err != nil {
		return nil, err
	}
	rows := make([]*packet.Packet, 0, k)
	recodeFull := perItem(rp.time("core.recode_full", func() {
		for range k {
			if z, ok := source.Recode(nil); ok {
				rows = append(rows, z)
			}
		}
	}), k)
	rp.m["core.recode_ns_per_row_full"] = recodeFull
	headerBytes := 0
	buf := make([]byte, 0, transport.MaxFrame)
	appendNs := perItem(rp.time("packet.append", func() {
		for _, z := range rows {
			buf = packet.AppendWire(buf[:0], z)
			headerBytes += len(buf) - m
		}
	}), len(rows))
	rp.m["packet.append_ns_per_frame"] = appendNs
	rp.m["packet.header_bytes_per_frame"] = ratio(float64(headerBytes), float64(len(rows)))

	// The fetcher side: parse, decode and verify exactly the rows the
	// first fetcher's transport delivered.
	fetcher := r.nodes[r.first(roleFetcher)].tap
	frames := fetcher.captured()
	var views []packet.WireView
	parseNs := perItem(rp.time("packet.parse", func() {
		views, frames = parseAll(frames)
	}), len(frames))
	rp.m["packet.parse_ns_per_frame"] = parseNs

	dec, err := generation.New(opts)
	if err != nil {
		return nil, err
	}
	var before, after runtime.MemStats
	attempts, useful := 0, 0
	runtime.ReadMemStats(&before)
	decodeBusy := rp.time("generation.decode", func() {
		for i, wv := range views {
			if dec.Complete() {
				break
			}
			attempts++
			if ingest(dec, wv, frames[i]) {
				useful++
			}
		}
	})
	runtime.ReadMemStats(&after)
	rp.m["generation.decode_busy_s"] = decodeBusy.Seconds()
	rp.m["generation.decode_ns_per_row"] = perItem(decodeBusy, attempts)
	rp.m["generation.allocs_per_row"] = ratio(float64(after.Mallocs-before.Mallocs), float64(attempts))
	rp.m["generation.innovative_ratio"] = ratio(float64(useful), float64(attempts))

	if !dec.Complete() {
		return nil, fmt.Errorf("replay: %d captured rows did not decode the object (%d/%d natives)",
			len(views), dec.DecodedCount(), k)
	}
	decoded, err := dec.Data()
	if err != nil {
		return nil, err
	}
	verify := rp.time("integrity.verify", func() { err = man.VerifyAll(decoded) })
	if err != nil {
		return nil, fmt.Errorf("replay: decoded natives fail the manifest: %w", err)
	}
	rp.m["integrity.verify_s"] = verify.Seconds()

	// The relay: recode from the partial view it had after each row.
	encodeNs := recodeFull
	rp.m["core.recode_ns_per_row_partial"] = na
	if r.w.relay {
		views, frames := parseAll(r.nodes[r.serving()].tap.captured())
		relay, err := generation.New(opts)
		if err != nil {
			return nil, err
		}
		threshold := k/100 + 1 // swarm's default aggressiveness gate, K·0.01 + 1
		recodes := 0
		var busy time.Duration
		rp.time("core.recode_partial", func() {
			for i, wv := range views {
				ingest(relay, wv, frames[i])
				if relay.Received() < threshold {
					continue
				}
				t0 := time.Now()
				_, ok := relay.Recode(nil)
				busy += time.Since(t0)
				if ok {
					recodes++
				}
			}
		})
		encodeNs = perItem(busy, recodes)
		rp.m["core.recode_ns_per_row_partial"] = encodeNs
	}

	// The cache: admission of the origin's rows, then dealing them out.
	rp.m["cache.admit_ns_per_row"] = na
	rp.m["cache.serve_ns_per_frame"] = na
	if r.w.cache {
		views, frames := parseAll(r.nodes[r.serving()].tap.captured())
		c, err := cache.New(cache.Config{Budget: cacheBudget})
		if err != nil {
			return nil, err
		}
		now := time.Now()
		rp.m["cache.admit_ns_per_row"] = perItem(rp.time("cache.admit", func() {
			for i, wv := range views {
				c.Admit(wv.Object, wv.Generations, wv.K, wv.M, wv.Generation,
					wv.VecBytes(frames[i]), wv.PayloadBytes(frames[i]), now)
			}
		}), len(views))
		served := 0
		var cursor uint64
		encodeNs = perItem(rp.time("cache.serve", func() {
			for range k {
				if _, ok := c.AppendFrame(buf[:0], src.ID, &cursor, nil); ok {
					served++
				}
			}
		}), served)
		rp.m["cache.serve_ns_per_frame"] = encodeNs
	}

	// Budget: the CPU stages on the blocking path of the first fetch,
	// priced at the replayed per-row costs, against its wall time.
	f := r.fetches[0]
	rowsToFetcher := 0
	for _, sp := range fetcher.recorded() {
		if !sp.send && sp.end <= f.end {
			rowsToFetcher += sp.kinds[kindData]
		}
	}
	wall := (f.end - f.start).Seconds()
	rp.m["budget.encode_s"] = float64(rowsToFetcher) * encodeNs * 1e-9
	rp.m["budget.codec_s"] = float64(rowsToFetcher) * (appendNs + parseNs) * 1e-9
	rp.m["budget.decode_s"] = decodeBusy.Seconds()
	rp.m["budget.verify_s"] = verify.Seconds()
	explained := rp.m["budget.encode_s"] + rp.m["budget.codec_s"] + live["budget.send_s"] +
		rp.m["budget.decode_s"] + rp.m["budget.verify_s"]
	rp.m["budget.unexplained_share"] = 1 - ratio(explained, wall)
	return rp, nil
}
