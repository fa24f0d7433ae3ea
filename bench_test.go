// Repository-level benchmarks: one per figure of the paper's evaluation
// (wall-clock complements to the machine-independent counters printed by
// cmd/ltnc-cost and cmd/ltnc-sim), plus ablation benches for the design
// choices called out in DESIGN.md §6. Domain metrics (gossip periods,
// overhead %) are attached via b.ReportMetric.
package ltnc_test

import (
	"bytes"
	"math/rand"
	"testing"

	"ltnc/internal/core"
	"ltnc/internal/experiments"
	"ltnc/internal/generation"
	"ltnc/internal/lt"
	"ltnc/internal/packet"
	"ltnc/internal/rlnc"
	"ltnc/internal/sim"
	"ltnc/internal/soliton"
	"ltnc/internal/xrand"
)

// Figure 2 — Robust Soliton distribution: table construction + sampling.
func BenchmarkFig2RobustSoliton(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		dist, err := soliton.NewDefaultRobust(2048)
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 1000; j++ {
			dist.Sample(rng)
		}
	}
}

// Figure 7a — convergence of one dissemination run per scheme
// (laptop-scale N and k; the paper's N=1000, k=2048 series is produced by
// cmd/ltnc-sim -fig 7a).
func benchmarkFig7a(b *testing.B, scheme sim.Scheme) {
	p := experiments.Fig7Params{N: 32, K: 128, Runs: 1, Seed: 1}
	cfg := experiments.SchemeConfig(scheme, p)
	b.ResetTimer()
	var rounds float64
	for i := 0; i < b.N; i++ {
		cfg.Seed = xrand.DeriveSeed(1, i)
		res, err := sim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Completed {
			b.Fatal("run incomplete")
		}
		rounds += res.AvgCompletion
	}
	b.ReportMetric(rounds/float64(b.N), "gossip-periods")
}

func BenchmarkFig7aConvergenceLTNC(b *testing.B) { benchmarkFig7a(b, sim.LTNC) }
func BenchmarkFig7aConvergenceRLNC(b *testing.B) { benchmarkFig7a(b, sim.RLNC) }
func BenchmarkFig7aConvergenceWC(b *testing.B)   { benchmarkFig7a(b, sim.WC) }

// Figure 7b — time-to-complete at two code lengths per scheme; the
// reported metric is the mean completion time in gossip periods.
func BenchmarkFig7bTimeToComplete(b *testing.B) {
	for _, scheme := range []sim.Scheme{sim.WC, sim.LTNC, sim.RLNC} {
		for _, k := range []int{128, 256} {
			b.Run(scheme.String()+"/k="+itoa(k), func(b *testing.B) {
				p := experiments.Fig7Params{N: 32, K: k, Runs: 1, Seed: 2}
				cfg := experiments.SchemeConfig(scheme, p)
				var rounds float64
				for i := 0; i < b.N; i++ {
					cfg.Seed = xrand.DeriveSeed(2, i)
					res, err := sim.Run(cfg)
					if err != nil {
						b.Fatal(err)
					}
					rounds += res.AvgCompletion
				}
				b.ReportMetric(rounds/float64(b.N), "gossip-periods")
			})
		}
	}
}

// Figure 7c — LTNC communication overhead (percent, reported as metric).
func BenchmarkFig7cOverhead(b *testing.B) {
	p := experiments.Fig7Params{N: 32, K: 256, Runs: 1, Seed: 3}
	cfg := experiments.SchemeConfig(sim.LTNC, p)
	var overhead float64
	for i := 0; i < b.N; i++ {
		cfg.Seed = xrand.DeriveSeed(3, i)
		res, err := sim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		overhead += res.OverheadPct
	}
	b.ReportMetric(overhead/float64(b.N), "overhead-%")
}

// steadyLTNC returns an LTNC node that has decoded a full content of
// length k with m-byte payloads — the recoding steady state.
func steadyLTNC(b *testing.B, k, m int) *core.Node {
	b.Helper()
	natives := make([][]byte, k)
	rng := rand.New(rand.NewSource(7))
	for i := range natives {
		natives[i] = make([]byte, m)
		rng.Read(natives[i])
	}
	n, err := core.NewNode(core.Options{K: k, M: m, Rng: rng})
	if err != nil {
		b.Fatal(err)
	}
	if err := n.Seed(natives); err != nil {
		b.Fatal(err)
	}
	return n
}

func steadyRLNC(b *testing.B, k, m int) *rlnc.Node {
	b.Helper()
	natives := make([][]byte, k)
	rng := rand.New(rand.NewSource(7))
	for i := range natives {
		natives[i] = make([]byte, m)
		rng.Read(natives[i])
	}
	n, err := rlnc.NewNode(rlnc.Options{K: k, M: m, Rng: rng})
	if err != nil {
		b.Fatal(err)
	}
	if err := n.Seed(natives); err != nil {
		b.Fatal(err)
	}
	return n
}

// Figure 8a — recoding control cost (wall clock, m = 0 isolates the
// control plane).
func BenchmarkFig8aRecodingControlLTNC(b *testing.B) {
	n := steadyLTNC(b, 2048, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := n.Recode(); !ok {
			b.Fatal("recode failed")
		}
	}
}

func BenchmarkFig8aRecodingControlRLNC(b *testing.B) {
	n := steadyRLNC(b, 2048, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := n.Recode(); !ok {
			b.Fatal("recode failed")
		}
	}
}

// decodeStream pre-generates a decodable packet stream for decoding
// benches.
func decodeStream(b *testing.B, k, m int, ltncSrc bool) []*packet.Packet {
	b.Helper()
	var stream []*packet.Packet
	if ltncSrc {
		src := steadyLTNC(b, k, m)
		for i := 0; i < 3*k; i++ {
			z, _ := src.Recode()
			stream = append(stream, z)
		}
	} else {
		src := steadyRLNC(b, k, m)
		for i := 0; i < 3*k; i++ {
			z, _ := src.Recode()
			stream = append(stream, z)
		}
	}
	return stream
}

// Figure 8b — decoding control cost: full content, m = 0.
func BenchmarkFig8bDecodingControlLTNC(b *testing.B) {
	const k = 1024
	stream := decodeStream(b, k, 0, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := core.NewNode(core.Options{K: k, Rng: rand.New(rand.NewSource(int64(i)))})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range stream {
			if n.Complete() {
				break
			}
			n.Receive(p)
		}
		if !n.Complete() {
			b.Fatal("stream did not decode")
		}
	}
}

func BenchmarkFig8bDecodingControlRLNC(b *testing.B) {
	const k = 1024
	stream := decodeStream(b, k, 0, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := rlnc.NewNode(rlnc.Options{K: k, Rng: rand.New(rand.NewSource(int64(i)))})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range stream {
			if n.Complete() {
				break
			}
			n.Receive(p)
		}
		if !n.Complete() {
			b.Fatal("stream did not decode")
		}
	}
}

// Figure 8c — recoding data cost: throughput of payload recoding
// (bytes/op via SetBytes; LTNC combines far fewer payloads than sparse
// RLNC).
func BenchmarkFig8cRecodingDataLTNC(b *testing.B) {
	const m = 4096
	n := steadyLTNC(b, 1024, m)
	b.SetBytes(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := n.Recode(); !ok {
			b.Fatal("recode failed")
		}
	}
}

func BenchmarkFig8cRecodingDataRLNC(b *testing.B) {
	const m = 4096
	n := steadyRLNC(b, 1024, m)
	b.SetBytes(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := n.Recode(); !ok {
			b.Fatal("recode failed")
		}
	}
}

// Figure 8d — decoding data cost: full content with payloads
// (bytes/op = k·m via SetBytes).
func BenchmarkFig8dDecodingDataLTNC(b *testing.B) {
	const (
		k = 512
		m = 1024
	)
	stream := decodeStream(b, k, m, true)
	b.SetBytes(k * m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := core.NewNode(core.Options{K: k, M: m, Rng: rand.New(rand.NewSource(int64(i)))})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range stream {
			if n.Complete() {
				break
			}
			n.Receive(p)
		}
		if !n.Complete() {
			b.Fatal("stream did not decode")
		}
	}
}

func BenchmarkFig8dDecodingDataRLNC(b *testing.B) {
	const (
		k = 512
		m = 1024
	)
	stream := decodeStream(b, k, m, false)
	b.SetBytes(k * m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := rlnc.NewNode(rlnc.Options{K: k, M: m, Rng: rand.New(rand.NewSource(int64(i)))})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range stream {
			if n.Complete() {
				break
			}
			n.Receive(p)
		}
		if !n.Complete() {
			b.Fatal("stream did not decode")
		}
	}
}

// Decode-engine benchmarks — the ingest hot path in isolation, with
// allocation reporting. The same layer is measured on real fetches by
// bench/ (generation.decode_ns_per_row, generation.allocs_per_row).

// engineStream pregenerates one object's wire frames for ingest benches.
func engineStream(b *testing.B, k, m, count int) [][]byte {
	b.Helper()
	src := steadyLTNC(b, k, m)
	id := packet.NewObjectID([]byte("bench object"))
	frames := make([][]byte, 0, count)
	for i := 0; i < count; i++ {
		z, ok := src.Recode()
		if !ok {
			b.Fatal("recode failed")
		}
		z.Object = id
		wire, err := packet.Marshal(z)
		if err != nil {
			b.Fatal(err)
		}
		frames = append(frames, wire)
	}
	return frames
}

// BenchmarkDecodeIngestScalar is the packet-at-a-time wire path: header
// via io.Reader, payload into a fresh buffer, decoder copies again.
func BenchmarkDecodeIngestScalar(b *testing.B) {
	const (
		k = 64
		m = 256
	)
	frames := engineStream(b, k, m, 4*k)
	b.ReportAllocs()
	b.SetBytes(int64(k * m))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := core.NewNode(core.Options{K: k, M: m, Rng: rand.New(rand.NewSource(int64(i)))})
		if err != nil {
			b.Fatal(err)
		}
		for _, data := range frames {
			if n.Complete() {
				break
			}
			r := bytes.NewReader(data)
			h, err := packet.ReadHeader(r)
			if err != nil {
				b.Fatal(err)
			}
			if n.IsRedundant(h.Vec) {
				continue
			}
			p, err := packet.ReadPayload(r, h)
			if err != nil {
				b.Fatal(err)
			}
			n.Receive(p)
		}
		if !n.Complete() {
			b.Fatal("stream did not decode")
		}
	}
}

// BenchmarkDecodeIngestBatched is the engine path: zero-copy wire view,
// arena-backed buffers, owned-buffer insertion.
func BenchmarkDecodeIngestBatched(b *testing.B) {
	const (
		k = 64
		m = 256
	)
	frames := engineStream(b, k, m, 4*k)
	b.ReportAllocs()
	b.SetBytes(int64(k * m))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := core.NewNode(core.Options{K: k, M: m, Rng: rand.New(rand.NewSource(int64(i)))})
		if err != nil {
			b.Fatal(err)
		}
		for _, data := range frames {
			if n.Complete() {
				break
			}
			wv, err := packet.ParseWire(data)
			if err != nil {
				b.Fatal(err)
			}
			vec := n.AcquireVec()
			if vec.UnmarshalInto(wv.VecBytes(data)) != nil {
				b.Fatal("bad vector")
			}
			if n.IsRedundant(vec) {
				n.ReleaseVec(vec)
				continue
			}
			row := n.AcquireRow()
			copy(row, wv.PayloadBytes(data))
			n.ReceiveOwned(vec, row, -1)
		}
		if !n.Complete() {
			b.Fatal("stream did not decode")
		}
	}
}

// BenchmarkDecodeIngestGenerations decodes one 1 MiB object of k = 1,024
// split into G = 1, 4 and 16 generations, through the arena path the
// session runs: parse, abort on a complete generation, the redundancy
// check, then the row moved into the generation's arena. header_B/pkt is
// the on-wire header of every frame (the O(k/G) shrink); overhead is
// frames taken per native.
func BenchmarkDecodeIngestGenerations(b *testing.B) {
	const k = 1024
	content := make([]byte, 1<<20)
	rand.New(rand.NewSource(xrand.DeriveSeed(1, 9000))).Read(content)
	id := packet.NewObjectID(content)
	natives, err := lt.Split(content, k)
	if err != nil {
		b.Fatal(err)
	}
	m := len(natives[0])
	for gi, G := range []int{1, 4, 16} {
		b.Run("G="+itoa(G), func(b *testing.B) {
			opts := generation.Options{Generations: G, KPerGeneration: k / G, M: m, Seed: 1, Stream: 9100 + gi}
			src, err := generation.New(opts)
			if err != nil {
				b.Fatal(err)
			}
			if err := src.Seed(natives); err != nil {
				b.Fatal(err)
			}
			// Undirected, G = 16 takes about 3.8·k frames to complete.
			frames := make([][]byte, 8*k)
			for j := range frames {
				z, ok := src.Recode(nil)
				if !ok {
					b.Fatal("recode failed")
				}
				z.Object = id
				if frames[j], err = packet.Marshal(z); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.SetBytes(int64(len(content)))
			b.ResetTimer()
			taken := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer() // building the sink's arena is not ingest
				sink, err := generation.New(opts)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				taken += ingestGenerations(b, sink, frames)
			}
			b.ReportMetric(float64(len(frames[0])-m), "header_B/pkt")
			b.ReportMetric(float64(taken)/float64(b.N*k), "overhead")
		})
	}
}

// ingestGenerations feeds frames to sink until it completes and returns
// how many it took.
func ingestGenerations(b *testing.B, sink *generation.Coder, frames [][]byte) int {
	b.Helper()
	for i, data := range frames {
		if sink.Complete() {
			return i
		}
		wv, err := packet.ParseWire(data)
		if err != nil {
			b.Fatal(err)
		}
		g := int(wv.Generation)
		if sink.GenComplete(g) {
			continue // aborted on the header, as the session would
		}
		vec := sink.AcquireVec(g)
		if vec.UnmarshalInto(wv.VecBytes(data)) != nil {
			b.Fatal("bad vector")
		}
		if sink.IsRedundant(g, vec) {
			sink.ReleaseVec(g, vec)
			continue
		}
		row := sink.AcquireRow(g)
		copy(row, wv.PayloadBytes(data))
		sink.ReceiveOwned(g, vec, row)
	}
	if !sink.Complete() {
		b.Fatal("stream did not decode")
	}
	return len(frames)
}

// BenchmarkDecodeRLNCBatched decodes an RLNC stream through
// Node.ReceiveBatch — N forward-elimination passes against the pivot
// index, one back-elimination sweep per batch — versus the per-packet
// RREF maintenance of BenchmarkFig8bDecodingControlRLNC.
func BenchmarkDecodeRLNCBatched(b *testing.B) {
	const (
		k     = 1024
		batch = 32
	)
	stream := decodeStream(b, k, 0, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := rlnc.NewNode(rlnc.Options{K: k, Rng: rand.New(rand.NewSource(int64(i)))})
		if err != nil {
			b.Fatal(err)
		}
		for off := 0; off < len(stream) && !n.Complete(); off += batch {
			n.ReceiveBatch(stream[off:min(off+batch, len(stream))])
		}
		if !n.Complete() {
			b.Fatal("stream did not decode")
		}
	}
}

// Ablations (DESIGN.md §6). Each reports the domain metric it probes.

// Refinement on/off: effect on convergence (native-degree variance feeds
// straight into BP decodability).
func BenchmarkAblationRefinement(b *testing.B) {
	for _, disable := range []bool{false, true} {
		name := "on"
		if disable {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			p := experiments.Fig7Params{N: 24, K: 128, Runs: 1, Seed: 5}
			cfg := experiments.SchemeConfig(sim.LTNC, p)
			cfg.DisableRefinement = disable
			var rounds float64
			for i := 0; i < b.N; i++ {
				cfg.Seed = xrand.DeriveSeed(5, i)
				res, err := sim.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				rounds += res.AvgCompletion
			}
			b.ReportMetric(rounds/float64(b.N), "gossip-periods")
		})
	}
}

// Redundancy detection on/off: effect on payload traffic.
func BenchmarkAblationRedundancyDetection(b *testing.B) {
	for _, disable := range []bool{false, true} {
		name := "on"
		if disable {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			p := experiments.Fig7Params{N: 24, K: 128, Runs: 1, Seed: 6}
			cfg := experiments.SchemeConfig(sim.LTNC, p)
			cfg.DisableRedundancyCheck = disable
			var overhead float64
			for i := 0; i < b.N; i++ {
				cfg.Seed = xrand.DeriveSeed(6, i)
				res, err := sim.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				overhead += res.OverheadPct
			}
			b.ReportMetric(overhead/float64(b.N), "overhead-%")
		})
	}
}

// Feedback channel: none vs binary vs full (Algorithm 4).
func BenchmarkAblationFeedback(b *testing.B) {
	modes := []struct {
		name string
		mode sim.FeedbackMode
	}{
		{"none", sim.FeedbackNone},
		{"binary", sim.FeedbackBinary},
		{"full", sim.FeedbackFull},
	}
	for _, fm := range modes {
		b.Run(fm.name, func(b *testing.B) {
			p := experiments.Fig7Params{N: 24, K: 128, Runs: 1, Seed: 7}
			cfg := experiments.SchemeConfig(sim.LTNC, p)
			cfg.Feedback = fm.mode
			var payloads float64
			for i := 0; i < b.N; i++ {
				cfg.Seed = xrand.DeriveSeed(7, i)
				res, err := sim.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				payloads += float64(res.PayloadsSent)
			}
			b.ReportMetric(payloads/float64(b.N), "payloads")
		})
	}
}

// Aggressiveness sweep: the recoding trigger the paper tunes to 1%.
func BenchmarkAblationAggressiveness(b *testing.B) {
	for _, agg := range []float64{0.001, 0.01, 0.1, 0.5} {
		b.Run(ftoa(agg), func(b *testing.B) {
			p := experiments.Fig7Params{N: 24, K: 128, Runs: 1, Seed: 8, Aggressiveness: agg}
			cfg := experiments.SchemeConfig(sim.LTNC, p)
			var rounds float64
			for i := 0; i < b.N; i++ {
				cfg.Seed = xrand.DeriveSeed(8, i)
				res, err := sim.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				rounds += res.AvgCompletion
			}
			b.ReportMetric(rounds/float64(b.N), "gossip-periods")
		})
	}
}

// RLNC sparsity sweep: validates ln k + 20 as the efficiency knee.
func BenchmarkAblationRLNCSparsity(b *testing.B) {
	const k = 128
	for _, sparsity := range []int{4, 12, rlnc.DefaultSparsity(k), 64} {
		b.Run(itoa(sparsity), func(b *testing.B) {
			p := experiments.Fig7Params{N: 24, K: k, Runs: 1, Seed: 9}
			cfg := experiments.SchemeConfig(sim.RLNC, p)
			cfg.Sparsity = sparsity
			var rounds float64
			for i := 0; i < b.N; i++ {
				cfg.Seed = xrand.DeriveSeed(9, i)
				res, err := sim.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				rounds += res.AvgCompletion
			}
			b.ReportMetric(rounds/float64(b.N), "gossip-periods")
		})
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func ftoa(v float64) string {
	switch {
	case v >= 0.1:
		return itoa(int(v*100)) + "pct"
	case v >= 0.01:
		return itoa(int(v*1000)) + "permille"
	default:
		return itoa(int(v*10000)) + "bp"
	}
}
