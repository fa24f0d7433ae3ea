package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ltnc/internal/core"
	"ltnc/internal/generation"
	"ltnc/internal/lt"
	"ltnc/internal/packet"
	"ltnc/internal/xrand"
)

// DecodeBenchParams parameterizes the decode-throughput harness: a
// multi-object edge-cache workload (many small objects decoding
// concurrently on one box) measured end to end from wire bytes to
// recovered content. The default shape is the 1 MiB / 64-object
// benchmark the BENCH_decode.json baseline tracks.
type DecodeBenchParams struct {
	// Objects is the number of concurrent content objects (default 64).
	Objects int
	// ObjectSize is the per-object content size in bytes (default 16384,
	// so the default workload decodes 1 MiB total).
	ObjectSize int
	// K is the code length per object (default 64).
	K int
	// StreamFactor is how many encoded packets are pregenerated per
	// object, as a multiple of K (default 4; belief propagation needs
	// overhead, and the harness errors out if a stream is exhausted
	// before its object decodes).
	StreamFactor int
	// Batch is the engine path's ingest batch size (default 32).
	Batch int
	// Rounds repeats the whole decode and keeps the fastest round,
	// squeezing scheduler noise out of the committed baseline (default 3).
	Rounds int
	// Seed drives content and packet generation (default 1).
	Seed int64

	// GenSweep lists the generation counts of the generation sweep: one
	// GenObjectSize object coded with GenK natives is decoded through
	// the arena path once per G, recording throughput, allocations and
	// the exact header bytes per packet (the O(k/G) header shrink).
	// Empty disables the sweep; every G must divide GenK.
	GenSweep []int
	// GenObjectSize is the sweep's object size (default 1 MiB);
	// GenK its total code length (default 1024).
	GenObjectSize int
	GenK          int
}

func (p *DecodeBenchParams) setDefaults() error {
	if p.Objects == 0 {
		p.Objects = 64
	}
	if p.ObjectSize == 0 {
		p.ObjectSize = 16 * 1024
	}
	if p.K == 0 {
		p.K = 64
	}
	if p.StreamFactor == 0 {
		p.StreamFactor = 4
	}
	if p.Batch == 0 {
		p.Batch = 32
	}
	if p.Rounds == 0 {
		p.Rounds = 3
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.GenObjectSize == 0 {
		p.GenObjectSize = 1 << 20
	}
	if p.GenK == 0 {
		p.GenK = 1024
	}
	if p.Objects < 1 || p.ObjectSize < 1 || p.K < 1 || p.StreamFactor < 2 || p.Batch < 1 || p.Rounds < 1 {
		return fmt.Errorf("experiments: invalid decode bench params %+v", *p)
	}
	if p.GenObjectSize < 1 || p.GenK < 1 {
		return fmt.Errorf("experiments: invalid generation sweep params %+v", *p)
	}
	for _, g := range p.GenSweep {
		if g < 1 || p.GenK%g != 0 {
			return fmt.Errorf("experiments: generation sweep G=%d does not divide k=%d", g, p.GenK)
		}
	}
	return nil
}

// DecodePathResult reports one ingest path's measured cost.
type DecodePathResult struct {
	Path            string  `json:"path"`
	MBps            float64 `json:"mb_per_s"`
	AllocsPerPacket float64 `json:"allocs_per_packet"`
	Packets         int64   `json:"packets"`
	DecodedBytes    int64   `json:"decoded_bytes"`
	Nanos           int64   `json:"nanos"`
}

// DecodeBenchReport is the JSON document emitted as BENCH_decode.json:
// the scalar packet-at-a-time path versus the batched arena-backed
// engine, on identical packet streams.
type DecodeBenchReport struct {
	Objects         int              `json:"objects"`
	ObjectSize      int              `json:"object_size"`
	K               int              `json:"k"`
	Batch           int              `json:"batch"`
	Seed            int64            `json:"seed"`
	Baseline        DecodePathResult `json:"baseline"`
	Engine          DecodePathResult `json:"engine"`
	SpeedupX        float64          `json:"speedup_x"`
	AllocReductionX float64          `json:"alloc_reduction_x"`

	// The generation sweep: one GenObjectSize object, GenK natives,
	// decoded through the arena path once per generation count.
	GenObjectSize int             `json:"gen_object_size,omitempty"`
	GenK          int             `json:"gen_k,omitempty"`
	GenSweep      []GenSweepEntry `json:"generation_sweep,omitempty"`
}

// GenSweepEntry is one generation count of the sweep: decode throughput,
// allocations and the exact on-wire header size per packet.
type GenSweepEntry struct {
	Generations          int     `json:"generations"`
	KPer                 int     `json:"k_per_generation"`
	MBps                 float64 `json:"mb_per_s"`
	AllocsPerPacket      float64 `json:"allocs_per_packet"`
	HeaderBytesPerPacket int     `json:"header_bytes_per_packet"`
	Overhead             float64 `json:"overhead"`
	Packets              int64   `json:"packets"`
	Nanos                int64   `json:"nanos"`
}

// benchStream is one object's pregenerated wire traffic.
type benchStream struct {
	id     packet.ObjectID
	frames [][]byte
	next   int
}

// buildStreams pregenerates the per-object packet streams outside the
// timed region. Every frame is a complete v2 DATA packet encoding, as it
// would arrive in a datagram.
func buildStreams(p DecodeBenchParams) ([]*benchStream, int, error) {
	streams := make([]*benchStream, p.Objects)
	m := 0
	for i := range streams {
		content := make([]byte, p.ObjectSize)
		rand.New(rand.NewSource(xrand.DeriveSeed(p.Seed, i))).Read(content)
		natives, err := lt.Split(content, p.K)
		if err != nil {
			return nil, 0, err
		}
		m = len(natives[0])
		src, err := core.NewNode(core.Options{
			K: p.K, M: m,
			Rng: xrand.NewChild(p.Seed, i),
		})
		if err != nil {
			return nil, 0, err
		}
		if err := src.Seed(natives); err != nil {
			return nil, 0, err
		}
		st := &benchStream{id: packet.NewObjectID(content)}
		for j := 0; j < p.StreamFactor*p.K; j++ {
			z, ok := src.Recode()
			if !ok {
				return nil, 0, fmt.Errorf("experiments: source %d refused to recode", i)
			}
			z.Object = st.id
			wire, err := packet.Marshal(z)
			if err != nil {
				return nil, 0, err
			}
			st.frames = append(st.frames, wire)
		}
		streams[i] = st
	}
	return streams, m, nil
}

// freshNodes builds one decoding node per object.
func freshNodes(p DecodeBenchParams, m int) ([]*core.Node, error) {
	nodes := make([]*core.Node, p.Objects)
	for i := range nodes {
		n, err := core.NewNode(core.Options{
			K: p.K, M: m,
			Rng: xrand.NewChild(p.Seed+1000, i),
		})
		if err != nil {
			return nil, err
		}
		nodes[i] = n
	}
	return nodes, nil
}

// runScalar is the pre-batching hot path, preserved verbatim as the
// regression baseline: per packet, an io.Reader walks the header, the
// redundancy check runs on the parsed vector, the payload is read into a
// fresh buffer and Receive clones everything again into the decoder.
func runScalar(p DecodeBenchParams, streams []*benchStream, nodes []*core.Node) (int64, error) {
	packets := int64(0)
	live := len(nodes)
	for live > 0 {
		live = 0
		for i, st := range streams {
			node := nodes[i]
			if node.Complete() {
				continue
			}
			if st.next >= len(st.frames) {
				return 0, fmt.Errorf("experiments: stream %d exhausted before decode completed", i)
			}
			live++
			data := st.frames[st.next]
			st.next++
			r := bytes.NewReader(data)
			h, err := packet.ReadHeader(r)
			if err != nil {
				return 0, err
			}
			packets++
			if node.IsRedundant(h.Vec) {
				continue
			}
			pkt, err := packet.ReadPayload(r, h)
			if err != nil {
				return 0, err
			}
			node.Receive(pkt)
		}
	}
	return packets, nil
}

// runEngine is the batched sharded path, mirroring the session's decode
// engine: objects are sharded across a worker pool (independent objects
// decode in parallel, as the pre-batching session could not — it decoded
// everything serially on the receive loop under one lock), each worker
// drains its streams in batches, and each packet moves wire → arena
// vector/row → Tanner graph with no per-packet allocation.
func runEngine(p DecodeBenchParams, streams []*benchStream, nodes []*core.Node) (int64, error) {
	workers := min(runtime.GOMAXPROCS(0), 8)
	if workers > len(streams) {
		workers = len(streams)
	}
	var packets atomic.Int64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			n, err := runEngineShard(p, streams, nodes, w, workers)
			packets.Add(n)
			if err != nil {
				firstErr.CompareAndSwap(nil, err)
			}
		}(w)
	}
	wg.Wait()
	if err, ok := firstErr.Load().(error); ok {
		return 0, err
	}
	return packets.Load(), nil
}

// runEngineShard decodes the objects of one shard (stream indices
// congruent to w mod workers), batch by batch.
func runEngineShard(p DecodeBenchParams, streams []*benchStream, nodes []*core.Node, w, workers int) (int64, error) {
	packets := int64(0)
	live := 1
	for live > 0 {
		live = 0
		for i := w; i < len(streams); i += workers {
			st, node := streams[i], nodes[i]
			if node.Complete() {
				continue
			}
			live++
			for b := 0; b < p.Batch && !node.Complete(); b++ {
				if st.next >= len(st.frames) {
					return packets, fmt.Errorf("experiments: stream %d exhausted before decode completed", i)
				}
				data := st.frames[st.next]
				st.next++
				wv, err := packet.ParseWire(data)
				if err != nil {
					return packets, err
				}
				packets++
				vec := node.AcquireVec()
				if vec.UnmarshalInto(wv.VecBytes(data)) != nil {
					node.ReleaseVec(vec)
					return packets, fmt.Errorf("experiments: bad vector in stream %d", i)
				}
				if node.IsRedundant(vec) {
					node.ReleaseVec(vec)
					continue
				}
				row := node.AcquireRow()
				copy(row, wv.PayloadBytes(data))
				node.ReceiveOwned(vec, row, -1)
			}
		}
	}
	return packets, nil
}

// measure times one path over fresh nodes and reports packets, duration
// and heap allocations (runtime.MemStats mallocs delta).
func measure(name string, p DecodeBenchParams, streams []*benchStream, m int,
	run func(DecodeBenchParams, []*benchStream, []*core.Node) (int64, error)) (DecodePathResult, error) {

	res := DecodePathResult{Path: name}
	for round := 0; round < p.Rounds; round++ {
		for _, st := range streams {
			st.next = 0
		}
		nodes, err := freshNodes(p, m)
		if err != nil {
			return res, err
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		packets, err := run(p, streams, nodes)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if err != nil {
			return res, err
		}
		if round == 0 || elapsed.Nanoseconds() < res.Nanos {
			res.Packets = packets
			res.Nanos = elapsed.Nanoseconds()
			res.DecodedBytes = int64(p.Objects) * int64(p.ObjectSize)
			res.AllocsPerPacket = float64(after.Mallocs-before.Mallocs) / float64(packets)
			res.MBps = float64(res.DecodedBytes) / (1 << 20) / elapsed.Seconds()
		}
	}
	return res, nil
}

// RunDecodeBench measures the scalar and batched ingest paths on
// identical pregenerated packet streams and reports throughput (MB of
// content decoded per second) and allocations per packet for each, plus
// the generation sweep when GenSweep is set.
func RunDecodeBench(p DecodeBenchParams) (DecodeBenchReport, error) {
	if err := p.setDefaults(); err != nil {
		return DecodeBenchReport{}, err
	}
	streams, m, err := buildStreams(p)
	if err != nil {
		return DecodeBenchReport{}, err
	}
	baseline, err := measure("scalar", p, streams, m, runScalar)
	if err != nil {
		return DecodeBenchReport{}, err
	}
	engine, err := measure("batched", p, streams, m, runEngine)
	if err != nil {
		return DecodeBenchReport{}, err
	}
	rep := DecodeBenchReport{
		Objects:    p.Objects,
		ObjectSize: p.ObjectSize,
		K:          p.K,
		Batch:      p.Batch,
		Seed:       p.Seed,
		Baseline:   baseline,
		Engine:     engine,
	}
	if baseline.MBps > 0 {
		rep.SpeedupX = engine.MBps / baseline.MBps
	}
	if engine.AllocsPerPacket > 0 {
		rep.AllocReductionX = baseline.AllocsPerPacket / engine.AllocsPerPacket
	}
	if len(p.GenSweep) > 0 {
		rep.GenObjectSize = p.GenObjectSize
		rep.GenK = p.GenK
		if rep.GenSweep, err = runGenSweep(p); err != nil {
			return DecodeBenchReport{}, err
		}
	}
	return rep, nil
}

// runGenSweep decodes one large object once per generation count, through
// the same arena-backed hot path the session runs (parse, per-generation
// redundancy check on the header, zero-copy move into the generation's
// arena). The packet stream is pregenerated per G outside the timed
// region; the header size is read off the actual frames.
func runGenSweep(p DecodeBenchParams) ([]GenSweepEntry, error) {
	content := make([]byte, p.GenObjectSize)
	rand.New(rand.NewSource(xrand.DeriveSeed(p.Seed, 9000))).Read(content)
	id := packet.NewObjectID(content)
	natives, err := lt.Split(content, p.GenK)
	if err != nil {
		return nil, err
	}
	m := len(natives[0])

	entries := make([]GenSweepEntry, 0, len(p.GenSweep))
	for gi, G := range p.GenSweep {
		kPer := p.GenK / G
		src, err := generation.New(generation.Options{
			Generations: G, KPerGeneration: kPer, M: m,
			Seed: p.Seed, Stream: 9100 + gi,
		})
		if err != nil {
			return nil, err
		}
		if err := src.Seed(natives); err != nil {
			return nil, err
		}
		frames := make([][]byte, p.StreamFactor*p.GenK)
		for j := range frames {
			z, ok := src.Recode(nil)
			if !ok {
				return nil, fmt.Errorf("experiments: G=%d source refused to recode", G)
			}
			z.Object = id
			if frames[j], err = packet.Marshal(z); err != nil {
				return nil, err
			}
		}

		entry := GenSweepEntry{
			Generations:          G,
			KPer:                 kPer,
			HeaderBytesPerPacket: len(frames[0]) - m,
		}
		for round := 0; round < p.Rounds; round++ {
			sink, err := generation.New(generation.Options{
				Generations: G, KPerGeneration: kPer, M: m,
				Seed: p.Seed, Stream: 9200 + gi*100 + round,
			})
			if err != nil {
				return nil, err
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			start := time.Now()
			packets := int64(0)
			for i := 0; !sink.Complete(); i++ {
				if i >= len(frames) {
					return nil, fmt.Errorf("experiments: G=%d stream exhausted before decode completed", G)
				}
				data := frames[i]
				wv, err := packet.ParseWire(data)
				if err != nil {
					return nil, err
				}
				g := int(wv.Generation)
				packets++
				if sink.GenComplete(g) {
					continue // aborted on the header, as the session would
				}
				vec := sink.AcquireVec(g)
				if vec.UnmarshalInto(wv.VecBytes(data)) != nil {
					sink.ReleaseVec(g, vec)
					return nil, fmt.Errorf("experiments: G=%d bad vector", G)
				}
				if sink.IsRedundant(g, vec) {
					sink.ReleaseVec(g, vec)
					continue
				}
				row := sink.AcquireRow(g)
				copy(row, wv.PayloadBytes(data))
				sink.ReceiveOwned(g, vec, row)
			}
			elapsed := time.Since(start)
			runtime.ReadMemStats(&after)
			if round == 0 || elapsed.Nanoseconds() < entry.Nanos {
				entry.Packets = packets
				entry.Nanos = elapsed.Nanoseconds()
				entry.AllocsPerPacket = float64(after.Mallocs-before.Mallocs) / float64(packets)
				entry.MBps = float64(p.GenObjectSize) / (1 << 20) / elapsed.Seconds()
				entry.Overhead = float64(packets) / float64(p.GenK)
			}
		}
		entries = append(entries, entry)
	}
	return entries, nil
}

// WriteJSON writes the report as indented JSON to path.
func (r DecodeBenchReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
