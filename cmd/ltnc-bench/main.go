// ltnc-bench runs the decode-throughput harness (internal/experiments)
// and writes BENCH_decode.json: MB/s decoded and allocations per packet
// for the scalar packet-at-a-time hot path versus the batched,
// arena-backed decode engine, on the 1 MiB / 64-object workload. CI runs
// it on every push and archives the JSON so the throughput trajectory is
// tracked across PRs.
//
// With -offload it instead sweeps the edge-cache tier: origin DATA
// frames versus cache byte budget on the virtual-time flash-crowd
// scenario, written to OFFLOAD_cache.json (also archived by CI). See
// EXPERIMENTS.md for the recorded curve.
//
// The transport's cost per frame and the decoder's per row are measured
// on real fetches by the end-to-end benchmark (bench/: transport.*,
// generation.decode_ns_per_row, generation.allocs_per_row).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"ltnc/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ltnc-bench:", err)
		os.Exit(1)
	}
}

// parseGenSweep parses the -generations comma list; empty disables the
// sweep.
func parseGenSweep(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		g, err := strconv.Atoi(part)
		if err != nil || g < 1 {
			return nil, fmt.Errorf("bad generation count %q", part)
		}
		out = append(out, g)
	}
	return out, nil
}

// runOffload sweeps the origin-offload-vs-budget curve and prints it as
// a table: what serving the flash crowd costs the origin at each cache
// budget.
func runOffload(out *os.File, budgetsArg, outPath string, seed int64) error {
	var budgets []int64
	for _, part := range strings.Split(budgetsArg, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		b, err := strconv.ParseInt(part, 10, 64)
		if err != nil || b <= 0 {
			return fmt.Errorf("bad -offload budget %q", part)
		}
		budgets = append(budgets, b)
	}
	rep, err := experiments.RunOffloadCurve(experiments.OffloadParams{
		Budgets: budgets,
		Seed:    seed,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "edge-cache offload: %d fetchers, %d B object, k=%d, G=%d, seed %d\n",
		rep.Fetchers, rep.Size, rep.K, rep.Generations, rep.Seed)
	fmt.Fprintln(out, "budget_bytes\torigin_data_frames\toffload\tcache_rows\tmean_overhead")
	for _, pt := range rep.Points {
		fmt.Fprintf(out, "%d\t%d\t%.3f\t%d\t%.2f\n",
			pt.Budget, pt.OriginDataFrames, pt.Offload, pt.CacheRows, pt.MeanOverhead)
	}
	if outPath != "" {
		if err := rep.WriteJSON(outPath); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", outPath)
	}
	return nil
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("ltnc-bench", flag.ContinueOnError)
	var (
		objects    = fs.Int("objects", 0, "number of concurrent objects (default 64)")
		objectSize = fs.Int("size", 0, "per-object content bytes (default 16384)")
		k          = fs.Int("k", 0, "code length per object (default 64)")
		batch      = fs.Int("batch", 0, "engine ingest batch size (default 32)")
		rounds     = fs.Int("rounds", 0, "measurement rounds, fastest kept (default 3)")
		seed       = fs.Int64("seed", 0, "workload seed (default 1)")
		gens       = fs.String("generations", "1,4,16", "generation sweep counts over the 1 MiB object (comma list; empty disables)")
		genSize    = fs.Int("gen-size", 0, "generation sweep object bytes (default 1 MiB)")
		genK       = fs.Int("gen-k", 0, "generation sweep total code length (default 1024)")
		outPath    = fs.String("out", "BENCH_decode.json", "output JSON path (empty: stdout only)")

		offload    = fs.String("offload", "", "sweep the edge-cache offload curve over these cache budgets in bytes (comma list) instead of the decode bench")
		offloadOut = fs.String("offload-out", "OFFLOAD_cache.json", "offload curve output JSON path (empty: stdout only)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *offload != "" {
		return runOffload(out, *offload, *offloadOut, *seed)
	}
	sweep, err := parseGenSweep(*gens)
	if err != nil {
		return err
	}
	rep, err := experiments.RunDecodeBench(experiments.DecodeBenchParams{
		Objects:       *objects,
		ObjectSize:    *objectSize,
		K:             *k,
		Batch:         *batch,
		Rounds:        *rounds,
		Seed:          *seed,
		GenSweep:      sweep,
		GenObjectSize: *genSize,
		GenK:          *genK,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "workload: %d objects x %d B, k=%d, batch=%d\n",
		rep.Objects, rep.ObjectSize, rep.K, rep.Batch)
	fmt.Fprintf(out, "scalar:  %8.1f MB/s  %6.2f allocs/pkt  (%d packets)\n",
		rep.Baseline.MBps, rep.Baseline.AllocsPerPacket, rep.Baseline.Packets)
	fmt.Fprintf(out, "engine:  %8.1f MB/s  %6.2f allocs/pkt  (%d packets)\n",
		rep.Engine.MBps, rep.Engine.AllocsPerPacket, rep.Engine.Packets)
	fmt.Fprintf(out, "engine vs scalar: %.2fx throughput, %.2fx fewer allocs\n",
		rep.SpeedupX, rep.AllocReductionX)
	if len(rep.GenSweep) > 0 {
		fmt.Fprintf(out, "generation sweep: %d B object, k=%d\n", rep.GenObjectSize, rep.GenK)
		for _, e := range rep.GenSweep {
			fmt.Fprintf(out, "  G=%-3d k/G=%-5d %8.1f MB/s  %6.2f allocs/pkt  %4d header B/pkt  overhead %.3f\n",
				e.Generations, e.KPer, e.MBps, e.AllocsPerPacket, e.HeaderBytesPerPacket, e.Overhead)
		}
	}
	if *outPath != "" {
		if err := rep.WriteJSON(*outPath); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", *outPath)
	}
	return nil
}
