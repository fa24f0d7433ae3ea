// Command ltnc-sim regenerates the paper's dissemination experiments
// (Figure 7) as tab-separated series, runs named virtual-time swarm
// scenarios (ltnc/simlab) as JSON reports and sweeps the edge-cache
// offload curve.
//
// Usage:
//
//	ltnc-sim -fig 7a [-n 1000] [-k 2048] [-runs 25] [-seed 1] [-agg 0.01]
//	ltnc-sim -fig 7b [-ks 512,1024,2048,4096] ...
//	ltnc-sim -fig 7c [-ks 512,1024,2048,4096] ...
//	ltnc-sim -fig headline [-n 1000] [-k 2048] [-m 256] ...
//	ltnc-sim -fig ablation [-n 1000] [-k 2048] ...
//	ltnc-sim -scenario churn50 [-seed 1]
//	ltnc-sim -list
//	ltnc-sim -offload 32768,65536,98304 [-offload-out OFFLOAD_cache.json] [-seed 1]
//
// Paper scale (N=1000, k up to 4096, 25 runs) takes a while; the defaults
// are a laptop-scale variant with the same shapes. A -scenario run steps
// the real session stack on the deterministic virtual-time fabric —
// 50-node churn swarms, multihop partitions, asymmetric uplinks — and
// prints the invariant-checked report as JSON; virtual minutes cost a
// fraction of a wall second, and the same -seed prints the same report,
// trace_hash included (wall_elapsed excepted). EXPERIMENTS.md records both
// the command lines used and the measured values.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"

	"ltnc/internal/experiments"
	"ltnc/internal/sim"
	"ltnc/simlab"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ltnc-sim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ltnc-sim", flag.ContinueOnError)
	var (
		scenario   = fs.String("scenario", "", "run this named virtual-time swarm scenario and print a JSON report (see -list)")
		list       = fs.Bool("list", false, "list the named scenarios and exit")
		offload    = fs.String("offload", "", "sweep the edge-cache offload curve over these cache budgets in bytes (comma list)")
		offloadOut = fs.String("offload-out", "OFFLOAD_cache.json", "offload curve output JSON path (empty: table only)")

		fig   = fs.String("fig", "7a", "experiment: 7a, 7b, 7c, headline or ablation")
		n     = fs.Int("n", 200, "number of nodes (paper: 1000)")
		k     = fs.Int("k", 512, "code length for 7a/headline (paper: 2048)")
		ksArg = fs.String("ks", "256,512,1024,2048", "code lengths for 7b/7c")
		runs  = fs.Int("runs", 3, "Monte-Carlo runs (paper: 25)")
		seed  = fs.Int64("seed", 1, "root seed")
		agg   = fs.Float64("agg", 0.01, "LTNC aggressiveness")
		m     = fs.Int("m", 256, "payload size for the cost pass of headline")
		every = fs.Int("every", 0, "curve sampling stride for 7a (0 = auto)")
		fanIn = fs.Int("fanin", 1, "inbound transfers a node serves per period (-1 = unlimited)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		return listScenarios(out)
	}
	if *scenario != "" {
		return runScenario(out, *scenario, *seed)
	}
	if *offload != "" {
		return offloadCurve(out, *offload, *offloadOut, *seed)
	}
	p := experiments.Fig7Params{
		N: *n, K: *k, Runs: *runs, Seed: *seed, Aggressiveness: *agg, FanIn: *fanIn,
	}
	switch *fig {
	case "7a":
		return fig7a(out, p, *every)
	case "7b":
		ks, err := parseKs(*ksArg)
		if err != nil {
			return err
		}
		return fig7b(out, ks, p)
	case "7c":
		ks, err := parseKs(*ksArg)
		if err != nil {
			return err
		}
		return fig7c(out, ks, p)
	case "headline":
		return headline(out, p, *m)
	case "ablation":
		return ablation(out, p)
	default:
		return fmt.Errorf("unknown -fig %q (want 7a, 7b, 7c, headline or ablation)", *fig)
	}
}

// listScenarios prints the catalog, one scenario per line: name, resolved
// population (sources/relays/caches/polluters/fetchers and object count),
// how many bootstrap nodes seed the membership plane (0 = static wiring)
// and what the scenario exercises.
func listScenarios(out io.Writer) error {
	tw := tabwriter.NewWriter(out, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "NAME\tNODES\tBOOT\tOBJECTS\tDESCRIPTION")
	for _, info := range simlab.Catalog() {
		var pop []string
		if info.Sources > 0 {
			pop = append(pop, fmt.Sprintf("%ds", info.Sources))
		}
		if info.Relays > 0 {
			pop = append(pop, fmt.Sprintf("%dr", info.Relays))
		}
		if info.Caches > 0 {
			pop = append(pop, fmt.Sprintf("%dc", info.Caches))
		}
		if info.Polluters > 0 {
			pop = append(pop, fmt.Sprintf("%dp", info.Polluters))
		}
		if info.Fetchers > 0 {
			pop = append(pop, fmt.Sprintf("%df", info.Fetchers))
		}
		boot := "-"
		if info.Bootstrap > 0 {
			boot = strconv.Itoa(info.Bootstrap)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%s\n", info.Name, strings.Join(pop, "+"), boot, info.Objects, info.Desc)
	}
	return tw.Flush()
}

// runScenario executes one named simlab scenario and prints the full
// report as indented JSON. Invariant violations make the command fail so
// a scripted run (CI, cron) notices; the report still prints for
// diagnosis, and the seed in it replays the run exactly.
func runScenario(out io.Writer, name string, seed int64) error {
	sc, err := simlab.Named(name, seed)
	if err != nil {
		return err
	}
	sc.Trace = true
	rep, err := sc.Run(context.Background())
	if err != nil {
		return err
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	if !rep.Ok() {
		return fmt.Errorf("scenario %s (seed %d): %d violations, %d fetches failed",
			name, rep.Seed, len(rep.Violations), rep.FetchesFailed)
	}
	return nil
}

// offloadCurve prints origin DATA frames against the cache budget: what
// serving the flash crowd costs the origin at each budget.
func offloadCurve(out io.Writer, budgetsArg, outPath string, seed int64) error {
	var budgets []int64
	for _, part := range strings.Split(budgetsArg, ",") {
		if part = strings.TrimSpace(part); part == "" {
			continue
		}
		b, err := strconv.ParseInt(part, 10, 64)
		if err != nil || b <= 0 {
			return fmt.Errorf("bad -offload budget %q", part)
		}
		budgets = append(budgets, b)
	}
	rep, err := experiments.RunOffloadCurve(experiments.OffloadParams{Budgets: budgets, Seed: seed})
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
		err = rep.WriteJSON(outPath)
	}
	return err
}

func ablation(out io.Writer, p experiments.Fig7Params) error {
	rows, err := experiments.Ablations(p)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "# Ablations at N=%d k=%d runs=%d (DESIGN.md §6)\n", p.N, p.K, p.Runs)
	fmt.Fprintln(out, "variant\tavg_completion\toverhead_pct\tpayloads\taborted")
	for _, r := range rows {
		fmt.Fprintf(out, "%s\t%.1f\t%.2f\t%d\t%d\n",
			r.Name, r.AvgCompletion, r.OverheadPct, r.Payloads, r.Aborted)
	}
	return nil
}

func parseKs(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	ks := make([]int, 0, len(parts))
	for _, part := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad -ks entry %q: %w", part, err)
		}
		ks = append(ks, v)
	}
	return ks, nil
}

func fig7a(out io.Writer, p experiments.Fig7Params, every int) error {
	curves, err := experiments.Fig7a(p)
	if err != nil {
		return err
	}
	maxLen := 0
	for _, c := range curves {
		maxLen = max(maxLen, len(c))
	}
	if every <= 0 {
		every = max(1, maxLen/200)
	}
	fmt.Fprintf(out, "# Figure 7a: convergence, N=%d k=%d runs=%d\n", p.N, p.K, p.Runs)
	fmt.Fprintln(out, "round\tWC\tLTNC\tRLNC")
	at := func(c []float64, i int) float64 {
		if i < len(c) {
			return c[i]
		}
		return 1
	}
	for i := 0; i < maxLen; i += every {
		fmt.Fprintf(out, "%d\t%.4f\t%.4f\t%.4f\n",
			i+1, at(curves[sim.WC], i), at(curves[sim.LTNC], i), at(curves[sim.RLNC], i))
	}
	return nil
}

func fig7b(out io.Writer, ks []int, p experiments.Fig7Params) error {
	rows, err := experiments.Fig7b(ks, p)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "# Figure 7b: average time to complete (gossip periods), N=%d runs=%d\n", p.N, p.Runs)
	fmt.Fprintln(out, "k\tWC\tLTNC\tRLNC")
	for _, r := range rows {
		fmt.Fprintf(out, "%d\t%.1f\t%.1f\t%.1f\n", r.K, r.WC, r.LTNC, r.RLNC)
	}
	return nil
}

func fig7c(out io.Writer, ks []int, p experiments.Fig7Params) error {
	rows, err := experiments.Fig7c(ks, p)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "# Figure 7c: LTNC communication overhead, N=%d runs=%d\n", p.N, p.Runs)
	fmt.Fprintln(out, "k\toverhead_pct")
	for _, r := range rows {
		fmt.Fprintf(out, "%d\t%.2f\n", r.K, r.OverheadPct)
	}
	return nil
}

func headline(out io.Writer, p experiments.Fig7Params, m int) error {
	res, err := experiments.Headline(p, m)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "# Headline trade-off at N=%d k=%d (paper at k=2048: +20%% msgs, +~30%% time, -99%% decode)\n", res.N, res.K)
	fmt.Fprintf(out, "ltnc_overhead_pct\t%.2f\n", res.LTNCOverheadPct)
	fmt.Fprintf(out, "convergence_ratio_ltnc_over_rlnc\t%.3f\n", res.ConvergenceRatio)
	fmt.Fprintf(out, "decode_control_ratio_ltnc_over_rlnc\t%.5f\n", res.DecodeControlRatio)
	fmt.Fprintf(out, "decode_reduction_pct\t%.2f\n", res.DecodeReductionPct)
	fmt.Fprintf(out, "decode_data_bytes_per_byte_ltnc\t%.2f\n", res.DecodeDataLTNCPerByte)
	fmt.Fprintf(out, "decode_data_bytes_per_byte_rlnc\t%.2f\n", res.DecodeDataRLNCPerByte)
	return nil
}
