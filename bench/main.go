// Command bench is the repository's end-to-end fetch benchmark: four
// fetch workloads over the public ltnc/swarm + ltnc/transport API,
// measured from the fetcher's and the operator's side, plus a per-layer
// budget taken from outside the layers (a transport tap, a single-threaded
// replay of the captured frames, the public counters). BENCHMARK.json at
// the repository root names the workloads, the metrics, their units and
// their regression bounds; bench/README.md is the glossary.
//
//	bench/run.sh                               every workload, end-to-end metrics
//	bench/run.sh -traced                       plus the per-layer metrics and budget lines
//	bench/run.sh -workload NAME -trace 0|1     one workload; last stdout line is the JSON result
//	bench/run.sh -list                         workloads and why each exists
//	bench/run.sh -check-repeat                 the suite twice; fails if the two disagree beyond a bound
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
)

// metricSpec is one metric as BENCHMARK.json declares it. Bound is the
// share of the parent's median by which an end-to-end metric may worsen;
// per-layer metrics have none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is the part of BENCHMARK.json the program reads: it is the
// one place metric names, units, bounds and workload reasons live.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// loadSpec finds BENCHMARK.json in the working directory (the repository
// root, where the driver and run.sh start the program) or its parent
// (bench/, where go test runs) and returns it with the root it was in.
func loadSpec() (*benchSpec, string, error) {
	for _, root := range []string{".", ".."} {
		data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, "", err
		}
		var spec benchSpec
		if err := json.Unmarshal(data, &spec); err != nil {
			return nil, "", fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return &spec, root, nil
	}
	return nil, "", errors.New("BENCHMARK.json not found in . or ..: run from the repository root")
}

// metricValue is one reported value; result is the contract's one-line
// JSON object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints one run's metrics by name with their units, in
// BENCHMARK.json order, and returns the JSON result. A metric the spec
// names but the run did not produce is an error: the spec and the
// program must not drift apart.
func report(spec *benchSpec, r *runResult) (result, error) {
	specs := spec.EndToEnd
	kind := "end-to-end, tracing off"
	if r.traced {
		specs, kind = spec.PerLayer, "per-layer, traced"
	}
	out := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metricValue)}
	fmt.Printf("%s (%s; %d rounds, %d fetches, loopback/in-memory only: no real link crossed)\n",
		r.workload, kind, r.rounds, r.attempted)
	for _, ms := range specs {
		v, ok := r.metrics[ms.Name]
		if !ok {
			return out, fmt.Errorf("%s: metric %s is in BENCHMARK.json but was not measured", r.workload, ms.Name)
		}
		switch {
		case math.IsNaN(v):
			fmt.Printf("  %-36s n/a\n", ms.Name)
			v = 0
		case ms.Name == "fetch_s_p50":
			fmt.Printf("  %-36s %s\n", ms.Name, timingSummary(r.samples, ms.Unit))
		default:
			fmt.Printf("  %-36s %.6g %s\n", ms.Name, v, ms.Unit)
		}
		if math.IsInf(v, 0) {
			return out, fmt.Errorf("%s: metric %s is not finite", r.workload, ms.Name)
		}
		out.Metrics[ms.Name] = metricValue{Value: v, Unit: ms.Unit}
	}
	if !r.traced {
		fmt.Printf("  %-36s %.6g s/MiB (no bound: follows the host's memory contention)\n", "process.cpu_s_per_MiB", r.cpuPerMiB)
	}
	fmt.Printf("  %-36s %.6g (%d failed of %d)\n", "fail_rate", ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted)
	for _, f := range r.failures {
		fmt.Printf("  FAILED %s\n", f)
	}
	return out, nil
}

func main() {
	var (
		name        = flag.String("workload", "", "run this workload in-process and print its JSON result as the last line (default: every workload, one child process each)")
		seed        = flag.Int64("seed", 1, "drives content bytes, every swarm.Config.Seed and the Switch loss coin")
		seconds     = flag.Float64("seconds", 0, "minimum timed duration of a run (default: run_seconds of BENCHMARK.json)")
		trace       = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: untraced run reporting the end-to-end metrics")
		traced      = flag.Bool("traced", false, "suite: after each workload's untraced run, also make its traced run")
		list        = flag.Bool("list", false, "print the workloads and why each exists")
		jsonPath    = flag.String("json", "", "suite: also write every result to this file")
		checkRepeat = flag.Bool("check-repeat", false, "run the suite twice and fail if any end-to-end metric differs by more than its bound")
	)
	flag.Parse()
	spec, root, err := loadSpec()
	if err != nil {
		fatal(err)
	}
	if *seconds == 0 {
		*seconds = float64(spec.RunSeconds)
	}
	switch {
	case *list:
		for _, w := range spec.Workloads {
			fmt.Printf("%-22s %s\n", w.Name, w.Why)
		}
	case *name != "":
		w, ok := findWorkload(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q (see -list)", *name))
		}
		r, err := runWorkload(w, *seed, *seconds, *trace == 1, filepath.Join(root, "bench", "out"))
		if err != nil {
			fatal(err)
		}
		out, err := report(spec, r)
		if err != nil {
			fatal(err)
		}
		line, err := json.Marshal(out)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if !out.Correct {
			os.Exit(1)
		}
	case *checkRepeat:
		if err := repeatCheck(spec, *seed, *seconds); err != nil {
			fatal(err)
		}
	default:
		s, err := runSuite(spec, *seed, *seconds, *traced)
		if err != nil {
			fatal(err)
		}
		if *jsonPath != "" {
			if err := s.write(*jsonPath); err != nil {
				fatal(err)
			}
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// suite is one pass over every workload, as -json writes it and
// bench/baseline.json records it.
type suite struct {
	Seed      int64                        `json:"seed"`
	Seconds   float64                      `json:"seconds"`
	CPUs      int                          `json:"cpus"`
	Fabric    string                       `json:"fabric"`
	Workloads map[string]map[string]result `json:"workloads"` // workload → "end_to_end" | "per_layer" → result
}

func (s *suite) write(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runSuite runs every workload in a child process of its own — so
// peak_rss_MiB and process.cpu_s_per_MiB belong to that workload alone —
// relays the child's output and collects its JSON result.
func runSuite(spec *benchSpec, seed int64, seconds float64, traced bool) (*suite, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	s := &suite{Seed: seed, Seconds: seconds, CPUs: runtime.NumCPU(),
		Fabric:    "loopback UDP and in-memory Switch; one process; no real link crossed",
		Workloads: make(map[string]map[string]result)}
	for _, w := range spec.Workloads {
		s.Workloads[w.Name] = make(map[string]result)
		for _, mode := range []struct {
			key   string
			trace int
		}{{"end_to_end", 0}, {"per_layer", 1}} {
			if mode.trace == 1 && !traced {
				continue
			}
			cmd := exec.Command(self, "-workload", w.Name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(mode.trace))
			cmd.Stderr = os.Stderr
			out, runErr := cmd.Output() // waits for the child to end
			out = bytes.TrimSpace(out)
			cut := bytes.LastIndexByte(out, '\n') + 1
			os.Stdout.Write(out[:cut])
			var res result
			if err := json.Unmarshal(out[cut:], &res); err != nil {
				if runErr != nil {
					return nil, fmt.Errorf("%s: %w", w.Name, runErr)
				}
				return nil, fmt.Errorf("%s: last output line is not a result: %w", w.Name, err)
			}
			if !res.Correct {
				return nil, fmt.Errorf("%s: %d of %d fetches failed", w.Name, res.Failed, res.Attempted)
			}
			s.Workloads[w.Name][mode.key] = res
		}
	}
	return s, nil
}

// worse returns by what share of a's value b is worse than a, in the
// metric's own direction; negative when b is better.
func worse(ms metricSpec, a, b float64) float64 {
	if ms.Better == "higher" {
		return ratio(a-b, a)
	}
	return ratio(b-a, a)
}

// repeatCheck runs the suite twice on the same code and seed and fails
// if either run is worse than the other, on any end-to-end metric of any
// workload, by more than that metric's own bound: the bounds must be
// wider than the benchmark's own run-to-run spread, or they resolve
// nothing.
func repeatCheck(spec *benchSpec, seed int64, seconds float64) error {
	var runs [2]*suite
	for i := range runs {
		fmt.Printf("== check-repeat: run %d of 2 ==\n", i+1)
		s, err := runSuite(spec, seed, seconds, false)
		if err != nil {
			return err
		}
		runs[i] = s
	}
	fmt.Printf("%-22s %-18s %14s %14s %9s %7s\n", "workload", "metric", "run 1", "run 2", "differ", "bound")
	bad := 0
	for _, w := range spec.Workloads {
		for _, ms := range spec.EndToEnd {
			a := runs[0].Workloads[w.Name]["end_to_end"].Metrics[ms.Name].Value
			b := runs[1].Workloads[w.Name]["end_to_end"].Metrics[ms.Name].Value
			d := max(worse(ms, a, b), worse(ms, b, a))
			verdict := ""
			if d > ms.Bound {
				verdict = "  EXCEEDS BOUND"
				bad++
			}
			fmt.Printf("%-22s %-18s %14.6g %14.6g %8.2f%% %6.0f%%%s\n", w.Name, ms.Name, a, b, 100*d, 100*ms.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("check-repeat: %d (metric, workload) pairs differ by more than their bound", bad)
	}
	return nil
}
