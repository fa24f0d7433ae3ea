package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"ltnc/internal/simnet"
)

// AdaptParams configures the overhead-vs-loss sweep: one single-path
// swarm per (loss, mode) point, identical except for the link loss and
// whether the sessions run the loss-tuned redundancy budget.
type AdaptParams struct {
	// Losses are the symmetric link loss rates to sweep (defaults
	// 0, 0.05, 0.20, 0.40 — the EXPERIMENTS.md grid).
	Losses []float64
	// Fetchers is the swarm size behind the relay (default 4).
	Fetchers int
	// Size and K shape the object (defaults 24 KiB, k=96 — the
	// asym-uplink geometry).
	Size, K int
	// Seed drives every run; the same seed resolves the same curve.
	Seed int64
}

func (p *AdaptParams) setDefaults() error {
	if len(p.Losses) == 0 {
		p.Losses = []float64{0, 0.05, 0.20, 0.40}
	}
	for _, l := range p.Losses {
		if l < 0 || l >= 1 {
			return fmt.Errorf("adapt: loss %v outside [0,1)", l)
		}
	}
	if p.Fetchers == 0 {
		p.Fetchers = 4
	}
	if p.Size == 0 {
		p.Size = 24 << 10
	}
	if p.K == 0 {
		p.K = 96
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return nil
}

// adaptModes are the two sender configurations the sweep compares at
// every loss point: the static satiation budget and the loss-tuned one.
// Both run the systematic first pass — every sender does.
var adaptModes = []struct {
	Name     string
	Adaptive bool
}{
	{Name: "static"},
	{Name: "adaptive", Adaptive: true},
}

// AdaptPoint is one measured (loss, mode) cell of the sweep.
type AdaptPoint struct {
	// Loss is the symmetric per-link loss rate for this run.
	Loss float64 `json:"loss"`
	// Mode names the sender configuration (static / adaptive).
	Mode string `json:"mode"`
	// DataFrames counts every DATA frame put on the fabric before all
	// fetches completed — the wire cost the adaptive loop exists to cut.
	DataFrames int64 `json:"data_frames"`
	// CutVsStatic is the fraction of the static run's DATA frames this
	// mode saved at the same loss: 1 − frames/frames(static). Zero for
	// the static rows by construction; negative means inflation.
	CutVsStatic float64 `json:"cut_vs_static"`
	// MeanOverhead is the fetchers' mean reception overhead
	// (received/K).
	MeanOverhead float64 `json:"mean_overhead"`
}

// AdaptReport is the JSON artifact ltnc-bench -adapt writes: the swept
// grid plus the workload that produced it.
type AdaptReport struct {
	Fetchers int          `json:"fetchers"`
	Size     int          `json:"size"`
	K        int          `json:"k"`
	Seed     int64        `json:"seed"`
	Points   []AdaptPoint `json:"points"`
}

// WriteJSON writes the report, indented, to path.
func (r AdaptReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// RunAdaptCurve measures total DATA frames as a function of link loss
// for the two sender modes on an identical single-path swarm: one
// source feeding one relay feeding each fetcher (PeersPerFetcher 1, so
// the per-peer control loop is isolated — no second sender's stream to
// blur attribution). At low loss natives go out once as degree-1 rows
// and the coded repair tail is skipped almost entirely, in both modes.
// As loss grows, repair dominates and the budget control must hold the
// line — the adaptive rows may not sit materially above static.
func RunAdaptCurve(p AdaptParams) (AdaptReport, error) {
	if err := p.setDefaults(); err != nil {
		return AdaptReport{}, err
	}
	rep := AdaptReport{Fetchers: p.Fetchers, Size: p.Size, K: p.K, Seed: p.Seed}
	for _, loss := range p.Losses {
		var static int64
		for _, mode := range adaptModes {
			sc := simnet.Scenario{
				Name:    fmt.Sprintf("adapt-%s-%v", mode.Name, loss),
				Seed:    p.Seed,
				Sources: 1, Relays: 1, Fetchers: p.Fetchers,
				Objects:         []simnet.ObjectSpec{{Size: p.Size, K: p.K}},
				PeersPerFetcher: 1,
				Adaptive:        mode.Adaptive,
				Link:            simnet.LinkConfig{Loss: loss, Latency: 3 * time.Millisecond},
				Duration:        120 * time.Second,
			}
			res, err := sc.Run(context.Background())
			if err != nil {
				return rep, fmt.Errorf("adapt: %s at loss %v: %w", mode.Name, loss, err)
			}
			if len(res.Violations) > 0 {
				return rep, fmt.Errorf("adapt: %s at loss %v: invariant violated: %s", mode.Name, loss, res.Violations[0])
			}
			if res.FetchesFailed > 0 || res.FetchesCompleted < p.Fetchers {
				return rep, fmt.Errorf("adapt: %s at loss %v: %d/%d fetches completed (%d failed)",
					mode.Name, loss, res.FetchesCompleted, p.Fetchers, res.FetchesFailed)
			}
			if mode.Name == "static" {
				static = res.DataFrames
			}
			pt := AdaptPoint{
				Loss:         loss,
				Mode:         mode.Name,
				DataFrames:   res.DataFrames,
				MeanOverhead: res.MeanOverhead,
			}
			if static > 0 {
				pt.CutVsStatic = 1 - float64(res.DataFrames)/float64(static)
			}
			rep.Points = append(rep.Points, pt)
		}
	}
	return rep, nil
}
