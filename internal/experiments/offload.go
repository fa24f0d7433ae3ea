package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"time"

	"ltnc/internal/simnet"
)

// OffloadParams configures the origin-offload-vs-budget curve: one
// edge-cache scenario per budget point, identical except for the cache's
// byte budget.
type OffloadParams struct {
	// Budgets are the cache byte budgets to sweep, in any order; the
	// curve is reported sorted ascending and offload is measured against
	// the smallest. At least two points are required.
	Budgets []int64
	// Fetchers is the number of fetchers behind the cache (default 8):
	// the first pulls the object through, the rest are the flash crowd.
	Fetchers int
	// Size, K and Generations shape the hot object (defaults 64 KiB,
	// k=256, G=4 — the edge-cache scenario geometry).
	Size, K, Generations int
	// Seed drives every run; the same seed resolves the same curve.
	Seed int64
}

func (p *OffloadParams) setDefaults() error {
	if len(p.Budgets) < 2 {
		return fmt.Errorf("offload: need at least 2 budget points, have %d", len(p.Budgets))
	}
	if p.Fetchers == 0 {
		p.Fetchers = 8
	}
	if p.Size == 0 {
		p.Size = 64 << 10
	}
	if p.K == 0 {
		p.K = 256
	}
	if p.Generations == 0 {
		p.Generations = 4
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return nil
}

// OffloadPoint is one measured budget point of the offload curve.
type OffloadPoint struct {
	// Budget is the cache's byte budget for this run.
	Budget int64 `json:"budget"`
	// OriginDataFrames counts DATA frames the origin put on the wire
	// before every fetcher completed.
	OriginDataFrames int64 `json:"origin_data_frames"`
	// Offload is the fraction of the smallest-budget origin traffic this
	// budget saved: 1 − frames/frames(min budget). By construction 0 at
	// the first point; a bigger cache that absorbs more of the crowd
	// pushes it toward 1.
	Offload float64 `json:"offload"`
	// CacheUsed and CacheRows snapshot the cache occupancy at run end.
	CacheUsed int64 `json:"cache_used"`
	CacheRows int   `json:"cache_rows"`
	// MeanOverhead is the fetchers' mean reception overhead.
	MeanOverhead float64 `json:"mean_overhead"`
}

// OffloadReport is the JSON artifact ltnc-sim -offload writes: the swept
// curve plus the workload that produced it.
type OffloadReport struct {
	Fetchers    int            `json:"fetchers"`
	Size        int            `json:"size"`
	K           int            `json:"k"`
	Generations int            `json:"generations"`
	Seed        int64          `json:"seed"`
	Points      []OffloadPoint `json:"points"`
}

// WriteJSON writes the report, indented, to path.
func (r OffloadReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Check reports the first point at which the curve breaks what an
// offload curve must show, or nil: origin DATA frames never rise as the
// budget grows, and a point whose cache holds the whole object (k rows)
// reads exactly k origin frames — the origin served it once. Points are
// in ascending budget order, as RunOffloadCurve reports them.
func (r OffloadReport) Check() error {
	for i, pt := range r.Points {
		if i > 0 && pt.OriginDataFrames > r.Points[i-1].OriginDataFrames {
			return fmt.Errorf("offload: %d origin frames at budget %d, more than %d at budget %d",
				pt.OriginDataFrames, pt.Budget, r.Points[i-1].OriginDataFrames, r.Points[i-1].Budget)
		}
		if pt.CacheRows == r.K && pt.OriginDataFrames != int64(r.K) {
			return fmt.Errorf("offload: budget %d holds all k=%d rows, but the origin sent %d frames",
				pt.Budget, r.K, pt.OriginDataFrames)
		}
	}
	return nil
}

// crowdAfter is when the crowd arrives: the instant the first fetcher,
// alone behind the cache, completes, read off a run of sc without the
// crowd — which the crowd's run replays exactly up to that instant.
func crowdAfter(sc simnet.Scenario) (time.Duration, error) {
	res, err := sc.Run(context.Background())
	if err == nil && res.FetchesCompleted != 1 {
		err = fmt.Errorf("the first fetch alone did not complete: %v", res.Violations)
	}
	if err != nil {
		return 0, err
	}
	return res.Fetches[0].CompletedAt, nil
}

// RunOffloadCurve measures origin DATA frames as a function of the cache
// budget: one hot object behind a single budgeted partial cache, the
// first fetcher pulling it through at t = 0 and the rest of the crowd
// arriving once that fetch has completed (crowdAfter), and the origin's
// wire traffic counted per budget until the last fetch completes. The
// late arrival is what makes the budget matter: a crowd subscribed while
// the origin's pass is still coming through is served by pass-through
// (every row the cache cannot store is forwarded, not absorbed) at k
// origin frames whatever the budget — multicast, not caching. Arriving
// after it, the crowd gets what the cache kept: a budget too small for the
// object never lets the cache report the object covered, so the origin
// keeps streaming into it, at the pace the cache's receipts set, and
// re-serves what the cache could not hold; once the budget covers the
// object the origin serves it exactly once. The curve is the cache-sizing
// guide: offload bought per byte of budget.
func RunOffloadCurve(p OffloadParams) (OffloadReport, error) {
	if err := p.setDefaults(); err != nil {
		return OffloadReport{}, err
	}
	budgets := slices.Clone(p.Budgets)
	slices.Sort(budgets)
	rep := OffloadReport{
		Fetchers: p.Fetchers, Size: p.Size, K: p.K, Generations: p.Generations, Seed: p.Seed,
	}
	for _, budget := range budgets {
		sc := simnet.Scenario{
			Name:    fmt.Sprintf("offload-%d", budget),
			Seed:    p.Seed,
			Sources: 1, Caches: 1, Fetchers: 1,
			Objects:         []simnet.ObjectSpec{{Size: p.Size, K: p.K, Generations: p.Generations}},
			CacheBudget:     budget,
			PeersPerFetcher: 1,
			Link:            simnet.LinkConfig{Latency: 2 * time.Millisecond},
			Tick:            10 * time.Millisecond,
			Duration:        60 * time.Second,
		}
		at, err := crowdAfter(sc)
		if err != nil {
			return rep, fmt.Errorf("offload: budget %d: %w", budget, err)
		}
		for i := 1; i < p.Fetchers; i++ {
			sc.Timeline = append(sc.Timeline, simnet.Event{
				At: at, Kind: simnet.EvJoin, Node: fmt.Sprintf("crowd%d", i),
			})
		}
		res, err := sc.Run(context.Background())
		if err != nil {
			return rep, fmt.Errorf("offload: budget %d: %w", budget, err)
		}
		if len(res.Violations) > 0 {
			return rep, fmt.Errorf("offload: budget %d: invariant violated: %s", budget, res.Violations[0])
		}
		if res.FetchesFailed > 0 || res.FetchesCompleted < p.Fetchers {
			return rep, fmt.Errorf("offload: budget %d: %d/%d fetches completed (%d failed)",
				budget, res.FetchesCompleted, p.Fetchers, res.FetchesFailed)
		}
		pt := OffloadPoint{
			Budget:           budget,
			OriginDataFrames: res.OriginDataFrames,
			MeanOverhead:     res.MeanOverhead,
		}
		for _, cs := range res.CacheTiers {
			pt.CacheUsed += cs.Used
			pt.CacheRows += cs.Rows
		}
		rep.Points = append(rep.Points, pt)
	}
	base := float64(rep.Points[0].OriginDataFrames)
	for i := range rep.Points {
		rep.Points[i].Offload = 1 - float64(rep.Points[i].OriginDataFrames)/base
	}
	return rep, nil
}
