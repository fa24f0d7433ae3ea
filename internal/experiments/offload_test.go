package experiments

import (
	"encoding/json"
	"path/filepath"
	"testing"
)

// TestRunOffloadCurve sweeps a small two-point curve: an undersized cache
// forces the origin to keep serving the crowd, a cache that fits the
// object absorbs it and the origin serves it exactly once. The
// scaled-down geometry keeps the two virtual-time runs in test-suite
// budget.
func TestRunOffloadCurve(t *testing.T) {
	rep, err := RunOffloadCurve(OffloadParams{
		Budgets:  []int64{8 << 10, 24 << 10},
		Fetchers: 4,
		Size:     16 << 10, K: 64, Generations: 2,
		Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 2 {
		t.Fatalf("got %d points, want 2", len(rep.Points))
	}
	small, big := rep.Points[0], rep.Points[1]
	if small.Budget != 8<<10 || big.Budget != 24<<10 {
		t.Fatalf("points not sorted by budget: %+v", rep.Points)
	}
	if small.Offload != 0 {
		t.Errorf("offload is measured against the smallest budget, got %f", small.Offload)
	}
	if small.OriginDataFrames == 0 || big.OriginDataFrames == 0 {
		t.Fatalf("origin sent nothing: %+v", rep.Points)
	}
	if big.OriginDataFrames >= small.OriginDataFrames {
		t.Errorf("bigger cache did not offload the origin: %d frames at %d B vs %d at %d B",
			big.OriginDataFrames, big.Budget, small.OriginDataFrames, small.Budget)
	}
	if big.OriginDataFrames != 64 {
		t.Errorf("origin sent %d frames into a cache that fits the object, want the k=64 rows once", big.OriginDataFrames)
	}
	if big.CacheRows != 64 {
		t.Errorf("full-budget cache holds %d rows, want the whole k=64 object", big.CacheRows)
	}
	if small.CacheUsed > small.Budget || big.CacheUsed > big.Budget {
		t.Errorf("cache over budget: %+v", rep.Points)
	}
	if err := rep.Check(); err != nil {
		t.Error(err)
	}

	// The report is the CI artifact; it must round-trip as JSON.
	path := filepath.Join(t.TempDir(), "offload.json")
	if err := rep.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	var back OffloadReport
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Points) != 2 || back.Points[1].Offload != big.Offload {
		t.Errorf("JSON round-trip mangled the report: %+v", back)
	}
}

// TestOffloadParamsValidate pins the minimum-points guard.
func TestOffloadParamsValidate(t *testing.T) {
	if _, err := RunOffloadCurve(OffloadParams{Budgets: []int64{4096}}); err == nil {
		t.Fatal("single-point curve accepted")
	}
}
