package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ltnc/internal/experiments"
)

func TestParseKs(t *testing.T) {
	ks, err := parseKs("256, 512,1024")
	if err != nil {
		t.Fatal(err)
	}
	if len(ks) != 3 || ks[0] != 256 || ks[1] != 512 || ks[2] != 1024 {
		t.Errorf("parseKs = %v", ks)
	}
	if _, err := parseKs("12,abc"); err == nil {
		t.Error("bad entry accepted")
	}
}

func TestRunFig7aTiny(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-fig", "7a", "-n", "8", "-k", "24", "-runs", "1", "-seed", "3"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "round\tWC\tLTNC\tRLNC") {
		t.Errorf("missing series header in %q", out[:min(120, len(out))])
	}
}

func TestRunFig7bTiny(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-fig", "7b", "-n", "8", "-ks", "16,24", "-runs", "1"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "k\tWC\tLTNC\tRLNC") {
		t.Error("missing table header")
	}
}

func TestRunFig7cTiny(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-fig", "7c", "-n", "8", "-ks", "24", "-runs", "1"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "overhead_pct") {
		t.Error("missing overhead column")
	}
}

func TestRunHeadlineTiny(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-fig", "headline", "-n", "8", "-k", "32", "-runs", "1", "-m", "16"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "decode_reduction_pct") {
		t.Error("missing headline metric")
	}
}

func TestRunAblationTiny(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-fig", "ablation", "-n", "8", "-k", "24", "-runs", "1"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ltnc/baseline") {
		t.Error("missing baseline row")
	}
}

func TestRunList(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-list"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "churn50") || !strings.Contains(buf.String(), "partition3hop") {
		t.Errorf("catalog listing incomplete: %q", buf.String())
	}
	// The listing carries the resolved populations and descriptions, not
	// just names: edge-cache resolves to 1 source + 3 caches + 8 fetchers.
	if !strings.Contains(buf.String(), "1s+3c+8f") || !strings.Contains(buf.String(), "flash crowd") {
		t.Errorf("catalog listing lacks populations/descriptions: %q", buf.String())
	}
}

func TestRunScenarioSmoke(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-scenario", "smoke", "-seed", "5"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"scenario": "smoke"`, `"seed": 5`, `"fetches_completed": 2`, `"timeline_hash"`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON report missing %s", want)
		}
	}
}

func TestRunScenarioUnknown(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-scenario", "no-such"}, &buf); err == nil {
		t.Error("unknown scenario accepted")
	}
}

func TestRunUnknownFig(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-fig", "9z"}, &buf); err == nil {
		t.Error("unknown figure accepted")
	}
	if err := run([]string{"-fig", "7b", "-ks", "x"}, &buf); err == nil {
		t.Error("bad ks accepted")
	}
}

// TestRunOffloadMode: -offload sweeps the edge-cache budget curve, prints
// one row a budget and writes the curve artifact.
func TestRunOffloadMode(t *testing.T) {
	var buf bytes.Buffer
	out := filepath.Join(t.TempDir(), "offload.json")
	err := run([]string{"-offload", "65536,98304", "-offload-out", out, "-seed", "1"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "origin_data_frames") {
		t.Errorf("missing curve header in %q", buf.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep experiments.OffloadReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 2 || rep.Points[1].Offload <= 0 {
		t.Fatalf("offload curve missing or flat: %+v", rep.Points)
	}
}

// TestOffloadCurveChecked: the -offload output step fails on a curve
// whose origin frames rise with the budget, or whose cache holds the whole
// object while the origin sent more than k frames, and passes the curve
// the sweep measures at seed 1.
func TestOffloadCurveChecked(t *testing.T) {
	curve := func(frames ...int64) experiments.OffloadReport {
		rep := experiments.OffloadReport{K: 256}
		for i, f := range frames {
			pt := experiments.OffloadPoint{Budget: int64(i+1) << 15, OriginDataFrames: f}
			if i == len(frames)-1 {
				pt.CacheRows = rep.K
			}
			rep.Points = append(rep.Points, pt)
		}
		return rep
	}
	for _, tc := range []struct {
		frames []int64
		want   string
	}{
		{[]int64{678, 425, 256}, ""},
		{[]int64{425, 678, 256}, "more than 425"},
		{[]int64{678, 425, 300}, "origin sent 300"},
	} {
		var buf bytes.Buffer
		err := reportOffload(&buf, curve(tc.frames...), "")
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%v: %v", tc.frames, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%v: err = %v, want one naming %q", tc.frames, err, tc.want)
		}
		if !strings.Contains(buf.String(), "origin_data_frames") {
			t.Errorf("%v: curve not printed before the check", tc.frames)
		}
	}
}

// TestRunRejectsBadFlags: an unknown flag fails, and so does an -offload
// list with a malformed or non-positive budget or a single point; each
// offload error must be about the budgets, not the flag itself.
func TestRunRejectsBadFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-bogus"}, &buf); err == nil {
		t.Error("unknown flag accepted")
	}
	for _, budgets := range []string{"4096,nope", "4096,0", "4096,-8", "65536"} {
		err := run([]string{"-offload", budgets, "-offload-out", ""}, &buf)
		if err == nil || !strings.Contains(err.Error(), "budget") {
			t.Errorf("-offload %s: err = %v, want a budget error", budgets, err)
		}
	}
}
