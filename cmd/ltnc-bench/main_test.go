package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"ltnc/internal/experiments"
)

func TestRunWritesReport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	err := run([]string{
		"-objects", "2", "-size", "2048", "-k", "16", "-rounds", "1",
		"-out", out,
	}, os.Stdout)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep experiments.DecodeBenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Engine.Packets == 0 {
		t.Fatalf("empty engine result: %+v", rep)
	}
}

// TestRunOffloadMode: -offload swaps the decode bench for the edge-cache
// budget sweep and writes the curve artifact.
func TestRunOffloadMode(t *testing.T) {
	out := filepath.Join(t.TempDir(), "offload.json")
	err := run([]string{
		"-offload", "65536,98304", "-offload-out", out, "-seed", "1",
	}, os.Stdout)
	if err != nil {
		t.Fatal(err)
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

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-bogus"}, os.Stdout); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := run([]string{"-offload", "4096,nope"}, os.Stdout); err == nil {
		t.Error("malformed offload budget accepted")
	}
	if err := run([]string{"-objects", "-3", "-out", ""}, os.Stdout); err == nil {
		t.Error("negative objects accepted")
	}
	if err := run([]string{"-generations", "1,x", "-out", ""}, os.Stdout); err == nil {
		t.Error("malformed generation sweep accepted")
	}
	if err := run([]string{"-generations", "3", "-gen-k", "64", "-out", ""}, os.Stdout); err == nil {
		t.Error("non-dividing generation count accepted")
	}
}

// TestRunGenerationSweepInReport: the default sweep lands in the JSON.
func TestRunGenerationSweepInReport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	err := run([]string{
		"-objects", "2", "-size", "2048", "-k", "16", "-rounds", "1",
		"-generations", "1,4", "-gen-size", "32768", "-gen-k", "64",
		"-out", out,
	}, os.Stdout)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep experiments.DecodeBenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.GenSweep) != 2 || rep.GenSweep[1].Generations != 4 {
		t.Fatalf("generation sweep missing from report: %+v", rep.GenSweep)
	}
}
