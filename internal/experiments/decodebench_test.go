package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestDecodeBenchSmall runs the harness on a scaled-down workload: both
// paths must decode every object, process the identical number of
// packets, and the engine must not allocate more than the scalar path.
func TestDecodeBenchSmall(t *testing.T) {
	rep, err := RunDecodeBench(DecodeBenchParams{Objects: 4, ObjectSize: 4096, K: 32, Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Baseline.Packets == 0 || rep.Engine.Packets == 0 {
		t.Fatalf("no packets measured: %+v", rep)
	}
	if rep.Baseline.Packets != rep.Engine.Packets {
		t.Fatalf("paths processed different streams: scalar %d, engine %d packets",
			rep.Baseline.Packets, rep.Engine.Packets)
	}
	if rep.Engine.AllocsPerPacket > rep.Baseline.AllocsPerPacket {
		t.Fatalf("engine allocates more than the scalar path: %.2f > %.2f",
			rep.Engine.AllocsPerPacket, rep.Baseline.AllocsPerPacket)
	}
	t.Logf("scalar %.1f MB/s %.2f allocs/pkt | engine %.1f MB/s %.2f allocs/pkt",
		rep.Baseline.MBps, rep.Baseline.AllocsPerPacket,
		rep.Engine.MBps, rep.Engine.AllocsPerPacket)
}

func TestDecodeBenchWriteJSON(t *testing.T) {
	rep, err := RunDecodeBench(DecodeBenchParams{Objects: 2, ObjectSize: 2048, K: 16, Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := rep.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back DecodeBenchReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Engine.Packets != rep.Engine.Packets {
		t.Fatalf("engine packets %d != %d", back.Engine.Packets, rep.Engine.Packets)
	}
}

func TestDecodeBenchParamValidation(t *testing.T) {
	if _, err := RunDecodeBench(DecodeBenchParams{Objects: -1}); err == nil {
		t.Error("negative objects accepted")
	}
	if _, err := RunDecodeBench(DecodeBenchParams{StreamFactor: 1}); err == nil {
		t.Error("stream factor 1 accepted")
	}
	if _, err := RunDecodeBench(DecodeBenchParams{GenSweep: []int{3}, GenK: 64}); err == nil {
		t.Error("generation count not dividing k accepted")
	}
	if _, err := RunDecodeBench(DecodeBenchParams{GenSweep: []int{0}}); err == nil {
		t.Error("zero generation count accepted")
	}
}

// TestGenerationSweep runs a scaled-down sweep and pins its invariants:
// the object decodes at every G, the header bytes per packet shrink
// strictly as G grows (the O(k/G) property the sweep exists to track),
// and overhead stays ≥ 1.
func TestGenerationSweep(t *testing.T) {
	rep, err := RunDecodeBench(DecodeBenchParams{
		Objects: 2, ObjectSize: 2048, K: 16, Rounds: 1,
		GenSweep: []int{1, 4, 16}, GenObjectSize: 64 * 1024, GenK: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.GenSweep) != 3 {
		t.Fatalf("sweep has %d entries, want 3", len(rep.GenSweep))
	}
	for i, e := range rep.GenSweep {
		if e.Packets == 0 || e.MBps == 0 {
			t.Fatalf("G=%d: empty measurement %+v", e.Generations, e)
		}
		if e.Overhead < 1 {
			t.Fatalf("G=%d: overhead %.3f < 1", e.Generations, e.Overhead)
		}
		if e.KPer != rep.GenK/e.Generations {
			t.Fatalf("G=%d: kPer %d", e.Generations, e.KPer)
		}
		if i > 0 && e.HeaderBytesPerPacket >= rep.GenSweep[i-1].HeaderBytesPerPacket {
			t.Fatalf("header bytes did not shrink: G=%d %dB vs G=%d %dB",
				e.Generations, e.HeaderBytesPerPacket,
				rep.GenSweep[i-1].Generations, rep.GenSweep[i-1].HeaderBytesPerPacket)
		}
		t.Logf("G=%-3d k/G=%-4d %7.1f MB/s %5.2f allocs/pkt %4d header B/pkt overhead %.3f",
			e.Generations, e.KPer, e.MBps, e.AllocsPerPacket, e.HeaderBytesPerPacket, e.Overhead)
	}
}
