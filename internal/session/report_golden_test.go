package session

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"ltnc/internal/integrity"
	"ltnc/internal/transport"
)

// reportBytesGolden pins the bytes of the reports a fetcher sends its relay
// in TestReportBytesGolden: the SHA-256 of the first report of each form,
// and ("all") of every report it sent, length-prefixed, in send order. A
// change here is a change of the wire, or of when a report goes.
var reportBytesGolden = map[string]string{
	"subscription":        "b000e9b42b626e03e34de09317fcc9cfb14d0a621555101adb0da24324e7b246",
	"frontier":            "ffba2846be423cb1e45917a1c5fd8ecd0803cc872e24fb89c0b0316ca6031f16",
	"generation-complete": "50420e9474c4c7e102d0a97db22380902e9a33d339036a848048389f1c947a74",
	"need":                "4151609daceee4e6eb9c87fc28fab2b31e03ba6be67539e47b49d1cccd2839bf",
	"complete":            "2b8319c85bb067d2feb4999dfb3bef0b9ef7c89c2222e860cbcb4d64237502bc",
	"all":                 "58cc17ddedb67563c3ef87a439ba923a9a55ad3eff5f7ba583d9c588ea4a2941",
}

// TestReportBytesGolden: source → relay → fetcher, a round trip a tick, an
// object of two generations and two manifest runs; the relay's hop loses
// every fifth DATA frame and the first MANIFEST frame of run 0. The
// fetcher's reports upstream — its subscription, receipts with a frontier
// behind them, a generation complete, the need for the lost run, and
// complete — are read as they leave it, in wire bytes (frame type 0x04,
// flags at byte 18, the 39-byte fixed part, then the frontier), so what
// they pin is the wire, whatever codec writes it.
func TestReportBytesGolden(t *testing.T) {
	const k, gens, m = 2 * integrity.RunLen, 2, 8
	n := newStepNetG(t, k, gens, m, 73, nil, "src", "relay", "dst")
	n.delay = n.nodes["src"].cfg.Tick / 2
	var reports [][]byte
	rows, lostRun := 0, false
	n.lose = func(from, to transport.Addr, f []byte) bool {
		if from == "dst" && f[0] == 0x04 {
			reports = append(reports, f)
		}
		if from != "relay" || to != "dst" {
			return false
		}
		switch f[0] {
		case 0x01:
			rows++
			return rows%5 == 0
		case 0x05:
			if !lostRun && binary.BigEndian.Uint32(f[1+16+52:]) == 0 {
				lostRun = true
				return true
			}
		}
		return false
	}
	fetch, err := n.nodes["dst"].BeginFetch(n.id, "relay")
	if err != nil {
		t.Fatal(err)
	}
	defer fetch.End()
	n.next["dst"] = n.clk.Now()
	for ticks := 0; !n.fetched().Complete; ticks++ {
		if ticks == 2000 {
			t.Fatal("the fetch never completed")
		}
		n.tick()
	}
	n.run(4 * n.nodes["src"].cfg.Tick) // the complete report goes
	if !lostRun {
		t.Fatal("run 0 never crossed the lossy hop: the test exercises nothing")
	}

	form := func(i int, f []byte) string {
		switch {
		case i == 0:
			return "subscription"
		case f[18]&1 != 0:
			return "complete"
		case f[18]&4 != 0:
			return "need"
		case f[18]&2 != 0:
			return "generation-complete"
		case len(f) > 39:
			return "frontier"
		}
		return ""
	}
	got := map[string]string{}
	all := sha256.New()
	for i, f := range reports {
		if name := form(i, f); name != "" && got[name] == "" {
			sum := sha256.Sum256(f)
			got[name] = hex.EncodeToString(sum[:])
		}
		all.Write(binary.BigEndian.AppendUint32(nil, uint32(len(f))))
		all.Write(f)
	}
	got["all"] = hex.EncodeToString(all.Sum(nil))
	t.Logf("%d reports", len(reports))
	for _, name := range []string{"subscription", "frontier", "generation-complete", "need", "complete", "all"} {
		if got[name] == "" {
			t.Errorf("the fetcher sent no %s report", name)
		} else if got[name] != reportBytesGolden[name] {
			t.Errorf("%s: %s, want %s", name, got[name], reportBytesGolden[name])
		}
	}
}
