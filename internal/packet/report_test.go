package packet

import (
	"bytes"
	"errors"
	"testing"
)

// testReport is a report with every counter distinct, and frontier behind
// it.
func testReport(flags byte, need uint32, frontier []byte) Report {
	return Report{
		Object: NewObjectID([]byte("report")), Flags: flags, Need: need,
		Gen: 3, Received: 1 << 20, Innovative: 1<<20 - 7, Departed: 1<<32 - 1, Frontier: frontier,
	}
}

// FuzzReport hardens the report codec: it must never panic, every body it
// refuses is refused as ErrBadReport, and every report it accepts has kind
// 6, no unknown flag and a need only under its flag, and re-encodes to the
// same bytes.
func FuzzReport(f *testing.F) {
	for flags := byte(0); flags < 8; flags++ {
		need := uint32(0)
		if flags&ReportNeed != 0 {
			need = 2
		}
		f.Add(AppendReport(nil, testReport(flags, need, nil)))
	}
	f.Add(AppendReport(nil, testReport(1<<3, 0, nil)))                // an unknown bit
	f.Add(AppendReport(nil, testReport(0x80|ReportComplete, 0, nil))) // another, beside a known one
	f.Add(AppendReport(nil, testReport(0, 1, nil)))                   // a need without its flag
	tail := AppendReport(nil, testReport(0, 0, []byte{0xff, 0x01}))   // a frontier behind the fixed part
	f.Add(tail)
	for _, n := range []int{ReportLen + 1, ReportLen, ReportLen - 1, 18, 17, 16, 0} {
		f.Add(tail[:n])
	}
	// The retired kinds as their senders built them: the object, the
	// kind, then a body of u32s (kind 3's generation, kind 5's counters,
	// kind 7's run).
	id := NewObjectID([]byte("report"))
	for _, kind := range []byte{1, 2, 3, 4, 5, 7} {
		f.Add(append(id[:], kind))
		f.Add(append(append(id[:], kind), make([]byte, 12)...))
		retired := bytes.Clone(tail)
		retired[16] = kind
		f.Add(retired)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := ParseReport(data)
		if err != nil {
			if !errors.Is(err, ErrBadReport) {
				t.Fatalf("error %v does not wrap ErrBadReport", err)
			}
			return
		}
		if data[16] != reportKind || r.Flags&^(ReportComplete|ReportGenComplete|ReportNeed) != 0 || r.Flags&ReportNeed == 0 && r.Need != 0 {
			t.Fatalf("accepted kind %d, flags %08b, need %d", data[16], r.Flags, r.Need)
		}
		if len(r.Frontier) != len(data)-ReportLen {
			t.Fatalf("%d-byte body: %d-byte frontier", len(data), len(r.Frontier))
		}
		if again := AppendReport(nil, r); !bytes.Equal(again, data) {
			t.Fatalf("non-canonical: %x re-encodes as %x", data, again)
		}
	})
}
