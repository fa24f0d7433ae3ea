package packet

import "testing"

// Allocation budgets for the wire codec, asserted so hot-path regressions
// fail loudly instead of showing up as a throughput drift. Budgets are
// fixed ceilings, not measurements: raising one requires justifying the
// regression.

func allocPacket() *Packet {
	p := Native(256, 9, make([]byte, 512))
	p.Object = NewObjectID([]byte("alloc test"))
	return p
}

func TestMarshalAllocBudget(t *testing.T) {
	p := allocPacket()
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := Marshal(p); err != nil {
			t.Fatal(err)
		}
	})
	// One backing buffer; everything else is appended in place.
	if allocs > 1 {
		t.Errorf("Marshal allocates %.1f per call, budget 1", allocs)
	}
}

func TestAppendWireDoesNotAllocate(t *testing.T) {
	p := allocPacket()
	buf := make([]byte, 0, ObjectWireSize(p.K(), len(p.Payload)))
	allocs := testing.AllocsPerRun(100, func() {
		buf = AppendWire(buf[:0], p)
	})
	if allocs > 0 {
		t.Errorf("AppendWire into a sized buffer allocates %.1f per call, want 0", allocs)
	}
}

func TestParseWireDoesNotAllocate(t *testing.T) {
	data, err := Marshal(allocPacket())
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ParseWire(data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("ParseWire allocates %.1f per call, want 0", allocs)
	}
}

func TestUnmarshalAllocBudget(t *testing.T) {
	data, err := Marshal(allocPacket())
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := Unmarshal(data); err != nil {
			t.Fatal(err)
		}
	})
	// Reader scaffolding + header buffer + vector (struct + words) +
	// vector bytes + packet + payload.
	if allocs > 8 {
		t.Errorf("Unmarshal allocates %.1f per call, budget 8", allocs)
	}
}

// TestReportCodecDoesNotAllocate: a report and its frontier append into a
// sized buffer and a report parses, refused or accepted, with no
// allocation — a session parses every FEEDBACK frame on its receive loop.
func TestReportCodecDoesNotAllocate(t *testing.T) {
	r := Report{Object: NewObjectID([]byte("alloc test")), Flags: ReportNeed, Need: 3, Gen: 1, Received: 9}
	decoded := []int32{0, 9, 63}
	buf := make([]byte, 0, ReportLen+FrontierLen(64))
	bad := AppendReport(nil, Report{Flags: 1 << 7})
	allocs := testing.AllocsPerRun(100, func() {
		buf = AppendFrontier(AppendReport(buf[:0], r), 64, decoded)
		if _, err := ParseReport(buf); err != nil {
			t.Fatal(err)
		}
		if _, err := ParseReport(bad); err == nil {
			t.Fatal("an unknown flag parsed")
		}
	})
	if allocs > 0 {
		t.Errorf("the report codec allocates %.1f per call, want 0", allocs)
	}
}
