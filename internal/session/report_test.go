package session

import (
	"testing"
	"time"

	"ltnc/internal/transport"
)

// TestOneReportABatch: a batch of rows for a generation that is complete
// here, or for an object that is, draws one report back to their
// upstream, not one a row: the status each row owes is sent once, at the
// batch's end, with the counters of every row the batch judged. Rows of
// both generations of a complete object still draw one.
func TestOneReportABatch(t *testing.T) {
	const gens, kPer, m, n = 2, 16, 8, 24
	content := testContent(gens*kPer*m, 47)
	d := servedDesc(t, content, gens*kPer, gens)
	id := d.Object
	s, rec, _ := pushSession(t, "node", func(c *Config) { c.Relay = true })
	injectBurst(s, "up", manifestRuns(t, d, content))
	natives := func(g int) [][]byte {
		rows := make([][]byte, kPer)
		for i := range rows {
			rows[i] = handRow(t, id, content, gens, kPer, g, false, i)
		}
		return rows
	}
	batch := func(gs ...int) [][]byte {
		rows := make([][]byte, n)
		for i := range rows {
			rows[i] = handRow(t, id, content, gens, kPer, gs[i%len(gs)], false, i%kPer)
		}
		return rows
	}
	// report takes the frames sent to up since the last call: exactly one,
	// a report with flags want.
	report := func(t *testing.T, want byte) (gen, received, innovative uint32) {
		t.Helper()
		fs := rec.take()["up"]
		if len(fs) != 1 || !isReport(fs[0]) {
			t.Fatalf("%d frames back for a batch of %d rows (%q), want one report", len(fs), n, kinds(fs))
		}
		if fs[0][18] != want {
			t.Fatalf("report flags %03b, want %03b", fs[0][18], want)
		}
		gen, received, innovative, _ = reportCounters(fs[0])
		return gen, received, innovative
	}

	injectBurst(s, "up", natives(0))
	rec.take()
	t.Run("generation-complete", func(t *testing.T) {
		injectBurst(s, "up", batch(0))
		if gen, recv, inno := report(t, repGenComplete); gen != 0 || recv != kPer+n || inno != kPer {
			t.Errorf("report about generation %d, %d rows received, %d innovative; want 0, %d and %d", gen, recv, inno, kPer+n, kPer)
		}
	})
	injectBurst(s, "up", natives(1))
	if o, _ := s.Object(id); !o.Complete {
		t.Fatalf("object not complete: %+v", o)
	}
	rec.take()
	t.Run("complete", func(t *testing.T) {
		injectBurst(s, "up", batch(0, 1))
		report(t, repComplete)
	})
}

// TestRetiredFeedbackKindsMoveNothing: FEEDBACK kinds 2, 3 and 7 are gone
// from the wire. A kind-2 frame from a peer pushed to no longer latches
// done, a kind 3 marks no generation complete and a kind 7 owes no run;
// the report's flags do each.
func TestRetiredFeedbackKindsMoveNothing(t *testing.T) {
	s, _, _ := pushSession(t, "src", nil)
	id, err := s.Serve(testContent(2048*8, 53), 2048, 2)
	if err != nil {
		t.Fatal(err)
	}
	injectFrame(s, "peer", encodeReq(id))
	ps := s.objects[id].peers["peer"]
	ps.pass, ps.proofAt = -1, s.clk.Now().Add(-time.Second) // the pass long over
	injectBurst(s, "peer", [][]byte{
		retiredFeedback(id, fbRetiredComplete),
		retiredFeedback(id, fbRetiredGenComplete, 1),
		retiredFeedback(id, fbRetiredNeed, 0),
	})
	if ps.done || genDone(ps.gensDone, 1) || ps.owed != 0 {
		t.Fatalf("a retired kind moved the peer: done %v, generation 1 done %v, run owed %d", ps.done, genDone(ps.gensDone, 1), ps.owed)
	}
	for _, c := range []struct {
		name  string
		frame []byte
		moved func() bool
	}{
		{"need", needReport(id, 0), func() bool { return ps.owed == 1 }},
		{"generation-complete", genCompleteReport(id, 1), func() bool { return genDone(ps.gensDone, 1) }},
		{"complete", completeReport(id), func() bool { return ps.done }},
	} {
		if injectFrame(s, transport.Addr("peer"), c.frame); !c.moved() {
			t.Errorf("a report flagging %s moved nothing", c.name)
		}
	}
}
