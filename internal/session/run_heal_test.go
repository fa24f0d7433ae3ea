package session

import (
	"context"
	"testing"
	"time"

	"ltnc/internal/packet"
	"ltnc/internal/transport"
)

// TestRedundantRunElicitsComplete pins the heal of a lost complete report
// on the proof path: a complete, sized receiver answers a redundant run of
// the manifest — one that reaches it after its completion, or from a
// sender whose peer entry for it was dropped and made afresh — with a
// report flagging the object complete, as the DATA path answers a row of
// a complete object, so the sender can stop.
func TestRedundantRunElicitsComplete(t *testing.T) {
	sw, err := transport.NewSwitch(transport.SwitchConfig{QueueDepth: 64, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	// The "receiver" holds a complete, sized object (serving one is the
	// simplest way to be in that state).
	recv := startSession(t, attach(t, sw, "recv"), nil)
	content := testContent(1024, 4)
	id, err := recv.Serve(content, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	st, ok := recv.Object(id)
	if !ok || !st.Complete {
		t.Fatalf("served object not complete: %+v", st)
	}

	// A bare port plays the sender whose complete report was lost: its
	// proof pass sends the run.
	sender := attach(t, sw, "sender")
	if err := sender.Send("recv", manifestRuns(t, servedDesc(t, content, 16, 1), content)[0]); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for {
		f, err := sender.Recv(ctx)
		if err != nil {
			t.Fatalf("no reply to a redundant run: %v", err)
		}
		r, ok := parseReport(f.Data)
		isComplete := ok && r.Flags == packet.ReportComplete
		f.Release()
		if isComplete {
			return // the sender would latch done and stop pushing
		}
	}
}
