package session

import (
	"context"
	"testing"
	"time"

	"ltnc/internal/transport"
)

// TestRedundantMetaElicitsComplete pins the lost-fbComplete heal: a
// sender that never heard a receiver's completion keeps resending META;
// the complete, sized receiver must answer each redundant META with
// fbComplete so the sender can finally stop. (Without the reply the META
// cycle to a generation-complete peer — one whose kind-3 feedback
// already stops all DATA — would never converge.)
func TestRedundantMetaElicitsComplete(t *testing.T) {
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

	// A bare port plays the sender whose fbComplete was lost: it repeats
	// the META, as the push loop would.
	sender := attach(t, sw, "sender")
	if err := sender.Send("recv", metaFor(id, st.K, st.M, st.Size, st.Generations)); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for {
		f, err := sender.Recv(ctx)
		if err != nil {
			t.Fatalf("no reply to redundant META: %v", err)
		}
		isComplete := len(f.Data) == feedbackLen && f.Data[0] == frameFeedback && f.Data[17] == fbComplete
		f.Release()
		if isComplete {
			return // the sender would latch done and stop the META cycle
		}
	}
}
