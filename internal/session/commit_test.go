package session

import (
	"bytes"
	"context"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ltnc/internal/packet"
	"ltnc/internal/transport"
)

// Under Run the object buffer is allocated on a goroutine of its own
// (commitBufLocked): the receive loop and the object lock never wait for
// the clear of k·m bytes.

// heldAllocs holds every buffer allocation of a session up: the first
// announces its size on asked, and each waits for free.
type heldAllocs struct {
	asked   chan int
	release chan struct{}
	once    sync.Once
}

func holdAllocs(s *Session) *heldAllocs {
	h := &heldAllocs{asked: make(chan int, 1), release: make(chan struct{})}
	s.commits.alloc = func(n int) []byte {
		select {
		case h.asked <- n:
		default:
		}
		<-h.release
		return make([]byte, n)
	}
	return h
}

// free lets every allocation through, from now on.
func (h *heldAllocs) free() { h.once.Do(func() { close(h.release) }) }

// receiptCounter counts the receipts a session sends.
type receiptCounter struct {
	transport.Transport
	n atomic.Int64
}

func (r *receiptCounter) Send(to transport.Addr, frame []byte) error {
	if isReport(frame) {
		r.n.Add(1)
	}
	return r.Transport.Send(to, frame)
}

// eventually polls cond until it holds, for at most ten seconds.
func eventually(cond func() bool) bool {
	for end := time.Now().Add(10 * time.Second); time.Now().Before(end); time.Sleep(time.Millisecond) {
		if cond() {
			return true
		}
	}
	return false
}

// stateOf returns the session's state for id, nil for none.
func (s *Session) stateOf(id packet.ObjectID) *objectState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.objects[id]
}

// commitOf reports whether st has its buffer and whether it is committing one.
func commitOf(st *objectState) (placed, committing bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.buf != nil, st.committing
}

// installing counts the goroutines placing an object buffer.
func installing() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "installBuffer")
}

// commitRig is a running source serving content and a running fetcher
// whose buffer allocations are held up, its fetch under way.
type commitRig struct {
	src, f   *Session
	fetch    *Fetching
	held     *heldAllocs
	done     <-chan struct{} // closed once the fetcher's Run has returned
	receipts *receiptCounter // the fetcher's
	id       packet.ObjectID
	content  []byte
}

// commitFetch builds a commitRig, mut adjusting the fetcher's Config, and
// returns once the fetcher's commit is under way.
func commitFetch(t *testing.T, ctx context.Context, mut func(*Config)) *commitRig {
	t.Helper()
	// Four runs of the manifest, two a push round: the buffer commits a
	// few windows into the k rows.
	const gens, kPer, m = 4, 1024, 64
	sw, err := transport.NewSwitch(transport.SwitchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	r := &commitRig{src: startSession(t, attach(t, sw, "src"), nil), content: testContent(gens*kPer*m, 53)}
	if r.id, err = r.src.Serve(r.content, gens*kPer, gens); err != nil {
		t.Fatal(err)
	}
	r.receipts = &receiptCounter{Transport: attach(t, sw, "dst")}
	cfg := Config{Transport: r.receipts, Tick: 500 * time.Microsecond, Seed: 1}
	if mut != nil {
		mut(&cfg)
	}
	if r.f, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	r.held = holdAllocs(r.f)
	r.done = runSession(t, r.f)
	t.Cleanup(r.held.free) // first: Run waits for its commits
	if r.fetch, err = r.f.BeginFetch(r.id, "src"); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-r.held.asked:
		if n != len(r.content) {
			t.Fatalf("a %d-byte buffer committed for %d bytes of content", n, len(r.content))
		}
	case <-ctx.Done():
		t.Fatal("no buffer committed")
	}
	return r
}

// TestCommitOffTheReceiveLoop: with the buffer's allocation held up, the
// fetcher keeps decoding — every native, into arena rows — and sending
// receipts, and completes only once the buffer is in; then every native
// sits in its slot and Fetch returns the content, the buffer's head.
func TestCommitOffTheReceiveLoop(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	r := commitFetch(t, ctx, nil)
	defer r.fetch.End()
	f, id := r.f, r.id
	st := f.stateOf(id)
	if !eventually(func() bool {
		free := st.mu.TryLock()
		if free {
			st.mu.Unlock()
		}
		return free
	}) {
		t.Fatal("the object lock is held while its buffer is allocated")
	}
	at, _ := f.Object(id)
	receipts := r.receipts.n.Load()
	if !eventually(func() bool { o, _ := f.Object(id); return o.Decoded == o.K }) {
		o, _ := f.Object(id)
		t.Fatalf("the fetch stalled at %d of %d natives while its buffer was committing", o.Decoded, o.K)
	}
	o, _ := f.Object(id)
	if placed, committing := commitOf(st); placed || !committing || o.Complete {
		t.Fatalf("every native decoded before the buffer came: placed %v, committing %v, complete %v", placed, committing, o.Complete)
	}
	if sent := r.receipts.n.Load() - receipts; at.Decoded >= o.K || sent == 0 {
		t.Fatalf("%d natives decoded when the commit began, %d receipts sent while it was held up", at.Decoded, sent)
	}
	r.held.free()
	var data []byte
	if !eventually(func() bool { d, _, err, ok := r.fetch.Result(); data = d; return ok && err == nil }) {
		t.Fatal("no fetch result once the buffer was released")
	}
	if !bytes.Equal(data, r.content) {
		t.Fatal("fetched bytes differ from the served content")
	}
	checkPhaseInvariants(t, f)
	if &data[0] != &st.buf[0] {
		t.Error("the content is not the object buffer's head")
	}
}

// TestCommitAbandoned: a commit under way when its object is evicted, or
// its session closed, places nothing, and Run returns only once its
// goroutine has.
func TestCommitAbandoned(t *testing.T) {
	t.Run("closed", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		r := commitFetch(t, ctx, nil)
		defer r.fetch.End()
		st := r.f.stateOf(r.id)
		r.f.Close()
		select {
		case <-r.done:
			t.Fatal("Run returned with a commit under way")
		case <-time.After(20 * time.Millisecond):
		}
		r.held.free()
		select {
		case <-r.done:
		case <-ctx.Done():
			t.Fatal("Run did not return")
		}
		if placed, _ := commitOf(st); placed || installing() != 0 {
			t.Fatalf("closed: buffer placed %v, %d goroutines placing one", placed, installing())
		}
	})
	t.Run("evicted", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		r := commitFetch(t, ctx, func(cfg *Config) { cfg.IdleTimeout = 5 * time.Millisecond })
		st := r.f.stateOf(r.id)
		r.fetch.End()
		r.src.Close()
		if !eventually(func() bool { return r.f.stateOf(r.id) == nil }) {
			t.Fatal("the object was never evicted")
		}
		r.held.free()
		if !eventually(func() bool { return installing() == 0 }) {
			t.Fatal("the commit's goroutine never returned")
		}
		checkPhaseInvariants(t, r.f)
		if placed, committing := commitOf(st); placed || committing || st.phaseNow() != phEvicted {
			t.Fatalf("evicted: buffer placed %v, committing %v, phase %v", placed, committing, st.phaseNow())
		}
	})
}
