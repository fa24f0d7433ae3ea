// Dissemination: the real-network subsystem in one program — a source
// session, a recoding relay and a fetching client, each on its own UDP
// socket on localhost, multiplexing two content objects over the same
// transports, all through the public ltnc/swarm API.
//
// The client subscribes at the relay only: every packet it decodes was
// recoded by the relay from its partial, encoded view (the paper's core
// contribution), and redundant packets are refused on the code vector in
// the header with a feedback frame (Section III-C-2's binary feedback).
// The same topology backs the ltnc-serve / ltnc-fetch commands.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"ltnc/swarm"
)

const (
	objectSize = 128 * 1024
	codeLen    = 256
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func newSession(relay bool, seed int64) (*swarm.Session, context.CancelFunc, error) {
	s, err := swarm.New(swarm.Config{
		Listen: "127.0.0.1:0",
		Tick:   500 * time.Microsecond,
		Relay:  relay,
		Seed:   seed,
	})
	if err != nil {
		return nil, nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	go s.Run(ctx)
	stop := func() {
		cancel()
		s.Close()
	}
	return s, stop, nil
}

func run() error {
	source, stopSource, err := newSession(false, 1)
	if err != nil {
		return err
	}
	defer stopSource()
	relay, stopRelay, err := newSession(true, 2)
	if err != nil {
		return err
	}
	defer stopRelay()
	client, stopClient, err := newSession(false, 3)
	if err != nil {
		return err
	}
	defer stopClient()

	// Two objects share every socket: the 16-byte content ID in the v2
	// packet header keeps their sessions apart.
	rng := rand.New(rand.NewSource(7))
	contents := make([][]byte, 2)
	ids := make([]swarm.ObjectID, len(contents))
	for i := range contents {
		contents[i] = make([]byte, objectSize)
		rng.Read(contents[i])
		id, err := source.Serve(contents[i], codeLen)
		if err != nil {
			return err
		}
		ids[i] = id
		fmt.Printf("source %s serves object %d: %s (%d KiB, k=%d)\n",
			source.LocalAddr(), i, id, objectSize/1024, codeLen)
	}
	source.AddPeer(relay.LocalAddr())
	fmt.Printf("relay  %s recodes toward subscribers\n", relay.LocalAddr())

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i, want := range contents {
		got, report, err := client.Fetch(ctx, ids[i], relay.LocalAddr())
		if err != nil {
			return fmt.Errorf("fetch object %d: %w", i, err)
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("object %d corrupt after transfer", i)
		}
		fmt.Printf("client fetched object %d via relay in %v: %d packets for k=%d (overhead %.3f), %d header aborts\n",
			i, report.Elapsed.Round(time.Millisecond),
			report.Stats.Received, report.Stats.K, report.Overhead(), report.Stats.Aborted)
	}
	for _, o := range relay.Stats() {
		fmt.Printf("relay object %s: received %d, recoded %d\n", o.ID, o.Received, o.Sent)
	}
	return nil
}
