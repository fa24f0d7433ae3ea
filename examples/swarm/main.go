// Swarm: the public dissemination API on the deterministic in-memory
// network — a source, two recoding relays and a client attached to one
// transport.Switch with 5% frame loss and jitter-induced reordering.
//
// The example shows the pieces a real deployment composes:
//
//   - transport.Switch / SwitchConfig as the lossy datagram fabric
//     (swap Attach for transport.ListenUDP and nothing else changes);
//   - swarm.Session serving an object from an io.Reader, relaying it
//     through intermediaries that recode from a partial view, and
//     fetching it back through its configured peers;
//   - swarm.Session.Subscribe streaming per-object decode progress while
//     the fetch runs.
//
// Everything is seeded, so the run is reproducible.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"ltnc/swarm"
	"ltnc/transport"
)

const (
	objectSize = 96 * 1024
	codeLen    = 192
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	sw, err := transport.NewSwitch(transport.SwitchConfig{
		LossRate: 0.05,
		Latency:  100 * time.Microsecond,
		Jitter:   500 * time.Microsecond,
		Seed:     42,
	})
	if err != nil {
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	newNode := func(name swarm.Addr, relay bool, seed int64, peers ...swarm.Addr) (*swarm.Session, error) {
		port, err := sw.Attach(name)
		if err != nil {
			return nil, err
		}
		s, err := swarm.New(swarm.Config{
			Transport: port,
			Peers:     peers,
			Relay:     relay,
			Tick:      500 * time.Microsecond,
			Seed:      seed,
		})
		if err != nil {
			return nil, err
		}
		go s.Run(ctx)
		return s, nil
	}

	// source → relay1 → relay2 ← client: the client only ever talks to
	// relay2, two recoding hops from the source.
	relay2, err := newNode("relay2", true, 2)
	if err != nil {
		return err
	}
	defer relay2.Close()
	relay1, err := newNode("relay1", true, 3, "relay2")
	if err != nil {
		return err
	}
	defer relay1.Close()
	source, err := newNode("source", false, 4, "relay1")
	if err != nil {
		return err
	}
	defer source.Close()
	client, err := newNode("client", false, 5, "relay2")
	if err != nil {
		return err
	}
	defer client.Close()

	content := make([]byte, objectSize)
	rand.New(rand.NewSource(9)).Read(content)
	id, err := source.ServeReader(bytes.NewReader(content), codeLen)
	if err != nil {
		return err
	}
	fmt.Printf("source serves %s (%d KiB, k=%d) toward relay1\n", id, objectSize/1024, codeLen)

	// Stream decode progress while the fetch runs. Snapshots are lossy
	// (each supersedes the last), so the loop ends on completion or when
	// the fetch itself returns — whichever the channel shows first.
	events, stop := client.Subscribe(id, 8)
	defer stop()
	fetchDone := make(chan struct{})
	progressDone := make(chan struct{})
	go func() {
		defer close(progressDone)
		for {
			select {
			case o := <-events:
				fmt.Printf("client progress: %d/%d natives (overhead so far %.3f)\n",
					o.Decoded, o.K, o.Overhead())
				if o.Complete {
					return
				}
			case <-fetchDone:
				return
			}
		}
	}()

	got, report, err := client.Fetch(ctx, id) // no source given: asks configured peers
	close(fetchDone)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, content) {
		return fmt.Errorf("content corrupt after two recoding hops")
	}
	<-progressDone
	fmt.Printf("client fetched %d bytes in %v: overhead %.3f, %d header aborts\n",
		report.Bytes, report.Elapsed.Round(time.Millisecond), report.Overhead(), report.Stats.Aborted)
	for _, name := range []struct {
		label string
		s     *swarm.Session
	}{{"relay1", relay1}, {"relay2", relay2}} {
		if o, ok := name.s.Object(id); ok {
			fmt.Printf("%s: received %d, recoded %d, decoded %d/%d\n",
				name.label, o.Received, o.Sent, o.Decoded, o.K)
		}
	}
	fmt.Printf("switch: %d frames lost, %d dropped at full queues\n", sw.Lost(), sw.Dropped())
	return nil
}
