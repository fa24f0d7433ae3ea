// Broadcast: a CDN-style push of a large file using the extension
// features together — coding generations (smaller headers and decode
// state) and an integrity manifest (end-to-end verification), both
// layered on LTNC recoding.
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"

	"ltnc/internal/generation"
	"ltnc/internal/integrity"
	"ltnc/internal/lt"
)

const (
	fileSize   = 256 * 1024
	gens       = 8  // coding generations
	kPerGen    = 64 // natives per generation (k total = 512)
	totalK     = gens * kPerGen
	relayCount = 3
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	file := make([]byte, fileSize)
	rand.New(rand.NewSource(7)).Read(file)

	natives, err := lt.Split(file, totalK)
	if err != nil {
		return err
	}
	manifest, err := integrity.NewManifest(natives)
	if err != nil {
		return err
	}
	fmt.Printf("broadcasting %d KiB: %d generations × %d natives of %d B, manifest %d B\n",
		fileSize/1024, gens, kPerGen, len(natives[0]), totalK*integrity.DigestSize)

	newCoder := func(seed int64) (*generation.Coder, error) {
		return generation.New(generation.Options{
			Generations:    gens,
			KPerGeneration: kPerGen,
			M:              len(natives[0]),
			Seed:           seed,
		})
	}
	src, err := newCoder(1)
	if err != nil {
		return err
	}
	if err := src.Seed(natives); err != nil {
		return err
	}
	relays := make([]*generation.Coder, relayCount)
	for i := range relays {
		if relays[i], err = newCoder(int64(10 + i)); err != nil {
			return err
		}
	}
	sink, err := newCoder(99)
	if err != nil {
		return err
	}

	// Chain: source feeds relay 0; each relay recodes to the next; the
	// last relay feeds the sink. All hops use header aborts.
	steps := 0
	for !sink.Complete() {
		if steps++; steps > 200*totalK {
			return fmt.Errorf("no convergence: %d/%d decoded", sink.DecodedCount(), totalK)
		}
		if z, ok := src.Recode(nil); ok && !relays[0].IsRedundantPacket(z) {
			if _, err := relays[0].Receive(z); err != nil {
				return err
			}
		}
		for i := 0; i < relayCount; i++ {
			z, ok := relays[i].Recode(nil)
			if !ok {
				continue
			}
			if i+1 < relayCount {
				if !relays[i+1].IsRedundantPacket(z) {
					if _, err := relays[i+1].Receive(z); err != nil {
						return err
					}
				}
			} else if !sink.IsRedundantPacket(z) {
				if _, err := sink.Receive(z); err != nil {
					return err
				}
			}
		}
		if steps%2000 == 0 {
			fmt.Printf("  step %6d: sink has %3d/%d natives\n", steps, sink.DecodedCount(), totalK)
		}
	}

	decoded, err := sink.Data()
	if err != nil {
		return err
	}
	if err := manifest.VerifyAll(decoded); err != nil {
		return fmt.Errorf("integrity check failed: %w", err)
	}
	got, err := lt.Join(decoded, fileSize)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, file) {
		return fmt.Errorf("reassembled file differs")
	}
	fmt.Printf("sink rebuilt the file through %d recoding hops; all %d digests verified ✓\n",
		relayCount+1, totalK)
	fmt.Printf("generation headers carry %d-bit vectors instead of %d bits (%.0f× smaller)\n",
		kPerGen, totalK, float64(totalK)/float64(kPerGen))
	return nil
}
