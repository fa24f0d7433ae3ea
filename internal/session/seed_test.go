package session

import (
	"flag"
	"testing"
	"time"
)

// seedFlag replays a test seeded from the clock exactly:
//
//	go test ./internal/session -run '^TestObjectStateMatrix$' -seed=12345
//
// Each such test logs that line, with the seed it ran under, when it fails.
var seedFlag = flag.Int64("seed", 0, "seed of the clock-seeded tests (0 = the clock); failures print a replay line")

// testSeed returns t's seed, -seed's if it was given and the clock's
// otherwise, and has a failure of t log the command that replays it.
func testSeed(t *testing.T) int64 {
	t.Helper()
	seed := *seedFlag
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("reproduce with: go test ./internal/session -run '^%s$' -seed=%d", t.Name(), seed)
		}
	})
	return seed
}
