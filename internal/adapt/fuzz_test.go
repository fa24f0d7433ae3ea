package adapt

import (
	"encoding/binary"
	"testing"
	"time"
)

// FuzzLinkReceipts runs a Link through an arbitrary interleaving of sends,
// receipts (honest, wrapping or contradictory counters), departure counts
// (behind, at or past what was sent, wrapping) and clock steps (forward
// within and across ticks and horizons, and back, as a wall clock can
// step), and checks after every step that the rows in flight stay between
// none and the rows sent, that Settled never runs backwards, and that the
// horizon stays within [Tick/4, 2·Tick].
func FuzzLinkReceipts(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 40, 4, 1, 3, 4, 2, 4, 3, 1, 4, 2})
	f.Add([]byte{0, 64, 3, 9, 1, 2, 0, 0, 0, 16, 2, 0, 0, 0, 16, 4, 7, 6, 4})
	f.Add([]byte{5, 3, 200, 4, 0, 1, 2, 255, 255, 255, 250, 4, 6, 3, 90, 4})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var l Link
		now := at(1)
		granted := false
		u32 := func(i int) uint32 {
			var b [4]byte
			copy(b[:], ops[min(i, len(ops)):])
			return binary.BigEndian.Uint32(b[:])
		}
		for i := 0; i < len(ops); i++ {
			arg := 0
			if i+1 < len(ops) {
				arg = int(ops[i+1])
			}
			settled := l.Settled()
			switch ops[i] % 7 {
			case 0: // a send of up to 255 rows
				l.OnSend(arg, now)
				i++
			case 1: // an honest receipt, for all but arg of the rows sent
				recv := uint32(l.Sent()) - uint32(arg)
				l.OnReport(recv, recv)
				i++
			case 2: // arbitrary counters
				l.OnReport(u32(i+1), u32(i+5))
				i += 8
			case 3: // a departure count arg rows behind the newest row sent
				l.OnDeparted(uint32(l.Sent()) - uint32(arg))
				i++
			case 4: // a push round
				l.Grant(now, testTick, arg)
				granted = true
				i++
			case 5: // the clock forward, by up to 64 ticks
				now = now.Add(time.Duration(arg) * testTick / 4)
				i++
			case 6: // the clock back, by up to two ticks
				now = now.Add(-time.Duration(arg) * testTick / 128)
				i++
			}
			if l.InFlight() < 0 || uint64(l.InFlight()) > l.Sent() {
				t.Fatalf("op %d: %d rows in flight of %d sent", i, l.InFlight(), l.Sent())
			}
			if l.Settled() < settled {
				t.Fatalf("op %d: Settled ran back from %d to %d", i, settled, l.Settled())
			}
			if h := l.Horizon(); granted && (h < testTick/4 || h > 2*testTick) {
				t.Fatalf("op %d: horizon %v outside [%v, %v]", i, h, testTick/4, 2*testTick)
			}
		}
	})
}
