package simnet

import (
	"encoding/binary"
	"encoding/hex"
	"time"

	"ltnc/internal/transport"
)

// TraceRec is the fate of one frame offered to the fabric. Seq is the
// frame's position in the send order of its directed link — together with
// (From, To) it identifies the frame.
type TraceRec struct {
	From, To transport.Addr
	Seq      uint64
	Size     int
	SentAt   time.Time
	At       time.Time // verdict time: delivery instant, or SentAt for send-time drops
	Verdict  Verdict
}

// record folds one frame's fate into the running trace digest: every
// field, timestamps included, in the order the fabric decided them — which
// one goroutine makes a function of the seed.
func (n *Net) record(r TraceRec) {
	var buf [8]byte
	wu := func(v uint64) {
		binary.BigEndian.PutUint64(buf[:], v)
		n.traceSum.Write(buf[:])
	}
	n.traceSum.Write([]byte(r.From))
	n.traceSum.Write([]byte{0})
	n.traceSum.Write([]byte(r.To))
	n.traceSum.Write([]byte{0, byte(r.Verdict)})
	wu(r.Seq)
	wu(uint64(r.Size))
	wu(uint64(r.SentAt.Sub(transport.VClockBase)))
	wu(uint64(r.At.Sub(transport.VClockBase)))
}

// TraceHash returns a hex SHA-256 over every frame fate decided so far
// (empty unless Config.Trace was set). Two runs of the same workload on
// the same seed produce the same hash; any divergence in a single frame's
// fate or timing changes it.
func (n *Net) TraceHash() string {
	if n.traceSum == nil {
		return ""
	}
	return hex.EncodeToString(n.traceSum.Sum(nil))
}
