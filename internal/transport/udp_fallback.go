//go:build !(linux && (amd64 || arm64)) || ltnc_portable

package transport

// udp_fallback.go keeps UDPTransport portable: platforms without the
// recvmmsg/sendmmsg fast path (darwin, windows, 32-bit linux, ...) read
// one datagram a batch with ReadFromUDP, into the same reader, ring and
// consumer as the fast path (udp.go), and SendBatch sends frame by frame.
// The ltnc_portable build tag selects it on linux/amd64 and linux/arm64
// too, so the race detector and the tests run it on the hosts CI has.

import "net"

const batchSupported = false

type batchState struct{}

// initSocket arms the ReadFromUDP reader.
func (t *UDPTransport) initSocket() (func([]Frame) ([]Frame, error), error) {
	r := &udpReader{conn: t.conn, stats: &t.stats}
	return r.read, nil
}

func (t *UDPTransport) offloads() (gso, gro bool) { return false, false }

func (t *UDPTransport) sendBatch(to Addr, frames [][]byte) (int, error) {
	for i, f := range frames {
		if err := t.Send(to, f); err != nil {
			return i, err
		}
	}
	return len(frames), nil
}

// udpReader reads one datagram a call into its MaxFrame buffer and keeps
// the fast path's lone-datagram rule: a datagram of at most smallFrame
// bytes is copied out to a buffer of its own size class, since it may
// wait in an ingest queue, and a larger one takes the buffer with it.
type udpReader struct {
	conn  *net.UDPConn
	stats *udpCounters
	buf   *[]byte // nil once a large frame has taken it
}

func (r *udpReader) read(out []Frame) ([]Frame, error) {
	if r.buf == nil {
		r.buf = GetBuf()
	}
	r.stats.recvSyscalls.Add(1)
	n, from, err := r.conn.ReadFromUDP(*r.buf)
	if err != nil {
		return out, err
	}
	r.stats.recvMessages.Add(1)
	r.stats.recvFrames.Add(1)
	addr, data := Addr(from.String()), (*r.buf)[:n]
	if n <= smallFrame {
		return append(out, copyFrame(addr, data)), nil
	}
	bufp := r.buf
	r.buf = nil
	return append(out, Frame{From: addr, Data: data, release: func() { PutBuf(bufp) }}), nil
}
