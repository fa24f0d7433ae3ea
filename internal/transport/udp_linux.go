//go:build linux && (amd64 || arm64) && !ltnc_portable

package transport

// udp_linux.go is the batched UDP fast path: the socket's reader reads
// with recvmmsg, sends go out through sendmmsg, and UDP GSO/GRO
// segmentation offload is used where the kernel accepts it (probed at
// socket setup, silent fallback otherwise). The reader, its ring and the
// consumer live in udp.go; semantics — blocking, ErrClosed, context
// cancellation, pooled buffers — are those of the portable fallback.
//
// The syscalls are issued raw (recvmmsg/sendmmsg are not wrapped by the
// frozen syscall package and golang.org/x/net is deliberately not a
// dependency) through net.UDPConn.SyscallConn: the rawconn Read/Write
// callbacks integrate with the runtime netpoller, so a reader parked on
// an empty socket costs nothing and honors Close exactly like
// ReadFromUDP would.

import (
	"errors"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"syscall"
	"unsafe"
)

const batchSupported = true

const (
	solUDP     = 17  // IPPROTO_UDP: level for the UDP_* socket options
	udpSegment = 103 // UDP_SEGMENT: GSO segment size (sockopt + cmsg)
	udpGRO     = 104 // UDP_GRO: receive coalescing (sockopt + cmsg)

	// gsoMaxSegs is the kernel's UDP_MAX_SEGMENTS; gsoMaxBytes keeps a
	// GSO super-payload inside one UDP datagram (65507 max payload).
	gsoMaxSegs  = 64
	gsoMaxBytes = 65000

	// groSlots caps the recvmmsg vector of a socket that took UDP_GRO.
	// Each slot is armed with a MaxFrame buffer, and GRO hands a GSO
	// burst back as one super-datagram of up to 64 segments: with 32
	// slots armed, a loopback relay fetch's calls filled 2.2 on average
	// and more than 8 in 23 of 21,378 (DESIGN.md §15). Eight slots still
	// take up to 512 segments a call, and arm 512 KiB a socket, not 2 MiB.
	groSlots = 8
)

// mmsghdr mirrors struct mmsghdr on 64-bit Linux: a msghdr plus the
// per-message byte count recvmmsg/sendmmsg fill in.
type mmsghdr struct {
	hdr syscall.Msghdr
	ln  uint32
	_   [4]byte
}

type batchState struct {
	gso   bool
	gro   bool
	slots int // recvmmsg vector length: Batch, or min(Batch, groSlots) under GRO
	rc    syscall.RawConn

	raws   sync.Map // Addr -> *rawAddr: sockaddr bytes for the mmsg paths
	sendMu sync.Mutex
	snd    *mmsgSender
}

// rawAddr is a destination in kernel sockaddr form, cached per peer.
type rawAddr struct {
	name [syscall.SizeofSockaddrInet6]byte
	ln   uint32
}

// initSocket probes the kernel's offloads and arms the recvmmsg reader.
// A refused offload degrades silently rather than failing the listen.
func (t *UDPTransport) initSocket() (func([]Frame) ([]Frame, error), error) {
	b := &t.batch
	rc, err := t.conn.SyscallConn()
	if err != nil {
		return nil, err
	}
	b.rc = rc
	b.gso = !t.cfg.DisableGSO && probeGSO(rc)
	b.gro = !t.cfg.DisableGRO && enableGRO(rc)
	b.slots = t.cfg.Batch
	if b.gro {
		b.slots = min(b.slots, groSlots)
	}
	b.snd = newMmsgSender(t.cfg.Batch)
	return newMmsgReceiver(rc, b.slots, b.gro, &t.stats).read, nil
}

func (t *UDPTransport) offloads() (gso, gro bool) { return t.batch.gso, t.batch.gro }

func probeGSO(rc syscall.RawConn) bool {
	ok := false
	rc.Control(func(fd uintptr) {
		// Setting segment size 0 is a no-op that still validates kernel
		// support for the option.
		ok = syscall.SetsockoptInt(int(fd), solUDP, udpSegment, 0) == nil
	})
	return ok
}

func enableGRO(rc syscall.RawConn) bool {
	ok := false
	rc.Control(func(fd uintptr) {
		ok = syscall.SetsockoptInt(int(fd), solUDP, udpGRO, 1) == nil
	})
	return ok
}

// ---------------------------------------------------------------------
// Receive side: recvmmsg and GRO splitting.

// mmsgReceiver owns the recvmmsg message vector: headers, iovecs, name
// and control buffers, and the pooled data buffer each slot currently
// points at. Slots hand their buffer to frames() and are re-armed with a
// fresh pooled buffer before the next syscall.
type mmsgReceiver struct {
	rc    syscall.RawConn
	stats *udpCounters
	addrs *addrCache
	n     int
	gro   bool
	hs    []mmsghdr
	iovs  []syscall.Iovec
	names [][syscall.SizeofSockaddrInet6]byte
	ctrls [][]byte
	bufs  []*[]byte
}

func newMmsgReceiver(rc syscall.RawConn, n int, gro bool, stats *udpCounters) *mmsgReceiver {
	r := &mmsgReceiver{
		rc:    rc,
		stats: stats,
		addrs: newAddrCache(),
		n:     n,
		gro:   gro,
		hs:    make([]mmsghdr, n),
		iovs:  make([]syscall.Iovec, n),
		names: make([][syscall.SizeofSockaddrInet6]byte, n),
		bufs:  make([]*[]byte, n),
	}
	if gro {
		r.ctrls = make([][]byte, n)
		for i := range r.ctrls {
			r.ctrls[i] = make([]byte, 64)
		}
	}
	return r
}

// read performs one recvmmsg and appends the frames it filled to out,
// GRO super-datagrams split: the socket reader's batch.
func (r *mmsgReceiver) read(out []Frame) ([]Frame, error) {
	n, err := r.recv()
	if err != nil {
		return out, err
	}
	r.stats.recvSyscalls.Add(1)
	r.stats.recvMessages.Add(int64(n))
	first, groSplits := len(out), 0
	for j := 0; j < n; j++ {
		before := len(out)
		out = r.frames(j, out)
		if len(out)-before > 1 {
			groSplits += len(out) - before
		}
	}
	r.stats.recvFrames.Add(int64(len(out) - first))
	r.stats.groFrames.Add(int64(groSplits))
	return out, nil
}

// recv re-arms consumed slots and performs one recvmmsg, blocking via
// the netpoller until at least one datagram is queued. It returns the
// number of messages filled.
func (r *mmsgReceiver) recv() (int, error) {
	for i := 0; i < r.n; i++ {
		if r.bufs[i] == nil {
			r.bufs[i] = GetBuf()
		}
		buf := *r.bufs[i]
		r.iovs[i].Base = &buf[0]
		r.iovs[i].SetLen(len(buf))
		h := &r.hs[i].hdr
		h.Name = &r.names[i][0]
		h.Namelen = uint32(len(r.names[i]))
		h.Iov = &r.iovs[i]
		h.Iovlen = 1
		if r.gro {
			h.Control = &r.ctrls[i][0]
			h.SetControllen(len(r.ctrls[i]))
		} else {
			h.Control = nil
			h.SetControllen(0)
		}
		h.Flags = 0
		r.hs[i].ln = 0
	}
	var n int
	var sysErr syscall.Errno
	err := r.rc.Read(func(fd uintptr) bool {
		// The fd is non-blocking: an empty queue returns EAGAIN and the
		// runtime parks us on the netpoller until readable.
		rn, _, e := syscall.Syscall6(sysRecvmmsg, fd,
			uintptr(unsafe.Pointer(&r.hs[0])), uintptr(r.n), 0, 0, 0)
		if e == syscall.EAGAIN {
			return false
		}
		sysErr = e
		n = int(rn)
		return true
	})
	if err != nil {
		return 0, err
	}
	if sysErr != 0 {
		if sysErr == syscall.EINTR {
			return 0, nil
		}
		return 0, sysErr
	}
	return n, nil
}

// frames converts message slot j into one or more Frames, appending to
// out. A GRO super-datagram (UDP_GRO cmsg present, segment size < total
// length) splits into per-segment frames that share the slot's pooled
// buffer under a refcount.
func (r *mmsgReceiver) frames(j int, out []Frame) []Frame {
	bufp := r.bufs[j]
	ln := int(r.hs[j].ln)
	from := r.addrs.lookup(&r.names[j], r.hs[j].hdr.Namelen)
	data := (*bufp)[:ln]
	seg := 0
	if r.gro {
		seg = parseGROSegment(r.ctrls[j], int(r.hs[j].hdr.Controllen))
	}
	if (seg <= 0 || seg >= ln) && ln <= smallFrame {
		// A lone small datagram moves to a buffer of its own size class
		// and the slot keeps its MaxFrame buffer armed: the frame may wait
		// in an ingest queue, and there it should hold 2 KiB, not 64.
		return append(out, copyFrame(from, data))
	}
	r.bufs[j] = nil
	if seg <= 0 || seg >= ln {
		return append(out, Frame{From: from, Data: data, release: func() { PutBuf(bufp) }})
	}
	sb := &sharedBuf{bufp: bufp}
	for off := 0; off < ln; off += seg {
		end := off + seg
		if end > ln {
			end = ln
		}
		sb.refs.Add(1)
		out = append(out, Frame{From: from, Data: data[off:end], release: sb.release})
	}
	return out
}

// parseGROSegment walks the control buffer for the UDP_GRO cmsg and
// returns the kernel-reported segment size, 0 if absent.
func parseGROSegment(ctrl []byte, n int) int {
	if n <= 0 || n > len(ctrl) {
		return 0
	}
	for off := 0; off+syscall.SizeofCmsghdr <= n; {
		h := (*syscall.Cmsghdr)(unsafe.Pointer(&ctrl[off]))
		l := int(h.Len)
		if l < syscall.SizeofCmsghdr || off+l > n {
			return 0
		}
		if h.Level == solUDP && h.Type == udpGRO && l >= syscall.SizeofCmsghdr+4 {
			return int(int32(*(*uint32)(unsafe.Pointer(&ctrl[off+syscall.SizeofCmsghdr]))))
		}
		off += (l + 7) &^ 7 // CMSG_ALIGN on 64-bit
	}
	return 0
}

// addrCache maps raw peer sockaddrs to their Addr strings so the receive
// hot path formats each distinct peer once, not once per datagram. Owned
// by the socket's reader goroutine — no locking. Bounded: a flood of
// spoofed sources resets the map rather than growing it without limit.
type addrCache struct {
	m map[rawKey]Addr
}

type rawKey struct {
	port uint16
	v6   bool
	ip   [16]byte
}

func newAddrCache() *addrCache { return &addrCache{m: make(map[rawKey]Addr)} }

func (c *addrCache) lookup(name *[syscall.SizeofSockaddrInet6]byte, ln uint32) Addr {
	var key rawKey
	fam := *(*uint16)(unsafe.Pointer(&name[0]))
	switch {
	case fam == syscall.AF_INET && ln >= syscall.SizeofSockaddrInet4:
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(name))
		key.port = uint16(sa.Port>>8) | uint16(sa.Port&0xff)<<8
		copy(key.ip[:4], sa.Addr[:])
	case fam == syscall.AF_INET6 && ln >= syscall.SizeofSockaddrInet6:
		sa := (*syscall.RawSockaddrInet6)(unsafe.Pointer(name))
		key.port = uint16(sa.Port>>8) | uint16(sa.Port&0xff)<<8
		key.v6 = true
		copy(key.ip[:], sa.Addr[:])
	default:
		return ""
	}
	if a, ok := c.m[key]; ok {
		return a
	}
	var ap netip.AddrPort
	if key.v6 {
		ap = netip.AddrPortFrom(netip.AddrFrom16(key.ip), key.port)
	} else {
		var v4 [4]byte
		copy(v4[:], key.ip[:4])
		ap = netip.AddrPortFrom(netip.AddrFrom4(v4), key.port)
	}
	a := Addr(ap.String())
	if len(c.m) >= 4096 {
		c.m = make(map[rawKey]Addr)
	}
	c.m[key] = a
	return a
}

// sharedBuf refcounts one pooled buffer across the frames of a GRO
// split; the last Release returns it to the pool.
type sharedBuf struct {
	bufp *[]byte
	refs atomic.Int32
}

func (s *sharedBuf) release() {
	if s.refs.Add(-1) == 0 {
		PutBuf(s.bufp)
	}
}

// ---------------------------------------------------------------------
// Send side: sendmmsg and GSO super-sends.

// mmsgSender owns the sendmmsg/sendmsg message vector. Guarded by
// batchState.sendMu — concurrent SendBatch calls serialize on it, which
// also matches the kernel's own per-socket send path.
type mmsgSender struct {
	maxBatch int
	hs       []mmsghdr
	iovs     []syscall.Iovec
	ctrl     [24]byte // CMSG_SPACE(2): one UDP_SEGMENT cmsg
}

func newMmsgSender(maxBatch int) *mmsgSender {
	return &mmsgSender{
		maxBatch: maxBatch,
		hs:       make([]mmsghdr, maxBatch),
		iovs:     make([]syscall.Iovec, maxBatch),
	}
}

// resolveRaw caches the kernel sockaddr form of a destination.
func (t *UDPTransport) resolveRaw(to Addr) (*rawAddr, error) {
	b := &t.batch
	if cached, ok := b.raws.Load(to); ok {
		return cached.(*rawAddr), nil
	}
	ua, err := t.resolve(to)
	if err != nil {
		return nil, err
	}
	ra := &rawAddr{}
	if ip4 := ua.IP.To4(); ip4 != nil {
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(&ra.name[0]))
		sa.Family = syscall.AF_INET
		sa.Port = uint16(ua.Port>>8) | uint16(ua.Port&0xff)<<8
		copy(sa.Addr[:], ip4)
		ra.ln = syscall.SizeofSockaddrInet4
	} else {
		sa := (*syscall.RawSockaddrInet6)(unsafe.Pointer(&ra.name[0]))
		sa.Family = syscall.AF_INET6
		sa.Port = uint16(ua.Port>>8) | uint16(ua.Port&0xff)<<8
		copy(sa.Addr[:], ua.IP.To16())
		ra.ln = syscall.SizeofSockaddrInet6
	}
	b.raws.Store(to, ra)
	return ra, nil
}

// sendBatch transmits frames to one destination in syscall-sized
// groups: a uniform run of ≥2 equal-size frames (short tail allowed)
// rides one GSO sendmsg; anything else goes through sendmmsg. Partial
// kernel acceptance loops until done, so callers see all-or-error.
func (t *UDPTransport) sendBatch(to Addr, frames [][]byte) (int, error) {
	ra, err := t.resolveRaw(to)
	if err != nil {
		return 0, err
	}
	b := &t.batch
	b.sendMu.Lock()
	defer b.sendMu.Unlock()
	sent := 0
	for sent < len(frames) {
		n, err := b.snd.sendSome(b.rc, ra, frames[sent:], b, &t.stats)
		sent += n
		if err != nil {
			if t.closed.Load() || errors.Is(err, net.ErrClosed) {
				return sent, ErrClosed
			}
			return sent, err
		}
	}
	return sent, nil
}

// gsoRun reports the longest prefix of frames sendable as one GSO
// super-payload: ≥2 frames of identical size (a final shorter frame may
// tag along), capped by the kernel's segment-count and datagram limits.
func gsoRun(frames [][]byte) (count, segSize int) {
	segSize = len(frames[0])
	if segSize == 0 {
		return 0, 0
	}
	total := 0
	for _, f := range frames {
		if count == gsoMaxSegs || total+len(f) > gsoMaxBytes {
			break
		}
		if len(f) != segSize {
			if len(f) < segSize {
				// One short tail segment is legal and terminal.
				count++
			}
			break
		}
		total += len(f)
		count++
	}
	if count < 2 {
		return 0, 0
	}
	return count, segSize
}

// sendSome transmits one syscall's worth of frames and returns how many
// it covered. A GSO rejection (kernel probe lied for this socket/route)
// permanently falls back to sendmmsg.
func (s *mmsgSender) sendSome(rc syscall.RawConn, ra *rawAddr, frames [][]byte, b *batchState, stats *udpCounters) (int, error) {
	// One syscall carries at most maxBatch frames, the vectors' length,
	// as a GSO super-send or a sendmmsg.
	frames = frames[:min(len(frames), s.maxBatch)]
	if b.gso {
		if count, segSize := gsoRun(frames); count > 0 {
			n, err := s.sendGSO(rc, ra, frames[:count], segSize, stats)
			if err == nil || !errors.Is(err, errGSORefused) {
				return n, err
			}
			b.gso = false // sticky: retry below without GSO
		}
	}
	return s.sendMmsg(rc, ra, frames, stats)
}

var errGSORefused = errors.New("transport: kernel refused UDP_SEGMENT")

// sendGSO concatenates the group into one sendmsg whose UDP_SEGMENT
// cmsg tells the kernel where to cut it back into datagrams: one
// syscall, count wire frames.
func (s *mmsgSender) sendGSO(rc syscall.RawConn, ra *rawAddr, group [][]byte, segSize int, stats *udpCounters) (int, error) {
	for i, f := range group {
		s.iovs[i].Base = &f[0]
		s.iovs[i].SetLen(len(f))
	}
	h := &s.hs[0].hdr
	h.Name = &ra.name[0]
	h.Namelen = ra.ln
	h.Iov = &s.iovs[0]
	h.Iovlen = uint64(len(group))
	cm := (*syscall.Cmsghdr)(unsafe.Pointer(&s.ctrl[0]))
	cm.Len = uint64(syscall.SizeofCmsghdr + 2) // CMSG_LEN(sizeof(uint16))
	cm.Level = solUDP
	cm.Type = udpSegment
	*(*uint16)(unsafe.Pointer(&s.ctrl[syscall.SizeofCmsghdr])) = uint16(segSize)
	h.Control = &s.ctrl[0]
	h.SetControllen(len(s.ctrl))
	h.Flags = 0

	var sysErr syscall.Errno
	err := rc.Write(func(fd uintptr) bool {
		_, _, e := syscall.Syscall(syscall.SYS_SENDMSG, fd, uintptr(unsafe.Pointer(h)), 0)
		if e == syscall.EAGAIN {
			return false
		}
		sysErr = e
		return true
	})
	if err != nil {
		return 0, err
	}
	switch sysErr {
	case 0:
		stats.sendSyscalls.Add(1)
		stats.gsoBatches.Add(1)
		stats.sentFrames.Add(int64(len(group)))
		return len(group), nil
	case syscall.EINVAL, syscall.EIO, syscall.EMSGSIZE, syscall.ENOTSUP:
		return 0, errGSORefused
	default:
		return 0, sysErr
	}
}

// sendMmsg transmits frames, at most maxBatch, as one sendmmsg vector.
func (s *mmsgSender) sendMmsg(rc syscall.RawConn, ra *rawAddr, frames [][]byte, stats *udpCounters) (int, error) {
	n := len(frames)
	for i := 0; i < n; i++ {
		f := frames[i]
		if len(f) > 0 {
			s.iovs[i].Base = &f[0]
		} else {
			s.iovs[i].Base = &zeroByte
		}
		s.iovs[i].SetLen(len(f))
		h := &s.hs[i].hdr
		h.Name = &ra.name[0]
		h.Namelen = ra.ln
		h.Iov = &s.iovs[i]
		h.Iovlen = 1
		h.Control = nil
		h.SetControllen(0)
		h.Flags = 0
		s.hs[i].ln = 0
	}
	var accepted int
	var sysErr syscall.Errno
	err := rc.Write(func(fd uintptr) bool {
		rn, _, e := syscall.Syscall6(sysSendmmsg, fd,
			uintptr(unsafe.Pointer(&s.hs[0])), uintptr(n), 0, 0, 0)
		if e == syscall.EAGAIN {
			return false
		}
		sysErr = e
		accepted = int(rn)
		return true
	})
	if err != nil {
		return 0, err
	}
	if sysErr != 0 {
		if sysErr == syscall.EINTR {
			return 0, nil
		}
		return 0, sysErr
	}
	stats.sendSyscalls.Add(1)
	stats.sentFrames.Add(int64(accepted))
	return accepted, nil
}

var zeroByte byte
