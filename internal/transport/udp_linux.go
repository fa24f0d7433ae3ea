//go:build linux && (amd64 || arm64) && !ltnc_portable

package transport

// udp_linux.go is the batched UDP fast path: recvmmsg readers (one per
// SO_REUSEPORT shard) feeding lock-free SPSC rings, sendmmsg on the way
// out, and UDP GSO/GRO segmentation offload where the kernel accepts it
// (probed at socket setup, silent fallback otherwise). Everything here
// is reachable only through the portable surface in udp.go; semantics —
// blocking, ErrClosed, context cancellation, pooled buffers — are
// identical to the per-frame path.
//
// The syscalls are issued raw (recvmmsg/sendmmsg are not wrapped by the
// frozen syscall package and golang.org/x/net is deliberately not a
// dependency) through net.UDPConn.SyscallConn: the rawconn Read/Write
// callbacks integrate with the runtime netpoller, so a reader parked on
// an empty socket costs nothing and honors Close exactly like
// ReadFromUDP would.

import (
	"context"
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
	solUDP      = 17  // IPPROTO_UDP: level for the UDP_* socket options
	udpSegment  = 103 // UDP_SEGMENT: GSO segment size (sockopt + cmsg)
	udpGRO      = 104 // UDP_GRO: receive coalescing (sockopt + cmsg)
	soReusePort = 15  // SO_REUSEPORT (absent from the frozen syscall pkg)

	// gsoMaxSegs is the kernel's UDP_MAX_SEGMENTS; gsoMaxBytes keeps a
	// GSO super-payload inside one UDP datagram (65507 max payload).
	gsoMaxSegs  = 64
	gsoMaxBytes = 65000

	// groSlots caps the recvmmsg vector of a shard whose socket took
	// UDP_GRO. Each slot is armed with a MaxFrame buffer, and GRO hands a
	// GSO burst back as one super-datagram of up to 64 segments: with 32
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
	enabled bool
	gso     bool
	gro     bool
	slots   int // recvmmsg vector length: Batch, or min(Batch, groSlots) under GRO

	socks  []*net.UDPConn    // [0] aliases UDPTransport.conn (the send socket)
	rcs    []syscall.RawConn // raw conns, parallel to socks
	rings  []*spscRing       // per-reader frame rings, parallel to socks
	space  []chan struct{}   // per-ring producer wakeup (cap 1)
	notify chan struct{}     // consumer wakeup (cap 1, shared by all rings)
	cursor int               // consumer's ring round-robin position
	wg     sync.WaitGroup

	raws   sync.Map // Addr -> *rawAddr: sockaddr bytes for the mmsg paths
	sendMu sync.Mutex
	snd    *mmsgSender
}

// rawAddr is a destination in kernel sockaddr form, cached per peer.
type rawAddr struct {
	name [syscall.SizeofSockaddrInet6]byte
	ln   uint32
}

func reusePortControl(cfg UDPConfig) func(network, address string, c syscall.RawConn) error {
	if cfg.DisableBatch || cfg.Readers <= 1 {
		return nil
	}
	return setReusePort
}

func setReusePort(network, address string, c syscall.RawConn) error {
	var serr error
	if err := c.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, soReusePort, 1)
	}); err != nil {
		return err
	}
	return serr
}

// initBatch probes the kernel and starts the reader shards. Any failure
// to set up extra shards or offloads degrades silently toward the
// portable semantics rather than failing the listen.
func (t *UDPTransport) initBatch() error {
	if t.cfg.DisableBatch {
		return nil
	}
	b := &t.batch
	b.socks = []*net.UDPConn{t.conn}
	if t.cfg.Readers > 1 {
		// Extra SO_REUSEPORT shards on the same port: the kernel hashes
		// each peer's flow onto one shard, so per-peer ordering is
		// preserved while independent peers spread across cores.
		local := t.conn.LocalAddr().String()
		lc := net.ListenConfig{Control: setReusePort}
		for i := 1; i < t.cfg.Readers; i++ {
			pc, err := lc.ListenPacket(context.Background(), "udp", local)
			if err != nil {
				// SO_REUSEPORT refused (exotic kernel/namespace): run
				// single-sharded rather than fail.
				for _, c := range b.socks[1:] {
					c.Close()
				}
				b.socks = b.socks[:1]
				break
			}
			b.socks = append(b.socks, pc.(*net.UDPConn))
		}
	}
	for _, c := range b.socks {
		rc, err := c.SyscallConn()
		if err != nil {
			for _, ex := range b.socks[1:] {
				ex.Close()
			}
			return err
		}
		b.rcs = append(b.rcs, rc)
	}
	b.gso = !t.cfg.DisableGSO && probeGSO(b.rcs[0])
	if !t.cfg.DisableGRO {
		b.gro = true
		for _, rc := range b.rcs {
			if !enableGRO(rc) {
				b.gro = false
				break
			}
		}
	}
	b.slots = t.cfg.Batch
	if b.gro {
		b.slots = min(b.slots, groSlots)
	}
	b.notify = make(chan struct{}, 1)
	for range b.socks {
		b.rings = append(b.rings, newSPSCRing(t.cfg.RingSize))
		b.space = append(b.space, make(chan struct{}, 1))
	}
	b.snd = newMmsgSender(t.cfg.Batch)
	b.enabled = true
	for i := range b.socks {
		b.wg.Add(1)
		go t.readLoop(i)
	}
	return nil
}

func (t *UDPTransport) batchEnabled() bool { return t.batch.enabled }

func (t *UDPTransport) batchInfo() (enabled, gso, gro bool, readers int) {
	b := &t.batch
	readers = 1
	if b.enabled {
		readers = len(b.socks)
	}
	return b.enabled, b.gso, b.gro, readers
}

func (t *UDPTransport) closeBatch() {
	b := &t.batch
	if !b.enabled {
		return
	}
	for _, c := range b.socks[1:] {
		c.Close()
	}
	b.wg.Wait()
	// Readers are gone; any frames still ringed are drained by the
	// consumer's final sweep in recvBatchRings (or reclaimed by GC).
}

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
// Receive side: per-shard readers, recvmmsg, GRO splitting.

// readLoop drains one shard socket with recvmmsg and pushes the frames
// into the shard's ring. A full ring parks the reader (after waking the
// consumer) so back-pressure lands in the kernel socket buffer instead
// of dropping in user space.
func (t *UDPTransport) readLoop(i int) {
	b := &t.batch
	defer b.wg.Done()
	rc, ring, space := b.rcs[i], b.rings[i], b.space[i]
	rs := newMmsgReceiver(b.slots, b.gro)
	names := newAddrCache()
	scratch := make([]Frame, 0, t.cfg.Batch*2)
	for {
		n, err := rs.recv(rc)
		if err != nil {
			return // socket closed (or unrecoverable): shard retires
		}
		t.stats.recvSyscalls.Add(1)
		t.stats.recvMessages.Add(int64(n))
		scratch = scratch[:0]
		groSplits := 0
		for j := 0; j < n; j++ {
			before := len(scratch)
			scratch = rs.frames(j, names, scratch)
			if len(scratch)-before > 1 {
				groSplits += len(scratch) - before
			}
		}
		t.stats.recvFrames.Add(int64(len(scratch)))
		t.stats.groFrames.Add(int64(groSplits))
		for k, f := range scratch {
			scratch[k] = Frame{}
			for !ring.push(f) {
				select {
				case b.notify <- struct{}{}:
				default:
				}
				select {
				case <-space:
				case <-t.done:
					f.Release()
					for _, rest := range scratch[k+1:] {
						rest.Release()
					}
					return
				}
			}
		}
		select {
		case b.notify <- struct{}{}:
		default:
		}
	}
}

// recvBatchRings is the consumer half: sweep the shard rings round-robin
// into out, parking on the shared notify channel when everything is
// empty. One wakeup surfaces whole recvmmsg batches.
func (t *UDPTransport) recvBatchRings(ctx context.Context, out []Frame) (int, error) {
	b := &t.batch
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	for {
		n := 0
		for s := 0; s < len(b.rings) && n < len(out); s++ {
			i := (b.cursor + s) % len(b.rings)
			popped := false
			for n < len(out) {
				f, ok := b.rings[i].pop()
				if !ok {
					break
				}
				out[n] = f
				n++
				popped = true
			}
			if popped {
				select {
				case b.space[i] <- struct{}{}:
				default:
				}
			}
		}
		b.cursor++
		if n > 0 {
			return n, nil
		}
		if t.closed.Load() {
			return 0, ErrClosed
		}
		select {
		case <-b.notify:
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-t.done:
			// Final sweep below the readers (now retired) — deliver what
			// already arrived, then report closure.
			for _, r := range b.rings {
				r.drain()
			}
			return 0, ErrClosed
		}
	}
}

// mmsgReceiver owns the recvmmsg message vector: headers, iovecs, name
// and control buffers, and the pooled data buffer each slot currently
// points at. Slots hand their buffer to frames() and are re-armed with a
// fresh pooled buffer before the next syscall.
type mmsgReceiver struct {
	n     int
	gro   bool
	hs    []mmsghdr
	iovs  []syscall.Iovec
	names [][syscall.SizeofSockaddrInet6]byte
	ctrls [][]byte
	bufs  []*[]byte
}

func newMmsgReceiver(n int, gro bool) *mmsgReceiver {
	r := &mmsgReceiver{
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

// recv re-arms consumed slots and performs one recvmmsg, blocking via
// the netpoller until at least one datagram is queued. It returns the
// number of messages filled.
func (r *mmsgReceiver) recv(rc syscall.RawConn) (int, error) {
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
	err := rc.Read(func(fd uintptr) bool {
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
func (r *mmsgReceiver) frames(j int, names *addrCache, out []Frame) []Frame {
	bufp := r.bufs[j]
	ln := int(r.hs[j].ln)
	from := names.lookup(&r.names[j], r.hs[j].hdr.Namelen)
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
// by a single reader goroutine — no locking. Bounded: a flood of
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

// sendBatchMmsg transmits frames to one destination in syscall-sized
// groups: a uniform run of ≥2 equal-size frames (short tail allowed)
// rides one GSO sendmsg; anything else goes through sendmmsg. Partial
// kernel acceptance loops until done, so callers see all-or-error.
func (t *UDPTransport) sendBatchMmsg(to Addr, frames [][]byte) (int, error) {
	ra, err := t.resolveRaw(to)
	if err != nil {
		return 0, err
	}
	b := &t.batch
	b.sendMu.Lock()
	defer b.sendMu.Unlock()
	sent := 0
	for sent < len(frames) {
		n, err := b.snd.sendSome(b.rcs[0], ra, frames[sent:], b, &t.stats)
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

// sendMmsg transmits up to maxBatch frames as one sendmmsg vector.
func (s *mmsgSender) sendMmsg(rc syscall.RawConn, ra *rawAddr, frames [][]byte, stats *udpCounters) (int, error) {
	n := len(frames)
	if n > s.maxBatch {
		n = s.maxBatch
	}
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
