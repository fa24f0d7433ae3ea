//go:build linux && amd64 && !ltnc_portable

package transport

// Syscall numbers for the mmsg batch calls: the frozen syscall package
// predates sendmmsg (Linux 3.0), so the numbers are pinned here per
// architecture.
const (
	sysRecvmmsg = 299
	sysSendmmsg = 307
)
