//go:build linux && arm64 && !ltnc_portable

package transport

// Syscall numbers for the mmsg batch calls (asm-generic table).
const (
	sysRecvmmsg = 243
	sysSendmmsg = 269
)
