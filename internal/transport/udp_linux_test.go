//go:build linux && (amd64 || arm64) && !ltnc_portable

package transport

import (
	"errors"
	"testing"
)

// Tests that reach into the batched fast path's sockets, which the
// portable fallback does not have.

func TestUDPSendBatchIntoClosedSocketReturnsErrClosed(t *testing.T) {
	a, b := listenPair(t, UDPConfig{})
	for _, c := range a.batch.socks {
		c.Close()
	}
	_, err := a.SendBatch(b.LocalAddr(), [][]byte{[]byte("x"), []byte("y")})
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("batch send into closed socket = %v, want ErrClosed", err)
	}
}
