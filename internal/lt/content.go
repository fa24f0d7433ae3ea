// Package lt implements Luby Transform (LT) erasure codes: the source-side
// encoder driven by a Soliton degree distribution and the low-complexity
// belief-propagation decoder operating on a Tanner graph (Luby, FOCS 2002;
// Section II of the LTNC paper).
//
// The decoder is also the storage substrate of an LTNC node: it exposes
// hooks that fire as packets are stored, reduced by peeling, or decoded, so
// that the recoding data structures of internal/core (degree index,
// connected components, occurrence counts) stay synchronized with the
// Tanner graph at no extra cost.
package lt

import (
	"errors"
	"fmt"
)

// ErrContentSize is returned when content cannot be split as requested.
var ErrContentSize = errors.New("lt: invalid content split")

// Pad returns an owned copy of content, zero-padded to k natives of
// m = ceil(len(content)/k) bytes each. Natives slices it.
func Pad(content []byte, k int) (buf []byte, m int, err error) {
	if k < 1 {
		return nil, 0, fmt.Errorf("%w: k = %d", ErrContentSize, k)
	}
	if len(content) == 0 {
		return nil, 0, fmt.Errorf("%w: empty content", ErrContentSize)
	}
	m = (len(content) + k - 1) / k
	buf = make([]byte, k*m)
	copy(buf, content)
	return buf, m, nil
}

// Natives views a padded buffer as its m-byte native payloads: sub-slices
// of buf, each capped at its own end, no copy.
func Natives(buf []byte, m int) [][]byte {
	natives := make([][]byte, len(buf)/m)
	for i := range natives {
		natives[i] = buf[i*m : (i+1)*m : (i+1)*m]
	}
	return natives
}

// SplitAliased views content as k natives of m = ceil(len(content)/k)
// bytes without copying it: every native that fits in content is a
// sub-slice of it, capped at its own end, and only the natives past its end
// — the zero-padded tail, when len(content) is not a multiple of k — are
// copied, into one buffer of their own. The natives alias content, which
// must not change while they are in use.
func SplitAliased(content []byte, k int) (natives [][]byte, m int, err error) {
	if k < 1 {
		return nil, 0, fmt.Errorf("%w: k = %d", ErrContentSize, k)
	}
	if len(content) == 0 {
		return nil, 0, fmt.Errorf("%w: empty content", ErrContentSize)
	}
	m = (len(content) + k - 1) / k
	full := len(content) / m
	natives = make([][]byte, k)
	src, base := content, 0
	for i := range natives {
		if i == full {
			src, base = make([]byte, (k-full)*m), full
			copy(src, content[full*m:])
		}
		j := i - base
		natives[i] = src[j*m : (j+1)*m : (j+1)*m]
	}
	return natives, m, nil
}

// Split divides content into k native packets of equal size m =
// ceil(len(content)/k), zero-padding the tail. It returns the native
// payloads — views of one padded copy of content; Join inverts it given
// the original length.
func Split(content []byte, k int) ([][]byte, error) {
	buf, m, err := Pad(content, k)
	if err != nil {
		return nil, err
	}
	return Natives(buf, m), nil
}

// Join reassembles content of the given original size from k native
// payloads produced by Split.
func Join(natives [][]byte, size int) ([]byte, error) {
	if len(natives) == 0 {
		return nil, fmt.Errorf("%w: no natives", ErrContentSize)
	}
	m := len(natives[0])
	if m*len(natives) < size {
		return nil, fmt.Errorf("%w: %d natives of %d bytes cannot hold %d bytes",
			ErrContentSize, len(natives), m, size)
	}
	out := make([]byte, 0, size)
	for _, n := range natives {
		if len(n) != m {
			return nil, fmt.Errorf("%w: ragged native sizes", ErrContentSize)
		}
		take := min(m, size-len(out))
		out = append(out, n[:take]...)
		if len(out) == size {
			break
		}
	}
	return out, nil
}
