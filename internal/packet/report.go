package packet

import (
	"encoding/binary"
	"fmt"
)

// Frame types: the first byte of every session frame, its body behind it —
// a packet (AppendWire), a report, a manifest run or a partial-view
// exchange. 0x02 and 0x03 are retired: a session drops them.
const (
	FrameData     = 0x01
	FrameFeedback = 0x04
	FrameManifest = 0x05
	FrameMember   = 0x06
)

// Report wire body — the payload of a FEEDBACK frame: a receiver's one
// statement of where it stands with an object, sent to an upstream:
//
//	object      16 bytes  content ID the report is about
//	kind         1 byte   6; kinds 1–5 and 7 are retired
//	flags        1 byte   ReportComplete, ReportGenComplete, ReportNeed
//	need         4 bytes  the run lacked under ReportNeed, else 0
//	gen          4 bytes  the generation the report is about
//	received     4 bytes  the upstream's DATA rows the receiver judged
//	innovative   4 bytes  those that advanced its decode
//	departed     4 bytes  the highest send sequence among them that came
//	                      stamped (0: none did)
//	frontier    the rest  while gen is filling: gen's decoded natives,
//	                      native i at bit i&7 of byte i>>3, FrontierLen
//	                      bytes (AppendFrontier)
//
// The codec holds the fixed part to one encoding; the frontier's length
// and padding and gen's range depend on the object's geometry and are the
// session's to check, as coder.Check sits beside ParseWire.
const (
	// ReportLen is the fixed part of a report body, before the frontier.
	ReportLen  = 16 + 1 + 1 + 4 + 4*4
	reportKind = 0x06 // the report's byte after the object ID

	// The report's flags.
	ReportComplete    = 1 << 0 // the object is complete at the receiver
	ReportGenComplete = 1 << 1 // generation gen is complete there
	ReportNeed        = 1 << 2 // the receiver lacks manifest run need
)

// ErrBadReport marks a body that is no report: short, another kind, an
// unknown flag, a need not under its flag. It wraps ErrBadPacket.
var ErrBadReport = fmt.Errorf("%w: bad report", ErrBadPacket)

// Report is one decoded FEEDBACK body.
type Report struct {
	Object ObjectID
	Flags  byte

	Need, Gen, Received, Innovative, Departed uint32
	// Frontier is gen's frontier, or empty; ParseReport leaves it
	// unchecked, and it aliases the input buffer.
	Frontier []byte
}

// AppendReport appends the wire body of r and returns the extended slice.
func AppendReport(dst []byte, r Report) []byte {
	dst = append(dst, r.Object[:]...)
	dst = append(dst, reportKind, r.Flags)
	for _, c := range [...]uint32{r.Need, r.Gen, r.Received, r.Innovative, r.Departed} {
		dst = binary.BigEndian.AppendUint32(dst, c)
	}
	return append(dst, r.Frontier...)
}

// FrontierLen is the length of a frontier over kPer natives: ⌈kPer/8⌉.
func FrontierLen(kPer int) int { return (kPer + 7) / 8 }

// AppendFrontier appends the frontier over kPer natives, decoded set.
func AppendFrontier(dst []byte, kPer int, decoded []int32) []byte {
	n := len(dst)
	dst = append(dst, make([]byte, FrontierLen(kPer))...)
	for _, i := range decoded {
		dst[n+int(i>>3)] |= 1 << (i & 7)
	}
	return dst
}

// ParseReport decodes a report body. Every accepted body re-encodes to
// data exactly; its Frontier is everything past the fixed part.
func ParseReport(data []byte) (Report, error) {
	var r Report
	if len(data) < ReportLen || data[16] != reportKind {
		return r, ErrBadReport
	}
	copy(r.Object[:], data)
	r.Flags, r.Frontier = data[17], data[ReportLen:]
	for i, c := range [...]*uint32{&r.Need, &r.Gen, &r.Received, &r.Innovative, &r.Departed} {
		*c = binary.BigEndian.Uint32(data[18+4*i:])
	}
	if r.Flags&^(ReportComplete|ReportGenComplete|ReportNeed) != 0 || r.Flags&ReportNeed == 0 && r.Need != 0 {
		return Report{}, ErrBadReport
	}
	return r, nil
}
