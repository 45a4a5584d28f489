// Package tcp is a from-scratch TCP implementation (RFC-793/RFC-1122
// semantics at the granularity the paper's experiments probe): three-way
// handshake, sliding-window data transfer with cumulative ACKs,
// Jacobson/Karn retransmission timing with exponential backoff,
// out-of-order segment queueing, keep-alive probing, zero-window probing,
// and reset handling.
//
// The four vendor TCPs the paper tested (SunOS 4.1.3, AIX 3.2.3, NeXT Mach,
// Solaris 2.3) are closed source; they are reproduced here as behaviour
// Profiles (see profile.go) so the PFI tool can re-discover their
// externally visible differences, which is exactly what the paper's
// experiments did.
package tcp

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"

	"pfi/internal/message"
)

// Flag bits, matching real TCP's control-bit layout.
const (
	FlagFIN = 0x01
	FlagSYN = 0x02
	FlagRST = 0x04
	FlagPSH = 0x08
	FlagACK = 0x10
)

// HeaderLen is the fixed encoded header size in bytes.
const HeaderLen = 15

// Segment is a decoded TCP segment.
type Segment struct {
	SrcPort uint16
	DstPort uint16
	Seq     uint32
	Ack     uint32
	Flags   uint8
	Window  uint16
	Payload []byte
}

// Has reports whether all the given flag bits are set.
func (s *Segment) Has(flags uint8) bool { return s.Flags&flags == flags }

// Len returns the payload length.
func (s *Segment) Len() int { return len(s.Payload) }

// SeqSpace returns the sequence space the segment occupies (payload bytes
// plus one for SYN and FIN, per RFC-793).
func (s *Segment) SeqSpace() uint32 {
	n := uint32(len(s.Payload))
	if s.Has(FlagSYN) {
		n++
	}
	if s.Has(FlagFIN) {
		n++
	}
	return n
}

// FlagNames renders the set flags, e.g. "SYN|ACK".
func (s *Segment) FlagNames() string {
	var names []string
	for _, f := range []struct {
		bit  uint8
		name string
	}{
		{FlagSYN, "SYN"}, {FlagACK, "ACK"}, {FlagFIN, "FIN"},
		{FlagRST, "RST"}, {FlagPSH, "PSH"},
	} {
		if s.Flags&f.bit != 0 {
			names = append(names, f.name)
		}
	}
	if len(names) == 0 {
		return "NONE"
	}
	return strings.Join(names, "|")
}

// Type classifies the segment the way the PFI stub reports it: SYN,
// SYN-ACK, RST, FIN, DATA (payload present), or ACK (bare acknowledgment).
func (s *Segment) Type() string {
	switch {
	case s.Has(FlagSYN | FlagACK):
		return "SYN-ACK"
	case s.Has(FlagSYN):
		return "SYN"
	case s.Has(FlagRST):
		return "RST"
	case s.Has(FlagFIN):
		return "FIN"
	case len(s.Payload) > 0:
		return "DATA"
	default:
		return "ACK"
	}
}

// String renders a tcpdump-flavoured summary.
func (s *Segment) String() string {
	return fmt.Sprintf("%d>%d %s seq=%d ack=%d win=%d len=%d",
		s.SrcPort, s.DstPort, s.FlagNames(), s.Seq, s.Ack, s.Window, len(s.Payload))
}

// Encode serializes the segment into a stack message that owns its bytes.
// This is the one copy a stream byte gets between Send and OnData: a
// message is what a fault may mutate (SetByte, Truncate), the payload it
// was cut from is not.
func (s *Segment) Encode() *message.Message {
	return message.Build(HeaderLen + len(s.Payload)).
		U16(s.SrcPort).U16(s.DstPort).U32(s.Seq).U32(s.Ack).U8(s.Flags).U16(s.Window).
		Bytes(s.Payload).Message()
}

// Decode parses a segment from a stack message without consuming it.
// Payload aliases the message's bytes: copy it to keep it beyond the
// message.
func Decode(m *message.Message) (Segment, error) {
	raw := m.Bytes()
	if len(raw) < HeaderLen {
		return Segment{}, fmt.Errorf("tcp: segment too short: %d bytes", len(raw))
	}
	return Segment{
		SrcPort: binary.BigEndian.Uint16(raw[0:]),
		DstPort: binary.BigEndian.Uint16(raw[2:]),
		Seq:     binary.BigEndian.Uint32(raw[4:]),
		Ack:     binary.BigEndian.Uint32(raw[8:]),
		Flags:   raw[12],
		Window:  binary.BigEndian.Uint16(raw[13:]),
		Payload: raw[HeaderLen:],
	}, nil
}

// IntField reads one numeric header field (every field but flags) for
// filter scripts — Segment is the core.Header the PFI stub decodes into.
func (s Segment) IntField(name string) (int64, bool) {
	switch name {
	case "srcport":
		return int64(s.SrcPort), true
	case "dstport":
		return int64(s.DstPort), true
	case "seq":
		return int64(s.Seq), true
	case "ack":
		return int64(s.Ack), true
	case "win":
		return int64(s.Window), true
	case "len":
		return int64(len(s.Payload)), true
	}
	return 0, false
}

// Field renders one header field for filter scripts.
func (s Segment) Field(name string) string {
	if n, ok := s.IntField(name); ok {
		return strconv.FormatInt(n, 10)
	}
	if name == "flags" {
		return s.FlagNames()
	}
	return ""
}

// seqLess reports a < b in 32-bit sequence arithmetic.
func seqLess(a, b uint32) bool { return int32(a-b) < 0 }

// seqLEQ reports a <= b in 32-bit sequence arithmetic.
func seqLEQ(a, b uint32) bool { return int32(a-b) <= 0 }
