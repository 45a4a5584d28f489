package tcp

import (
	"fmt"
	"strconv"

	"pfi/internal/core"
	"pfi/internal/message"
)

// PFIStub is the TCP packet recognition/generation stub for the PFI layer —
// the kind of stub the paper says "may be supplied by the system for a
// popular protocol such as TCP whose packet formats are known".
//
// Recognition classifies segments as SYN, SYN-ACK, ACK, DATA, FIN, or RST
// and exposes the header fields (seq, ack, flags, win, len, srcport,
// dstport) to filter scripts. Generation builds stateless segments —
// spurious ACKs and RSTs, the paper's examples of messages that need no
// protocol-state update — of every type it recognizes but DATA, which is
// refused: sequence-consuming sends belong to the driver layer.
type PFIStub struct{}

var _ core.HeaderStub = PFIStub{}

// Protocol implements core.Stub.
func (PFIStub) Protocol() string { return "tcp" }

// Recognize implements core.Stub.
func (PFIStub) Recognize(m *message.Message) (core.Info, error) {
	seg, err := Decode(m)
	if err != nil {
		return core.Info{}, err
	}
	return core.Info{Type: seg.Type(), Fields: seg}, nil
}

// NewHeader implements core.HeaderStub: a filter decodes every segment it
// sees over one Segment of its own.
func (PFIStub) NewHeader() core.Header { return new(Segment) }

// Recognize implements core.Header.
func (s *Segment) Recognize(m *message.Message) (string, error) {
	seg, err := Decode(m)
	if err != nil {
		return "", err
	}
	*s = seg
	return s.Type(), nil
}

// Generate implements core.Stub.
func (PFIStub) Generate(typ string, fields map[string]string) (*message.Message, error) {
	var flags uint8
	switch typ {
	case "ACK":
		flags = FlagACK
	case "RST":
		flags = FlagRST | FlagACK
	case "SYN":
		flags = FlagSYN
	case "SYN-ACK":
		flags = FlagSYN | FlagACK
	case "FIN":
		flags = FlagFIN | FlagACK
	default:
		return nil, fmt.Errorf("tcp stub: cannot generate %q without protocol state (use the driver layer)", typ)
	}
	seg := &Segment{Flags: flags}
	var err error
	if seg.SrcPort, err = fieldU16(fields, "srcport"); err != nil {
		return nil, err
	}
	if seg.DstPort, err = fieldU16(fields, "dstport"); err != nil {
		return nil, err
	}
	if seg.Seq, err = fieldU32(fields, "seq"); err != nil {
		return nil, err
	}
	if seg.Ack, err = fieldU32(fields, "ack"); err != nil {
		return nil, err
	}
	if seg.Window, err = fieldU16(fields, "win"); err != nil {
		return nil, err
	}
	return seg.Encode(), nil
}

func fieldU16(fields map[string]string, name string) (uint16, error) {
	s, ok := fields[name]
	if !ok {
		return 0, nil
	}
	v, err := strconv.ParseUint(s, 10, 16)
	if err != nil {
		return 0, fmt.Errorf("tcp stub: bad %s %q", name, s)
	}
	return uint16(v), nil
}

func fieldU32(fields map[string]string, name string) (uint32, error) {
	s, ok := fields[name]
	if !ok {
		return 0, nil
	}
	v, err := strconv.ParseUint(s, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("tcp stub: bad %s %q", name, s)
	}
	return uint32(v), nil
}
