package gmp

import (
	"fmt"
	"strconv"
	"strings"

	"pfi/internal/core"
	"pfi/internal/message"
	"pfi/internal/rudp"
)

// PFIStub is the GMP packet recognition/generation stub — the kind "written
// by the protocol developer for an application-level protocol". The PFI
// layer sits below the reliable-UDP layer (at the paper's "udp send and
// receive calls"), so recognition sees rudp frames and looks through them
// to the GMP message inside.
//
// Reported types: the GMP message types (HEARTBEAT, PROCLAIM, JOIN,
// MEMBERSHIP_CHANGE, ACK, NAK, COMMIT, DEAD_REPORT, DEPART) for DATA/RAW
// frames, and RUDP-ACK for the reliability layer's acknowledgments.
type PFIStub struct{}

var _ core.HeaderStub = PFIStub{}

// Protocol implements core.Stub.
func (PFIStub) Protocol() string { return "gmp" }

// Recognize implements core.Stub.
func (PFIStub) Recognize(m *message.Message) (core.Info, error) {
	h := new(framed)
	typ, err := h.Recognize(m)
	if err != nil {
		return core.Info{}, err
	}
	return core.Info{Type: typ, Fields: h}, nil
}

// NewHeader implements core.HeaderStub.
func (PFIStub) NewHeader() core.Header { return new(framed) }

// framed is what recognition found: the rudp frame and, unless the frame
// is a bare reliability-layer ACK, the GMP message inside it. A GMP
// message's fields read under their own names and the frame's under a
// "rudp_" prefix; an ACK has only the frame's, unprefixed.
// Recognition checks the message and keeps its type; the fields are decoded
// from the payload, which aliases the message, when a script first reads one
// inside the filter run, or before msg_set_byte changes it (Settle).
type framed struct {
	frame rudp.Frame
	src   string // the datagram's network source, for Msg.decode
	msg   Msg    // Type 0 until decoded
	ack   bool
}

// Recognize implements core.Header.
func (r *framed) Recognize(m *message.Message) (string, error) {
	f, err := rudp.Decode(m)
	if err != nil {
		return "", err
	}
	if f.Kind == rudp.KindAck {
		*r = framed{frame: f, ack: true}
		return "RUDP-ACK", nil
	}
	typ, err := msgType(f.Payload)
	if err != nil {
		return "", fmt.Errorf("gmp stub: %w", err)
	}
	*r = framed{frame: f, src: m.Src()}
	return TypeName(typ), nil
}

// header decodes the fields on first use. Recognize has checked the bytes
// and Settle runs before any of them change, so the decode cannot fail and
// leaves a Type that is not 0.
func (r *framed) header() *Msg {
	if r.msg.Type == 0 {
		_ = r.msg.decode(r.frame.Payload, r.src, nil)
	}
	return &r.msg
}

// Settle implements core.Settler.
func (r *framed) Settle() {
	if !r.ack {
		r.header()
	}
}

// IntField implements core.Header.
func (r *framed) IntField(name string) (int64, bool) {
	if r.ack {
		return r.frame.IntField(name)
	}
	if rest, ok := strings.CutPrefix(name, "rudp_"); ok {
		return r.frame.IntField(rest)
	}
	return r.header().IntField(name)
}

// Field implements core.FieldSource.
func (r *framed) Field(name string) string {
	if r.ack {
		return r.frame.Field(name)
	}
	if rest, ok := strings.CutPrefix(name, "rudp_"); ok {
		return r.frame.Field(rest)
	}
	return r.header().Field(name)
}

// Generate implements core.Stub: it builds a GMP message wrapped in an
// unreliable (RAW) rudp frame, since the PFI layer cannot update the
// reliability layer's sequence state — the same constraint the paper
// describes for stateful TCP sends.
func (PFIStub) Generate(typ string, fields map[string]string) (*message.Message, error) {
	t, ok := typeID(typ)
	if !ok {
		return nil, fmt.Errorf("gmp stub: cannot generate %q", typ)
	}
	gm := Msg{Type: t, Origin: fields["origin"], Sender: fields["sender"]}
	if g := fields["gen"]; g != "" {
		v, err := strconv.ParseUint(g, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("gmp stub: bad gen %q", g)
		}
		gm.Gen = uint32(v)
	}
	if ms := fields["members"]; ms != "" {
		gm.Members = strings.Split(ms, ",")
	}
	return gm.AppendTo(rudp.RawFrame(nil, gm.EncodedLen())).Message(), nil
}
