package core

import (
	"strconv"
	"strings"
	"testing"

	"pfi/internal/message"
)

// ownedStub is demoStub as a HeaderStub: a filter gets one demoHeader and
// every message it recognizes is decoded over it.
type ownedStub struct {
	demoStub
	made *[]*demoHeader
}

func (s ownedStub) NewHeader() Header {
	h := &demoHeader{}
	*s.made = append(*s.made, h)
	return h
}

type demoHeader struct {
	typ        string
	seq        int
	recognized int // messages decoded over this header
	reads      int // field reads, any kind
}

func (h *demoHeader) Recognize(m *message.Message) (string, error) {
	info, err := demoStub{}.Recognize(m)
	if err != nil {
		return "", err
	}
	h.typ = info.Type
	h.seq, _ = strconv.Atoi(info.Field("seq"))
	h.recognized++
	return h.typ, nil
}

func (h *demoHeader) IntField(name string) (int64, bool) {
	h.reads++
	return int64(h.seq), name == "seq"
}

func (h *demoHeader) Field(name string) string {
	h.reads++
	if name == "seq" {
		return strconv.Itoa(h.seq)
	}
	return ""
}

// TestOwnedHeaderNestedRecognition: the receive filter's script injects a
// message upward in the middle of its run; the app answers it at once, so the
// send filter of the same layer recognizes the answer while the receive
// filter's run is still open. Each filter decodes into a header of its own,
// so the outer run reads its own message's fields before and after, and once
// a run is over nothing reads the header until the next message replaces it.
func TestOwnedHeaderNestedRecognition(t *testing.T) {
	var made []*demoHeader
	r := newRig(t, WithStub(ownedStub{made: &made}))
	r.stk.OnDeliver(func(m *message.Message) error {
		r.toApp = append(r.toApp, m)
		if b, _ := m.ByteAt(0); b == demoNACK { // the app answers a NACK with an ACK
			return r.stk.Send(demoMsg(demoACK, 77, ""))
		}
		return nil
	})
	if err := r.layer.SetReceiveScript(`
		set before [msg_field cur_msg seq]
		xInject NACK {seq 5} up
		set after [msg_field cur_msg seq]
		set sum [expr {$before + $after}]
		msg_log cur_msg "seq $after"
	`); err != nil {
		t.Fatal(err)
	}
	if err := r.layer.SetSendScript(`set sent "[msg_type cur_msg] [msg_field cur_msg seq]"`); err != nil {
		t.Fatal(err)
	}

	for _, seq := range []byte{8, 9} {
		r.deliver(t, demoMsg(demoDATA, seq, ""))
		recv, send := r.layer.ReceiveFilter().Interp(), r.layer.SendFilter().Interp()
		want := strconv.Itoa(int(seq))
		for _, name := range []string{"before", "after"} {
			if got, _ := recv.Global(name); got != want {
				t.Errorf("DATA %d: receive filter read %s = %q across the nested run", seq, name, got)
			}
		}
		if got, _ := recv.Global("sum"); got != strconv.Itoa(2*int(seq)) {
			t.Errorf("DATA %d: sum = %q", seq, got)
		}
		if got, _ := send.Global("sent"); got != "ACK 77" {
			t.Errorf("DATA %d: send filter saw %q", seq, got)
		}
	}
	if len(made) != 2 || made[0] == made[1] {
		t.Fatalf("%d headers made for two filters", len(made))
	}
	for _, h := range made {
		if h.recognized != 2 {
			t.Errorf("a header was decoded over %d times, want 2", h.recognized)
		}
	}
	var notes []string
	for _, e := range r.layer.Trace().Entries() {
		if e.Kind == "receive-filter" {
			notes = append(notes, e.Note)
		}
	}
	if strings.Join(notes, ",") != "seq 8,seq 9" {
		t.Errorf("msg_log notes: %q", notes)
	}

	// Outside a run there is no current message, and the header is not read.
	reads := made[0].reads + made[1].reads
	if _, err := r.layer.ReceiveFilter().Interp().Eval(`msg_field cur_msg seq`); err == nil ||
		!strings.Contains(err.Error(), "no current message") {
		t.Errorf("msg_field outside a run: %v", err)
	}
	if got := made[0].reads + made[1].reads; got != reads {
		t.Errorf("the header was read %d times outside a run", got-reads)
	}
}

// TestUnrecognizedKeepsNoHeader: a message the owned header cannot decode is
// UNRECOGNIZED with no fields, as with a boxed header — not the previous
// message's.
func TestUnrecognizedKeepsNoHeader(t *testing.T) {
	var made []*demoHeader
	r := newRig(t, WithStub(ownedStub{made: &made}))
	if err := r.layer.SetSendScript(`set saw "[msg_type cur_msg]/[msg_field cur_msg seq]"`); err != nil {
		t.Fatal(err)
	}
	r.send(t, demoMsg(demoDATA, 4, ""))
	r.send(t, message.New([]byte{demoDATA})) // too short for the stub
	if got, _ := r.layer.SendFilter().Interp().Global("saw"); got != "UNRECOGNIZED/" {
		t.Fatalf("short packet read as %q", got)
	}
	if len(r.toNet) != 2 {
		t.Fatalf("forwarded %d of 2", len(r.toNet))
	}
}
