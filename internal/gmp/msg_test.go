package gmp

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"pfi/internal/rudp"
)

// decodeMsg decodes raw into a zero Msg.
func decodeMsg(raw []byte, src string, peers []string) (Msg, error) {
	var m Msg
	err := m.decode(raw, src, peers)
	return m, err
}

// TestRawFrameIsTheTwoStepFrame: a GMP message appended straight behind a
// raw RUDP header is byte for byte the frame RUDP builds around the
// separately encoded payload, for a heartbeat (inline in the message) and
// for a membership list long enough to spill.
func TestRawFrameIsTheTwoStepFrame(t *testing.T) {
	long := make([]string, 40)
	for i := range long {
		long[i] = "node-with-a-long-name"
	}
	for _, m := range []Msg{
		{Type: TypeHeartbeat, Gen: 4, Origin: "n1", Sender: "n1"},
		{Type: TypeDeadReport, Gen: 9, Origin: "n2", Sender: "n3", Members: []string{"n2"}},
		{Type: TypeCommit, Gen: 1 << 20, Origin: "n1", Sender: "n1", Members: long},
		{Type: TypeProclaim},
	} {
		if got, want := len(m.Encode()), m.EncodedLen(); got != want {
			t.Fatalf("%s: EncodedLen %d, Encode wrote %d bytes", m.TypeName(), want, got)
		}
		oneStep := m.AppendTo(rudp.RawFrame(nil, m.EncodedLen())).Message()
		twoStep := rudp.Frame{Kind: rudp.KindRaw, Payload: m.Encode()}.Encode()
		if !bytes.Equal(oneStep.Bytes(), twoStep.Bytes()) {
			t.Fatalf("%s: built in place % x\nwrapped          % x", m.TypeName(), oneStep.Bytes(), twoStep.Bytes())
		}
	}
}

// TestDecodeReusesKnownNames: a daemon decoding a datagram from src with a
// peer list gets the message a decode without one gives, with Origin, Sender and
// Members being its own strings, not copies; a name it was not told about
// is still decoded (and shares nothing with the wire bytes).
func TestDecodeReusesKnownNames(t *testing.T) {
	peers := []string{"n1", "n2", "n3"}
	m := Msg{Type: TypeMembership, Gen: 7, Origin: "n1", Sender: "n2", Members: []string{"n1", "n3", "n9"}}
	wire := m.Encode()
	got, err := decodeMsg(wire, peers[1], peers)
	if err != nil || !reflect.DeepEqual(got, m) {
		t.Fatalf("decoded %+v, %v", got, err)
	}
	same := func(a, b string) bool { return unsafe.StringData(a) == unsafe.StringData(b) }
	if !same(got.Sender, peers[1]) || !same(got.Origin, peers[0]) || !same(got.Members[0], peers[0]) || !same(got.Members[1], peers[2]) {
		t.Fatal("a peer's name was copied instead of reused")
	}
	for i := range wire {
		wire[i] = 0xEE
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("decoded message aliases the wire bytes: %+v", got)
	}
	plain, err := decodeMsg(m.Encode(), "", nil)
	if err != nil || !reflect.DeepEqual(plain, m) {
		t.Fatalf("decodeMsg %+v, %v", plain, err)
	}
}

// stubMsgs has one message of every GMP type, with and without members.
func stubMsgs() []Msg {
	var ms []Msg
	for typ := range typeNames {
		if typeNames[typ] == "" {
			continue
		}
		ms = append(ms,
			Msg{Type: uint8(typ), Gen: uint32(typ) * 1000003, Origin: "n1", Sender: "n2"},
			Msg{Type: uint8(typ), Gen: 7, Origin: "node-9", Sender: "", Members: []string{"n1", "n3", "a-longer-name"}})
	}
	return ms
}

// TestLazyHeaderMatchesDecodeMsg: the stub's header decodes its fields when
// a script first reads one, and what it reads — every GMP field, as text and
// as a number, and the frame's under their rudp_ names — is what decodeMsg
// gives for the same bytes, for every type.
func TestLazyHeaderMatchesDecodeMsg(t *testing.T) {
	h := PFIStub{}.NewHeader()
	for _, m := range stubMsgs() {
		frame := rudp.Frame{Kind: rudp.KindRaw, Seq: 12, Payload: m.Encode()}.Encode()
		typ, err := h.Recognize(frame)
		if err != nil || typ != m.TypeName() {
			t.Fatalf("%s: recognized %q, %v", m.TypeName(), typ, err)
		}
		want, err := decodeMsg(m.Encode(), "", nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"origin", "sender", "gen", "members", "nope"} {
			if got := h.Field(name); got != want.Field(name) {
				t.Fatalf("%s: field %s reads %q, decodeMsg %q", m.TypeName(), name, got, want.Field(name))
			}
		}
		if n, ok := h.IntField("gen"); !ok || n != int64(m.Gen) {
			t.Fatalf("%s: gen reads %d, %v", m.TypeName(), n, ok)
		}
		if n, ok := h.IntField("rudp_seq"); !ok || n != 12 || h.Field("rudp_kind") != "RAW" {
			t.Fatalf("%s: frame fields read seq %d, kind %q", m.TypeName(), n, h.Field("rudp_kind"))
		}
	}
}

// TestRecognizeRefusesShortAndUnknown: recognition checks a message
// without building its strings, so a PFI layer reports UNRECOGNIZED for
// every message cut short at any length and for every unknown type byte,
// and recognizes the whole message and one with trailing bytes — as
// decodeMsg, which walks the layout the same way, decides.
func TestRecognizeRefusesShortAndUnknown(t *testing.T) {
	h := PFIStub{}.NewHeader()
	check := func(payload []byte, ok bool) {
		t.Helper()
		_, got := h.Recognize(rudp.Frame{Kind: rudp.KindRaw, Payload: payload}.Encode())
		_, dec := decodeMsg(payload, "", nil)
		if (got == nil) != ok || (dec == nil) != ok {
			t.Fatalf("payload % x: Recognize error %v, decodeMsg error %v, want accepted %v", payload, got, dec, ok)
		}
	}
	for _, m := range stubMsgs() {
		wire := m.Encode()
		for n := 0; n < len(wire); n++ {
			check(wire[:n], false)
		}
		check(wire, true)
		check(append(wire, 0xAA, 0x01), true)
		for typ := 0; typ < 256; typ++ {
			wire[0] = byte(typ)
			check(wire, typ < len(typeNames) && typeNames[typ] != "")
		}
	}
}

func TestMsgRoundTrip(t *testing.T) {
	m := &Msg{Type: TypeCommit, Gen: 42, Origin: "n1", Sender: "n2",
		Members: []string{"n1", "n2", "n3"}}
	got, err := decodeMsg(m.Encode(), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != m.Type || got.Gen != m.Gen || got.Origin != m.Origin ||
		got.Sender != m.Sender || len(got.Members) != 3 || got.Members[2] != "n3" {
		t.Fatalf("round trip %+v", got)
	}
	if _, err := decodeMsg([]byte{1}, "", nil); err == nil {
		t.Fatal("short message decoded")
	}
	if _, err := decodeMsg([]byte{99, 0, 0, 0, 0, 0, 0, 0}, "", nil); err == nil {
		t.Fatal("unknown type decoded")
	}
}

// Property: decodeMsg never panics on arbitrary bytes (corrupted packets
// from byzantine injection reach it directly).
func TestPropertyDecodeNeverPanics(t *testing.T) {
	f := func(raw []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_, _ = decodeMsg(raw, "", nil)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: Encode/decodeMsg round-trip for arbitrary field values.
func TestPropertyMsgRoundTrip(t *testing.T) {
	f := func(typ uint8, gen uint32, origin, sender string, members []string) bool {
		typ = typ%9 + 1 // valid type range
		if len(origin) > 255 {
			origin = origin[:255]
		}
		if len(sender) > 255 {
			sender = sender[:255]
		}
		if len(members) > 255 {
			members = members[:255]
		}
		for i, m := range members {
			if len(m) > 255 {
				members[i] = m[:255]
			}
		}
		in := &Msg{Type: typ, Gen: gen, Origin: origin, Sender: sender, Members: members}
		out, err := decodeMsg(in.Encode(), "", nil)
		if err != nil {
			return false
		}
		if out.Type != in.Type || out.Gen != in.Gen || out.Origin != in.Origin ||
			out.Sender != in.Sender || len(out.Members) != len(in.Members) {
			return false
		}
		for i := range in.Members {
			if out.Members[i] != in.Members[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
