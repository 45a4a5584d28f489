package gmp

import (
	"bytes"
	"reflect"
	"testing"
	"unsafe"

	"pfi/internal/rudp"
)

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
// peer list gets the message DecodeMsg gives, with Origin, Sender and
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
	plain, err := DecodeMsg(m.Encode())
	if err != nil || !reflect.DeepEqual(plain, m) {
		t.Fatalf("DecodeMsg %+v, %v", plain, err)
	}
}
