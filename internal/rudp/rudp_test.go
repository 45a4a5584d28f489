package rudp_test

import (
	"strconv"
	"testing"
	"time"

	"pfi/internal/core"
	"pfi/internal/message"
	"pfi/internal/netsim"
	"pfi/internal/rudp"
	"pfi/internal/stack"
)

type node struct {
	s    *stack.Stack
	l    *rudp.Layer
	pfi  *core.Layer
	got  []string
	from []string
}

func newNet(t *testing.T, names ...string) (*netsim.World, map[string]*node) {
	t.Helper()
	w := netsim.NewWorld(3)
	nodes := make(map[string]*node)
	for _, name := range names {
		nn := w.MustAddNode(name)
		l := rudp.NewLayer(nn.Env())
		pl := core.NewLayer(nn.Env())
		s := stack.New(nn.Env(), l, pl)
		nn.SetStack(s)
		nd := &node{s: s, l: l, pfi: pl}
		l.OnDeliver(func(src string, payload []byte) {
			nd.got = append(nd.got, string(payload))
			nd.from = append(nd.from, src)
		})
		nodes[name] = nd
	}
	if err := w.ConnectAll(netsim.LinkConfig{Latency: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	return w, nodes
}

// countSends makes nd's PFI layer count the frames nd sends, as the global
// sent of its send filter.
func countSends(t *testing.T, nd *node) {
	t.Helper()
	if err := nd.pfi.SetSendScript(`incr sent`); err != nil {
		t.Fatal(err)
	}
}

// sent reads the count countSends keeps.
func sent(nd *node) string {
	n, _ := nd.pfi.SendFilter().Interp().Global("sent")
	return n
}

func TestReliableDelivery(t *testing.T) {
	w, ns := newNet(t, "a", "b")
	countSends(t, ns["a"])
	if err := ns["a"].l.Send("b", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	w.Run()
	if len(ns["b"].got) != 1 || ns["b"].got[0] != "hello" || ns["b"].from[0] != "a" {
		t.Fatalf("b got %v from %v", ns["b"].got, ns["b"].from)
	}
	if n := sent(ns["a"]); n != "1" {
		t.Fatalf("a sent %s frames: the ack did not stop the retransmissions", n)
	}
}

func TestRawDelivery(t *testing.T) {
	w, ns := newNet(t, "a", "b")
	if err := ns["a"].l.SendRaw("b", []byte("hb")); err != nil {
		t.Fatal(err)
	}
	w.Run()
	if len(ns["b"].got) != 1 || ns["b"].got[0] != "hb" {
		t.Fatalf("b got %v", ns["b"].got)
	}
}

func TestRetransmissionOnLoss(t *testing.T) {
	w, ns := newNet(t, "a", "b")
	// Drop the first two DATA frames at a's wire.
	if err := ns["a"].pfi.SetSendScript(`
		if {![info exists n]} { set n 0 }
		incr n
		if {$n <= 2} { xDrop cur_msg }
	`); err != nil {
		t.Fatal(err)
	}
	if err := ns["a"].l.Send("b", []byte("persistent")); err != nil {
		t.Fatal(err)
	}
	w.RunFor(10 * time.Second)
	if len(ns["b"].got) != 1 || ns["b"].got[0] != "persistent" {
		t.Fatalf("b got %v", ns["b"].got)
	}
	if n, _ := ns["a"].pfi.SendFilter().Interp().Global("n"); n != "3" {
		t.Fatalf("a sent %s frames, want 3", n)
	}
}

func TestGiveUpAfterMaxRetries(t *testing.T) {
	w, ns := newNet(t, "a", "b")
	if err := ns["b"].pfi.SetReceiveScript(`xDrop cur_msg`); err != nil {
		t.Fatal(err)
	}
	countSends(t, ns["a"])
	if err := ns["a"].l.Send("b", []byte("void")); err != nil {
		t.Fatal(err)
	}
	w.RunFor(time.Minute)
	if len(ns["b"].got) != 0 {
		t.Fatal("blackholed frame delivered")
	}
	want := strconv.Itoa(1 + rudp.DefaultMaxRetries)
	if n := sent(ns["a"]); n != want {
		t.Fatalf("a sent %s frames, want %s", n, want)
	}
	if w.Sched.Len() != 0 {
		t.Fatalf("%d events still pending after the give-up", w.Sched.Len())
	}
}

func TestDuplicateSuppression(t *testing.T) {
	w, ns := newNet(t, "a", "b")
	// Drop ACKs coming back to a, forcing retransmissions of a frame b has
	// already delivered; b must not deliver twice.
	if err := ns["a"].pfi.SetReceiveScript(`xDrop cur_msg`); err != nil {
		t.Fatal(err)
	}
	countSends(t, ns["a"])
	if err := ns["a"].l.Send("b", []byte("once")); err != nil {
		t.Fatal(err)
	}
	w.RunFor(time.Minute)
	if len(ns["b"].got) != 1 {
		t.Fatalf("delivered %d times, want exactly once", len(ns["b"].got))
	}
	if n := sent(ns["a"]); n == "1" {
		t.Fatal("a never retransmitted, so b saw no duplicate")
	}
}

func TestInterleavedPeers(t *testing.T) {
	w, ns := newNet(t, "a", "b", "c")
	for i := 0; i < 5; i++ {
		if err := ns["a"].l.Send("b", []byte{byte('0' + i)}); err != nil {
			t.Fatal(err)
		}
		if err := ns["c"].l.Send("b", []byte{byte('5' + i)}); err != nil {
			t.Fatal(err)
		}
	}
	w.Run()
	if len(ns["b"].got) != 10 {
		t.Fatalf("b got %d messages, want 10", len(ns["b"].got))
	}
}

func TestFrameRoundTrip(t *testing.T) {
	f := &rudp.Frame{Kind: rudp.KindData, Seq: 77, Payload: []byte("x")}
	got, err := rudp.Decode(f.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != f.Kind || got.Seq != f.Seq || string(got.Payload) != "x" {
		t.Fatalf("round trip %+v", got)
	}
	if _, err := rudp.Decode(message.New([]byte{1})); err == nil {
		t.Fatal("short frame decoded")
	}
	if (&rudp.Frame{Kind: 99}).KindName() != "UNKNOWN" {
		t.Fatal("unknown kind name")
	}
	for _, tt := range []struct{ name, want string }{
		{"kind", "DATA"}, {"seq", "77"}, {"len", "1"}, {"src", ""},
	} {
		if got := f.Field(tt.name); got != tt.want {
			t.Errorf("Field(%s) = %q, want %q", tt.name, got, tt.want)
		}
	}
}

func TestHandleDownSendsRaw(t *testing.T) {
	w, ns := newNet(t, "a", "b")
	m := message.New([]byte("pushed"))
	m.SetDst("b")
	if err := ns["a"].s.Send(m); err != nil {
		t.Fatal(err)
	}
	w.Run()
	if len(ns["b"].got) != 1 || ns["b"].got[0] != "pushed" {
		t.Fatalf("b got %v", ns["b"].got)
	}
}
