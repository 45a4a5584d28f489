package netsim

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"pfi/internal/message"
	"pfi/internal/stack"
	"pfi/internal/trace"
)

// rig builds a world of n nodes named n0..n{n-1}, each with an empty stack
// that records deliveries.
type rig struct {
	w     *World
	nodes []*Node
	got   map[string][]string // node -> payloads received
}

func newRig(t *testing.T, n int, cfg LinkConfig) *rig {
	t.Helper()
	r := &rig{w: NewWorld(1), got: make(map[string][]string)}
	for i := 0; i < n; i++ {
		name := string(rune('a' + i))
		node := r.w.MustAddNode(name)
		s := stack.New(node.Env())
		s.OnDeliver(func(m *message.Message) error {
			r.got[name] = append(r.got[name], string(m.CopyBytes()))
			return nil
		})
		node.SetStack(s)
		r.nodes = append(r.nodes, node)
	}
	if err := r.w.ConnectAll(cfg); err != nil {
		t.Fatal(err)
	}
	return r
}

func (r *rig) send(t *testing.T, from, to, payload string) {
	t.Helper()
	m := message.New([]byte(payload))
	m.SetDst(to)
	node, _ := r.w.Node(from)
	if err := node.Stack().Send(m); err != nil {
		t.Fatal(err)
	}
}

func TestPointToPointDelivery(t *testing.T) {
	r := newRig(t, 2, LinkConfig{Latency: 5 * time.Millisecond})
	r.send(t, "a", "b", "hello")
	r.w.Run()
	if len(r.got["b"]) != 1 || r.got["b"][0] != "hello" {
		t.Fatalf("b received %v", r.got["b"])
	}
	if r.w.Now() != 0 && r.w.Now().Seconds() != 0.005 {
		t.Fatalf("delivery at %v, want 5ms", r.w.Now())
	}
	st := r.w.Stats()
	if st.Sent != 1 || st.Delivered != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestLatencyOrdersDeliveries(t *testing.T) {
	r := newRig(t, 2, LinkConfig{Latency: 10 * time.Millisecond})
	r.send(t, "a", "b", "first")
	r.send(t, "a", "b", "second")
	r.w.Run()
	if len(r.got["b"]) != 2 || r.got["b"][0] != "first" || r.got["b"][1] != "second" {
		t.Fatalf("b received %v, want FIFO", r.got["b"])
	}
}

func TestBroadcast(t *testing.T) {
	r := newRig(t, 4, LinkConfig{Latency: time.Millisecond})
	r.send(t, "a", Broadcast, "hb")
	r.w.Run()
	for _, n := range []string{"b", "c", "d"} {
		if len(r.got[n]) != 1 {
			t.Fatalf("node %s received %v", n, r.got[n])
		}
	}
	if len(r.got["a"]) != 0 {
		t.Fatal("broadcast came back to sender")
	}
}

func TestUnplug(t *testing.T) {
	r := newRig(t, 2, LinkConfig{})
	r.nodes[1].Unplug()
	r.send(t, "a", "b", "void")
	r.w.Run()
	if len(r.got["b"]) != 0 {
		t.Fatal("unplugged node received a message")
	}
	if r.w.Stats().LostDown != 1 {
		t.Fatalf("stats %+v", r.w.Stats())
	}
	r.nodes[1].Replug()
	r.send(t, "a", "b", "back")
	r.w.Run()
	if len(r.got["b"]) != 1 || r.got["b"][0] != "back" {
		t.Fatalf("after replug b received %v", r.got["b"])
	}
}

func TestUnplugSenderSide(t *testing.T) {
	r := newRig(t, 2, LinkConfig{})
	r.nodes[0].Unplug()
	r.send(t, "a", "b", "void")
	r.w.Run()
	if len(r.got["b"]) != 0 {
		t.Fatal("message escaped an unplugged sender")
	}
}

func TestUnplugMidFlightLosesPacket(t *testing.T) {
	r := newRig(t, 2, LinkConfig{Latency: 100 * time.Millisecond})
	r.send(t, "a", "b", "doomed")
	r.w.Sched.After(50*time.Millisecond, "pull cable", func() {
		r.nodes[1].Unplug()
	})
	r.w.Run()
	if len(r.got["b"]) != 0 {
		t.Fatal("packet survived a mid-flight unplug")
	}
}

func TestPartition(t *testing.T) {
	r := newRig(t, 5, LinkConfig{})
	r.w.Partition([]string{"a", "b", "c"}, []string{"d", "e"})
	r.send(t, "a", "b", "in-group")
	r.send(t, "a", "d", "cross-group")
	r.w.Run()
	if len(r.got["b"]) != 1 {
		t.Fatal("in-group message lost")
	}
	if len(r.got["d"]) != 0 {
		t.Fatal("cross-group message delivered")
	}
	if r.w.Stats().LostCut != 1 {
		t.Fatalf("stats %+v", r.w.Stats())
	}
	r.w.Heal()
	r.send(t, "a", "d", "healed")
	r.w.Run()
	if len(r.got["d"]) != 1 {
		t.Fatal("message lost after heal")
	}
}

func TestPartitionBroadcastRespectsGroups(t *testing.T) {
	r := newRig(t, 5, LinkConfig{})
	r.w.Partition([]string{"a", "b", "c"}, []string{"d", "e"})
	r.send(t, "a", Broadcast, "hb")
	r.w.Run()
	if len(r.got["b"]) != 1 || len(r.got["c"]) != 1 {
		t.Fatal("in-group broadcast lost")
	}
	if len(r.got["d"]) != 0 || len(r.got["e"]) != 0 {
		t.Fatal("broadcast crossed the partition")
	}
}

func TestNoRoute(t *testing.T) {
	w := NewWorld(1)
	a := w.MustAddNode("a")
	w.MustAddNode("b")
	sa := stack.New(a.Env())
	a.SetStack(sa)
	m := message.New([]byte("x"))
	m.SetDst("b")
	if err := sa.Send(m); err != nil {
		t.Fatal(err)
	}
	w.Run()
	if w.Stats().LostNoRoute != 1 {
		t.Fatalf("stats %+v", w.Stats())
	}
}

func TestDefaultLink(t *testing.T) {
	w := NewWorld(1)
	a := w.MustAddNode("a")
	b := w.MustAddNode("b")
	var got int
	sb := stack.New(b.Env())
	sb.OnDeliver(func(m *message.Message) error { got++; return nil })
	b.SetStack(sb)
	sa := stack.New(a.Env())
	a.SetStack(sa)
	w.SetDefaultLink(&LinkConfig{Latency: time.Millisecond})
	m := message.New([]byte("x"))
	m.SetDst("b")
	if err := sa.Send(m); err != nil {
		t.Fatal(err)
	}
	w.Run()
	if got != 1 {
		t.Fatal("default link did not deliver")
	}
}

func TestRandomLossIsSeededAndBounded(t *testing.T) {
	run := func(seed int64) (delivered int) {
		w := NewWorld(seed)
		a := w.MustAddNode("a")
		b := w.MustAddNode("b")
		sb := stack.New(b.Env())
		sb.OnDeliver(func(m *message.Message) error { delivered++; return nil })
		b.SetStack(sb)
		sa := stack.New(a.Env())
		a.SetStack(sa)
		if err := w.Connect("a", "b", LinkConfig{Loss: 0.5}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 1000; i++ {
			m := message.New([]byte("x"))
			m.SetDst("b")
			if err := sa.Send(m); err != nil {
				t.Fatal(err)
			}
		}
		w.Run()
		return delivered
	}
	d1, d2 := run(99), run(99)
	if d1 != d2 {
		t.Fatalf("same seed delivered %d vs %d — not deterministic", d1, d2)
	}
	if d1 < 350 || d1 > 650 {
		t.Fatalf("50%% loss delivered %d of 1000", d1)
	}
}

func TestErrorPaths(t *testing.T) {
	w := NewWorld(1)
	if _, err := w.AddNode(""); err == nil {
		t.Error("empty node name accepted")
	}
	if _, err := w.AddNode(Broadcast); err == nil {
		t.Error("broadcast node name accepted")
	}
	w.MustAddNode("a")
	if _, err := w.AddNode("a"); err == nil {
		t.Error("duplicate node accepted")
	}
	if err := w.Connect("a", "ghost", LinkConfig{}); err == nil {
		t.Error("link to unknown node accepted")
	}
	if err := w.Connect("ghost", "a", LinkConfig{}); err == nil {
		t.Error("link from unknown node accepted")
	}
	if err := w.Connect("a", "a", LinkConfig{}); err == nil {
		t.Error("self link accepted")
	}
	w.MustAddNode("b")
	if err := w.Connect("a", "b", LinkConfig{Loss: 1.5}); err == nil {
		t.Error("loss > 1 accepted")
	}
	// Message without destination.
	a, _ := w.Node("a")
	sa := stack.New(a.Env())
	a.SetStack(sa)
	if err := sa.Send(message.New([]byte("lost"))); err == nil {
		t.Error("message without destination accepted")
	}
	// Message to unknown destination.
	m := message.New([]byte("x"))
	m.SetDst("ghost")
	if err := sa.Send(m); err == nil {
		t.Error("message to unknown node accepted")
	}
}

func TestWireTrace(t *testing.T) {
	r := newRig(t, 2, LinkConfig{})
	l := trace.NewLog()
	r.w.SetTrace(l)
	r.send(t, "a", "b", "x")
	r.w.Run()
	if len(l.Filter("a", "wire-send", "")) != 1 {
		t.Error("missing wire-send entry")
	}
	if len(l.Filter("b", "wire-recv", "")) != 1 {
		t.Error("missing wire-recv entry")
	}
}

// TestWireTraceIsAFunctionOfTheWorld: two identical worlds built one after
// the other in one process log byte-identical canonical wire traces — the
// hop numbers in Seq count each world's own hops, whatever ran before it.
// A send, a broadcast, a drop at the sender and a loss in flight all draw.
func TestWireTraceIsAFunctionOfTheWorld(t *testing.T) {
	render := func() string {
		r := newRig(t, 3, LinkConfig{Latency: time.Millisecond})
		l := trace.NewLog()
		r.w.SetTrace(l)
		r.send(t, "a", "b", "x")
		r.send(t, "b", Broadcast, "y")
		r.nodes[2].Unplug()
		r.send(t, "a", "c", "z")
		r.nodes[2].Replug()
		r.send(t, "b", "c", "w")
		r.w.Sched.Step()
		r.nodes[2].Unplug()
		r.w.Run()
		var b strings.Builder
		if err := trace.WriteCanonical(&b, l.Entries()); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	first, second := render(), render()
	if first != second {
		t.Fatalf("the same world logged two wire traces:\n%s\nthen\n%s", first, second)
	}
	if !strings.Contains(first, "wire-drop") || !strings.Contains(first, "lost in flight") {
		t.Fatalf("trace lacks a drop or an in-flight loss:\n%s", first)
	}
}

func TestJitterStaysWithinBounds(t *testing.T) {
	w := NewWorld(42)
	a := w.MustAddNode("a")
	b := w.MustAddNode("b")
	var deliveries []time.Duration
	sb := stack.New(b.Env())
	sb.OnDeliver(func(m *message.Message) error {
		deliveries = append(deliveries, time.Duration(w.Now()))
		return nil
	})
	b.SetStack(sb)
	sa := stack.New(a.Env())
	a.SetStack(sa)
	if err := w.Connect("a", "b", LinkConfig{Latency: 10 * time.Millisecond, Jitter: 5 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		m := message.New([]byte("x"))
		m.SetDst("b")
		if err := sa.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	w.Run()
	for _, d := range deliveries {
		if d < 10*time.Millisecond || d >= 15*time.Millisecond {
			t.Fatalf("delivery latency %v outside [10ms,15ms)", d)
		}
	}
}

// Property: after the world drains, every message sent was either
// delivered or accounted for in exactly one loss bucket.
func TestPropertyConservation(t *testing.T) {
	f := func(seed int64, nMsg uint8, loss uint8) bool {
		w := NewWorld(seed)
		names := []string{"a", "b", "c"}
		for _, n := range names {
			node := w.MustAddNode(n)
			s := stack.New(node.Env())
			node.SetStack(s)
		}
		p := float64(loss%90) / 100
		if err := w.ConnectAll(LinkConfig{Latency: time.Millisecond, Loss: p}); err != nil {
			return false
		}
		a, _ := w.Node("a")
		for i := 0; i < int(nMsg); i++ {
			m := message.New([]byte("x"))
			if i%3 == 0 {
				m.SetDst(Broadcast)
			} else {
				m.SetDst(names[1+i%2])
			}
			if err := a.Stack().Send(m); err != nil {
				return false
			}
		}
		w.Run()
		st := w.Stats()
		return st.Sent == st.Delivered+st.LostRandom+st.LostDown+st.LostNoRoute+st.LostCut
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLoopbackDelivery(t *testing.T) {
	r := newRig(t, 2, LinkConfig{Latency: 50 * time.Millisecond})
	r.send(t, "a", "a", "to-myself")
	r.w.Run()
	if len(r.got["a"]) != 1 || r.got["a"][0] != "to-myself" {
		t.Fatalf("loopback delivered %v", r.got["a"])
	}
}

func TestLoopbackSurvivesUnplugAndPartition(t *testing.T) {
	// Loopback never touches the wire: it works with the cable pulled and
	// across any partition — exactly like a real host's 127.0.0.1.
	r := newRig(t, 2, LinkConfig{})
	r.nodes[0].Unplug()
	r.w.Partition([]string{"a"}, []string{"b"})
	r.send(t, "a", "a", "still-here")
	r.w.Run()
	if len(r.got["a"]) != 1 {
		t.Fatal("loopback lost while unplugged/partitioned")
	}
}

// TestDeliveryFitsOneSizeClass: a delivery — its event with the lane links,
// the endpoints, the message and the pin — stays within the 128-byte size
// class, so the wire's one object per hop stays one small allocation.
func TestDeliveryFitsOneSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(delivery{}); n > 128 {
		t.Fatalf("a delivery is %d bytes, over the 128-byte size class", n)
	}
}
