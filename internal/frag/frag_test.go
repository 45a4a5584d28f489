package frag_test

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"pfi/internal/core"
	"pfi/internal/frag"
	"pfi/internal/message"
	"pfi/internal/netsim"
	"pfi/internal/stack"
)

// rig: two nodes, each with frag above a PFI layer.
type rig struct {
	w    *netsim.World
	frag map[string]*frag.Layer
	pfi  map[string]*core.Layer
	got  map[string][][]byte
}

func newRig(t *testing.T, opts ...frag.Option) *rig {
	t.Helper()
	r := &rig{
		w:    netsim.NewWorld(3),
		frag: make(map[string]*frag.Layer),
		pfi:  make(map[string]*core.Layer),
		got:  make(map[string][][]byte),
	}
	for _, name := range []string{"a", "b"} {
		node := r.w.MustAddNode(name)
		fl, err := frag.NewLayer(node.Env(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		pl := core.NewLayer(node.Env())
		s := stack.New(node.Env(), fl, pl)
		s.OnDeliver(func(m *message.Message) error {
			r.got[name] = append(r.got[name], m.CopyBytes())
			return nil
		})
		node.SetStack(s)
		r.frag[name] = fl
		r.pfi[name] = pl
	}
	if err := r.w.Connect("a", "b", netsim.LinkConfig{Latency: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	return r
}

func (r *rig) send(t *testing.T, from, to string, payload []byte) {
	t.Helper()
	m := message.New(payload)
	m.SetDst(to)
	node, _ := r.w.Node(from)
	if err := node.Stack().Send(m); err != nil {
		t.Fatal(err)
	}
}

func TestSmallMessageSingleFragment(t *testing.T) {
	r := newRig(t)
	r.send(t, "a", "b", []byte("small"))
	r.w.Run()
	if len(r.got["b"]) != 1 || string(r.got["b"][0]) != "small" {
		t.Fatalf("b got %q", r.got["b"])
	}
	if st := r.frag["a"].Stats(); st.FragmentsSent != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestLargeMessageFragmentsAndReassembles(t *testing.T) {
	r := newRig(t, frag.WithMTU(108))                 // 100-byte chunks
	payload := bytes.Repeat([]byte("0123456789"), 55) // 550 bytes -> 6 fragments
	r.send(t, "a", "b", payload)
	r.w.Run()
	if len(r.got["b"]) != 1 || !bytes.Equal(r.got["b"][0], payload) {
		t.Fatalf("b got %d messages, first %d bytes", len(r.got["b"]), len(r.got["b"][0]))
	}
	if st := r.frag["a"].Stats(); st.FragmentsSent != 6 {
		t.Fatalf("fragments sent = %d, want 6", st.FragmentsSent)
	}
	if st := r.frag["b"].Stats(); st.Reassembled != 1 || st.FragmentsRecv != 6 {
		t.Fatalf("receiver stats %+v", st)
	}
}

func TestEmptyMessage(t *testing.T) {
	r := newRig(t)
	r.send(t, "a", "b", nil)
	r.w.Run()
	if len(r.got["b"]) != 1 || len(r.got["b"][0]) != 0 {
		t.Fatalf("b got %v", r.got["b"])
	}
}

func TestDroppedFragmentLosesMessageThenTimesOut(t *testing.T) {
	r := newRig(t, frag.WithMTU(108), frag.WithReassemblyTimeout(5*time.Second))
	// PFI below frag on the sender: drop exactly the third fragment.
	if err := r.pfi["a"].SetSendScript(`
		if {![info exists n]} { set n 0 }
		incr n
		if {$n == 3} { xDrop cur_msg }
	`); err != nil {
		t.Fatal(err)
	}
	r.send(t, "a", "b", bytes.Repeat([]byte("x"), 500))
	r.w.RunFor(time.Second)
	if len(r.got["b"]) != 0 {
		t.Fatal("message delivered despite a lost fragment")
	}
	if r.frag["b"].PendingReassemblies() != 1 {
		t.Fatalf("pending = %d, want 1", r.frag["b"].PendingReassemblies())
	}
	r.w.RunFor(10 * time.Second)
	if r.frag["b"].PendingReassemblies() != 0 {
		t.Fatal("incomplete reassembly never timed out")
	}
	if st := r.frag["b"].Stats(); st.TimedOut != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestReorderedFragmentsStillReassemble(t *testing.T) {
	r := newRig(t, frag.WithMTU(108))
	// Hold all fragments, release newest-first: complete reversal.
	if err := r.pfi["a"].SetSendScript(`
		xHold cur_msg
		if {[held_count] == 5} { xReleaseLIFO }
	`); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("abcde"), 100) // 500 bytes -> 5 fragments
	r.send(t, "a", "b", payload)
	r.w.Run()
	if len(r.got["b"]) != 1 || !bytes.Equal(r.got["b"][0], payload) {
		t.Fatal("reversed fragments did not reassemble correctly")
	}
}

func TestDuplicateFragmentsIgnored(t *testing.T) {
	r := newRig(t, frag.WithMTU(108))
	if err := r.pfi["a"].SetSendScript(`xDuplicate cur_msg 1`); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("z"), 300) // 3 fragments, each doubled
	r.send(t, "a", "b", payload)
	r.w.Run()
	if len(r.got["b"]) != 1 || !bytes.Equal(r.got["b"][0], payload) {
		t.Fatal("duplicated fragments corrupted reassembly")
	}
	if st := r.frag["b"].Stats(); st.Duplicates == 0 {
		t.Fatalf("stats %+v, want duplicates counted", st)
	}
}

func TestInterleavedMessages(t *testing.T) {
	r := newRig(t, frag.WithMTU(108))
	// Delay odd fragments so two messages' fragments interleave on the wire.
	if err := r.pfi["a"].SetSendScript(`
		if {![info exists n]} { set n 0 }
		incr n
		if {$n % 2} { xDelay cur_msg 10 }
	`); err != nil {
		t.Fatal(err)
	}
	m1 := bytes.Repeat([]byte("1"), 400)
	m2 := bytes.Repeat([]byte("2"), 400)
	r.send(t, "a", "b", m1)
	r.send(t, "a", "b", m2)
	r.w.Run()
	if len(r.got["b"]) != 2 {
		t.Fatalf("b got %d messages, want 2", len(r.got["b"]))
	}
	ok1 := bytes.Equal(r.got["b"][0], m1) || bytes.Equal(r.got["b"][1], m1)
	ok2 := bytes.Equal(r.got["b"][0], m2) || bytes.Equal(r.got["b"][1], m2)
	if !ok1 || !ok2 {
		t.Fatal("interleaved messages mixed up")
	}
}

func TestMalformedFragmentDropped(t *testing.T) {
	r := newRig(t)
	node, _ := r.w.Node("b")
	// Deliver garbage straight to the bottom of b's stack.
	if err := node.Stack().Deliver(message.New([]byte{1, 2, 3})); err != nil {
		t.Fatal(err)
	}
	// A fragment with index >= count.
	bad := message.New([]byte{0, 0, 0, 1, 0, 9, 0, 2, 'x'})
	if err := node.Stack().Deliver(bad); err != nil {
		t.Fatal(err)
	}
	if len(r.got["b"]) != 0 {
		t.Fatal("malformed fragments delivered")
	}
}

func TestConfigValidation(t *testing.T) {
	w := netsim.NewWorld(1)
	node := w.MustAddNode("x")
	if _, err := frag.NewLayer(node.Env(), frag.WithMTU(4)); err == nil {
		t.Error("tiny MTU accepted")
	}
	if _, err := frag.NewLayer(node.Env(), frag.WithReassemblyTimeout(0)); err == nil {
		t.Error("zero timeout accepted")
	}
}

// Property: any payload round-trips through fragmentation at any viable
// MTU, even with fragments fully reversed in flight.
func TestPropertyRoundTrip(t *testing.T) {
	f := func(payload []byte, mtuSeed uint8) bool {
		mtu := frag.HeaderLen + 1 + int(mtuSeed)%128
		r := newRig(t, frag.WithMTU(mtu))
		r.send(t, "a", "b", payload)
		r.w.Run()
		if len(r.got["b"]) != 1 {
			return false
		}
		got := r.got["b"][0]
		if payload == nil {
			return len(got) == 0
		}
		return bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFragmentReassemble(b *testing.B) {
	w := netsim.NewWorld(1)
	node := w.MustAddNode("a")
	peer := w.MustAddNode("b")
	fa, err := frag.NewLayer(node.Env())
	if err != nil {
		b.Fatal(err)
	}
	fb, err := frag.NewLayer(peer.Env())
	if err != nil {
		b.Fatal(err)
	}
	sa := stack.New(node.Env(), fa)
	sb := stack.New(peer.Env(), fb)
	node.SetStack(sa)
	peer.SetStack(sb)
	delivered := 0
	sb.OnDeliver(func(m *message.Message) error { delivered++; return nil })
	if err := w.Connect("a", "b", netsim.LinkConfig{}); err != nil {
		b.Fatal(err)
	}
	payload := bytes.Repeat([]byte("x"), 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := message.New(payload)
		m.SetDst("b")
		if err := sa.Send(m); err != nil {
			b.Fatal(err)
		}
		w.Run()
	}
	if delivered != b.N {
		b.Fatalf("delivered %d of %d", delivered, b.N)
	}
}
