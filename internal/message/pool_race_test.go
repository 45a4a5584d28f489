//go:build race

package message_test

import (
	"bytes"
	"testing"
	"time"

	"pfi/internal/message"
	"pfi/internal/netsim"
	"pfi/internal/stack"
)

// TestPoisonIsWhatAForgetfulLayerReads builds the bug the race build's
// poison exists to expose: two receiving layers hold on to the messages the
// wire hands them, one calling Keep as the stack.Layer contract asks and one
// not. When the hop is over the forgetful layer's message is 0xDB from end to
// end with no ID and no addressing — a decode error, not a plausible frame
// from some later hop — and the careful layer's is what arrived.
func TestPoisonIsWhatAForgetfulLayerReads(t *testing.T) {
	w := netsim.NewWorld(1)
	var forgot, kept []*message.Message
	hoard := func(into *[]*message.Message, keep bool) *stack.Func {
		return stack.NewFunc("hoard", nil, func(m *message.Message, next stack.Sink) error {
			if keep {
				m.Keep()
			}
			*into = append(*into, m)
			return next(m)
		})
	}
	a, b, c := w.MustAddNode("a"), w.MustAddNode("b"), w.MustAddNode("c")
	sa := stack.New(a.Env())
	a.SetStack(sa)
	b.SetStack(stack.New(b.Env(), hoard(&forgot, false)))
	c.SetStack(stack.New(c.Env(), hoard(&kept, true)))
	if err := w.ConnectAll(netsim.LinkConfig{Latency: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	frames := [][]byte{[]byte("short frame"), bytes.Repeat([]byte("long frame "), 2*message.InlineCap)}
	for _, frame := range frames {
		for _, dst := range []string{"b", "c"} {
			m := message.New(frame)
			m.SetDst(dst)
			if err := sa.Send(m); err != nil {
				t.Fatal(err)
			}
		}
	}
	w.Run()
	if len(forgot) != len(frames) || len(kept) != len(frames) {
		t.Fatalf("%d and %d messages arrived, want %d each", len(forgot), len(kept), len(frames))
	}
	for i, frame := range frames {
		m := forgot[i]
		if m.Src() != "" || m.Dst() != "" ||
			!bytes.Equal(m.Bytes(), bytes.Repeat([]byte{0xDB}, len(frame))) {
			t.Errorf("retained without Keep, read back %v from %q to %q: not the poison", m, m.Src(), m.Dst())
		}
		m = kept[i]
		if m.Src() != "a" || m.Dst() != "c" || !bytes.Equal(m.Bytes(), frame) {
			t.Errorf("retained with Keep, read back %v from %q to %q: not what arrived", m, m.Src(), m.Dst())
		}
	}
}
