package stack

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"pfi/internal/message"
	"pfi/internal/simtime"
)

func newEnv() *Env {
	return &Env{Sched: simtime.NewScheduler(), Node: "test"}
}

// headerLayer appends its tag going down and checks and strips it going up,
// so the outermost tag on the wire is the bottom layer's.
func headerLayer(tag string) *Func {
	return NewFunc(tag,
		func(m *message.Message, next Sink) error {
			return next(message.New(append(m.CopyBytes(), tag...)))
		},
		func(m *message.Message, next Sink) error {
			b := m.Bytes()
			if !strings.HasSuffix(string(b), tag) {
				return fmt.Errorf("layer %s saw frame %q", tag, b)
			}
			return next(message.New(b[:len(b)-len(tag)]))
		})
}

func TestSendPushesHeadersTopToBottom(t *testing.T) {
	s := New(newEnv(), headerLayer("aa"), headerLayer("bb"), headerLayer("cc"))
	var wire []byte
	s.OnTransmit(func(m *message.Message) error {
		wire = m.CopyBytes()
		return nil
	})
	if err := s.Send(message.New([]byte("data"))); err != nil {
		t.Fatal(err)
	}
	if string(wire) != "dataaabbcc" {
		t.Fatalf("wire = %q, want dataaabbcc", wire)
	}
}

func TestDeliverPopsHeadersBottomToTop(t *testing.T) {
	s := New(newEnv(), headerLayer("aa"), headerLayer("bb"))
	var appData []byte
	s.OnDeliver(func(m *message.Message) error {
		appData = m.CopyBytes()
		return nil
	})
	if err := s.Deliver(message.New([]byte("payloadaabb"))); err != nil {
		t.Fatal(err)
	}
	if string(appData) != "payload" {
		t.Fatalf("app saw %q, want payload", appData)
	}
}

func TestRoundTripThroughTwoStacks(t *testing.T) {
	mk := func() *Stack {
		return New(newEnv(), headerLayer("t1"), headerLayer("t2"), headerLayer("t3"))
	}
	a, b := mk(), mk()
	var got []byte
	a.OnTransmit(func(m *message.Message) error { return b.Deliver(m) })
	b.OnDeliver(func(m *message.Message) error {
		got = m.CopyBytes()
		return nil
	})
	if err := a.Send(message.New([]byte("hello"))); err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Fatalf("peer app got %q, want hello", got)
	}
}

// TestMiddleLayerInterposes: a layer placed between two others — where a
// PFI layer sits below its target — sees the upper layer's framing but not
// the lower one's, in both directions.
func TestMiddleLayerInterposes(t *testing.T) {
	var seen []string
	spy := NewFunc("pfi",
		func(m *message.Message, next Sink) error {
			seen = append(seen, "down:"+string(m.CopyBytes()))
			return next(m)
		},
		func(m *message.Message, next Sink) error {
			seen = append(seen, "up:"+string(m.CopyBytes()))
			return next(m)
		})
	s := New(newEnv(), headerLayer("app1"), spy, headerLayer("net1"))
	if err := s.Send(message.New([]byte("x"))); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 || seen[0] != "down:xapp1" {
		t.Fatalf("pfi observed %v, want [down:xapp1]", seen)
	}
	if err := s.Deliver(message.New([]byte("yapp1net1"))); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 || seen[1] != "up:yapp1" {
		t.Fatalf("pfi observed %v, want up:yapp1 second", seen)
	}
}

func TestLayerCanDropMessage(t *testing.T) {
	transmitted := 0
	dropper := NewFunc("drop-evens", func(m *message.Message, next Sink) error {
		b, _ := m.ByteAt(0)
		if b%2 == 0 {
			return nil // swallow: the essence of fault injection
		}
		return next(m)
	}, nil)
	s := New(newEnv(), dropper)
	s.OnTransmit(func(m *message.Message) error {
		transmitted++
		return nil
	})
	for i := byte(0); i < 10; i++ {
		if err := s.Send(message.New([]byte{i})); err != nil {
			t.Fatal(err)
		}
	}
	if transmitted != 5 {
		t.Fatalf("transmitted %d, want 5", transmitted)
	}
}

func TestErrorsPropagate(t *testing.T) {
	boom := errors.New("boom")
	bad := NewFunc("bad", func(m *message.Message, next Sink) error { return boom }, nil)
	s := New(newEnv(), headerLayer("top"), bad)
	if err := s.Send(message.New([]byte("x"))); !errors.Is(err, boom) {
		t.Fatalf("Send error = %v, want boom", err)
	}
}

func TestEmptyStackPassesThrough(t *testing.T) {
	s := New(newEnv())
	sent, delivered := false, false
	s.OnTransmit(func(m *message.Message) error { sent = true; return nil })
	s.OnDeliver(func(m *message.Message) error { delivered = true; return nil })
	if err := s.Send(message.New(nil)); err != nil || !sent {
		t.Fatalf("empty stack send: %v sent=%v", err, sent)
	}
	if err := s.Deliver(message.New(nil)); err != nil || !delivered {
		t.Fatalf("empty stack deliver: %v delivered=%v", err, delivered)
	}
}

func TestUnsetSinksDiscard(t *testing.T) {
	s := New(newEnv(), headerLayer("l"))
	if err := s.Send(message.New([]byte("x"))); err != nil {
		t.Fatalf("Send with no transmit sink: %v", err)
	}
	if err := s.Deliver(message.New([]byte("xl"))); err != nil {
		t.Fatalf("Deliver with no deliver sink: %v", err)
	}
}

func TestUnwiredBaseErrors(t *testing.T) {
	b := NewBase("lonely")
	if err := b.Down(message.New(nil)); err == nil {
		t.Fatal("unwired Down succeeded")
	}
	if err := b.Up(message.New(nil)); err == nil {
		t.Fatal("unwired Up succeeded")
	}
}
