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

// switchable is a tagging layer that reports itself passive in the
// directions its flags say, and counts the messages that enter it.
type switchable struct {
	*Func
	passiveDown, passiveUp bool
	downs, ups             int
}

func newSwitchable(tag string, down, up bool) *switchable {
	s := &switchable{passiveDown: down, passiveUp: up}
	h := headerLayer(tag)
	s.Func = NewFunc(tag,
		func(m *message.Message, next Sink) error { s.downs++; return h.OnDown(m, next) },
		func(m *message.Message, next Sink) error { s.ups++; return h.OnUp(m, next) })
	return s
}

func (s *switchable) Passive() (down, up bool) { return s.passiveDown, s.passiveUp }

// roundTrip sends "x" down and delivers the frame the send produced back
// up, returning the frame and what the application received.
func roundTrip(t *testing.T, s *Stack) (wire, app string) {
	t.Helper()
	s.OnTransmit(func(m *message.Message) error { wire = string(m.CopyBytes()); return nil })
	s.OnDeliver(func(m *message.Message) error { app = string(m.CopyBytes()); return nil })
	if err := s.Send(message.New([]byte("x"))); err != nil {
		t.Fatal(err)
	}
	if err := s.Deliver(message.New([]byte(wire))); err != nil {
		t.Fatal(err)
	}
	return wire, app
}

// TestPassiveMiddleLayerIsSkippedBothWays: a middle layer passive in both
// directions is entered by neither, and its neighbours frame and unframe
// as if it were not listed. Its own sinks still reach them.
func TestPassiveMiddleLayerIsSkippedBothWays(t *testing.T) {
	mid := newSwitchable("mm", true, true)
	s := New(newEnv(), headerLayer("aa"), mid, headerLayer("cc"))
	if wire, app := roundTrip(t, s); wire != "xaacc" || app != "x" {
		t.Fatalf("wire %q, app %q; want xaacc, x", wire, app)
	}
	if mid.downs != 0 || mid.ups != 0 {
		t.Fatalf("passive layer entered %d times down, %d up", mid.downs, mid.ups)
	}
	// A direct call, as an injector makes, still leads to the neighbours.
	var wire, app string
	s.OnTransmit(func(m *message.Message) error { wire = string(m.CopyBytes()); return nil })
	s.OnDeliver(func(m *message.Message) error { app = string(m.CopyBytes()); return nil })
	if err := mid.HandleDown(message.New([]byte("y"))); err != nil || wire != "ymmcc" {
		t.Fatalf("direct HandleDown reached the wire as %q (%v), want ymmcc", wire, err)
	}
	if err := mid.HandleUp(message.New([]byte("zaamm"))); err != nil || app != "z" {
		t.Fatalf("direct HandleUp reached the app as %q (%v), want z", app, err)
	}
}

// TestPassiveOneWayIsSkippedOneWay: a layer passive going down only is
// skipped on the way down and entered on the way up, and the reverse.
func TestPassiveOneWayIsSkippedOneWay(t *testing.T) {
	for _, tc := range []struct {
		down, up   bool
		wire       string
		downs, ups int
	}{
		{down: true, wire: "xaacc", ups: 1},
		{up: true, wire: "xaammcc", downs: 1},
	} {
		mid := newSwitchable("mm", tc.down, tc.up)
		s := New(newEnv(), headerLayer("aa"), mid, headerLayer("cc"))
		var wire string
		s.OnTransmit(func(m *message.Message) error { wire = string(m.CopyBytes()); return nil })
		if err := s.Send(message.New([]byte("x"))); err != nil {
			t.Fatal(err)
		}
		if wire != tc.wire {
			t.Fatalf("passive %v/%v: wire %q, want %q", tc.down, tc.up, wire, tc.wire)
		}
		// Deliver a frame the layer would unframe only if it is entered.
		frame := "xaacc"
		if tc.ups > 0 {
			frame = "xaammcc"
		}
		var app string
		s.OnDeliver(func(m *message.Message) error { app = string(m.CopyBytes()); return nil })
		if err := s.Deliver(message.New([]byte(frame))); err != nil || app != "x" {
			t.Fatalf("passive %v/%v: app got %q (%v), want x", tc.down, tc.up, app, err)
		}
		if mid.downs != tc.downs || mid.ups != tc.ups {
			t.Fatalf("passive %v/%v: entered %d down, %d up; want %d, %d",
				tc.down, tc.up, mid.downs, mid.ups, tc.downs, tc.ups)
		}
	}
}

// TestSendAndDeliverEnterPastPassiveEnds: when the top layer is passive
// going down, Send enters at the next one; when the bottom layer is passive
// going up, Deliver enters at the one above it. A stack of passive layers
// only connects its two boundaries. Env.Rewire puts a layer that turns
// active back on the path.
func TestSendAndDeliverEnterPastPassiveEnds(t *testing.T) {
	env := newEnv()
	top, bot := newSwitchable("tt", true, true), newSwitchable("bb", true, true)
	s := New(env, top, headerLayer("mm"), bot)
	if wire, app := roundTrip(t, s); wire != "xmm" || app != "x" {
		t.Fatalf("wire %q, app %q; want xmm, x", wire, app)
	}
	if top.downs+top.ups+bot.downs+bot.ups != 0 {
		t.Fatal("a passive end layer was entered")
	}

	top.passiveDown, bot.passiveUp = false, false
	env.Rewire()
	s.OnTransmit(func(m *message.Message) error { return nil })
	if err := s.Send(message.New([]byte("x"))); err != nil || top.downs != 1 {
		t.Fatalf("after the rewire Send entered the top layer %d times (%v), want 1", top.downs, err)
	}
	if err := s.Deliver(message.New([]byte("xttmmbb"))); err != nil || bot.ups != 1 {
		t.Fatalf("after the rewire Deliver entered the bottom layer %d times (%v), want 1", bot.ups, err)
	}

	only := New(newEnv(), newSwitchable("p", true, true))
	if wire, app := roundTrip(t, only); wire != "x" || app != "x" {
		t.Fatalf("all-passive stack: wire %q, app %q; want x, x", wire, app)
	}
}
