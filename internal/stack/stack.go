// Package stack provides the x-Kernel-style layered protocol stack that the
// PFI technique interposes on.
//
// A Stack is an ordered list of Layers, wired once by New. Messages travel
// DOWN the stack when sent and UP when received; each layer frames or
// unframes its own protocol on the way. The PFI layer from the paper is just
// another Layer, listed between two consecutive layers — typically directly
// below the target protocol — where it can observe and manipulate everything
// the target sends and receives.
package stack

import (
	"fmt"

	"pfi/internal/message"
	"pfi/internal/simtime"
)

// Sink consumes a message travelling in one direction. It is bound by the
// same ownership rule as a Layer.
type Sink func(m *message.Message) error

// Layer is one protocol layer. Implementations receive both directions of
// traffic and forward (possibly transformed, delayed, duplicated, or not at
// all) via the sinks provided in Wire.
//
// Who owns a message: whoever was handed it, until that call returns. A
// layer may read it, change it, pass it on or drop it; once HandleUp or
// HandleDown has returned, the message is no longer the layer's — the
// simulated wire reuses a delivered message for a later frame as soon as
// the receiving stack has returned. A layer that holds on to the *Message,
// or to a slice of its Bytes (a decoded payload that aliases them), beyond
// its own return — a hold queue, a delayed forward, a reassembly buffer, a
// receive log — calls m.Keep() first, or copies what it needs. A message a
// layer has passed down is the wire's: send a Clone to send it twice.
type Layer interface {
	// Name identifies the layer in traces.
	Name() string
	// HandleDown processes a message moving toward the network.
	HandleDown(m *message.Message) error
	// HandleUp processes a message moving toward the application.
	HandleUp(m *message.Message) error
	// Wire hands the layer its continuation in each direction: down is the
	// entry point of the layer below, up the entry point of the layer above.
	Wire(down, up Sink)
}

// Env carries per-node context every layer needs: the virtual clock and the
// node's name. One Env is shared by all layers of a node's stack.
type Env struct {
	Sched *simtime.Scheduler
	Node  string
}

// Now returns the current virtual time.
func (e *Env) Now() simtime.Time { return e.Sched.Now() }

// Stack composes layers. layers[0] is the top (application side);
// layers[len-1] is the bottom (network side).
type Stack struct {
	layers []Layer
	top    Sink // receives fully-popped inbound messages (application)
	bottom Sink // receives fully-pushed outbound messages (network)
}

// New wires the given layers into a stack. Top and bottom sinks default to
// discarding; set them with OnDeliver and OnTransmit. env is the one the
// layers were built with.
func New(env *Env, layers ...Layer) *Stack {
	if env == nil {
		panic("stack: nil env")
	}
	s := &Stack{layers: layers}
	for i, l := range s.layers {
		var down, up Sink
		if i+1 < len(s.layers) {
			next := s.layers[i+1]
			down = next.HandleDown
		} else {
			down = func(m *message.Message) error {
				if s.bottom == nil {
					return discard(m)
				}
				return s.bottom(m)
			}
		}
		if i > 0 {
			prev := s.layers[i-1]
			up = prev.HandleUp
		} else {
			up = func(m *message.Message) error {
				if s.top == nil {
					return discard(m)
				}
				return s.top(m)
			}
		}
		l.Wire(down, up)
	}
	return s
}

func discard(*message.Message) error { return nil }

// OnDeliver registers the application-side sink for inbound messages that
// clear the whole stack.
func (s *Stack) OnDeliver(fn Sink) { s.top = fn }

// OnTransmit registers the network-side sink for outbound messages that
// clear the whole stack.
func (s *Stack) OnTransmit(fn Sink) { s.bottom = fn }

// Send injects m at the top of the stack (an application send).
func (s *Stack) Send(m *message.Message) error {
	if len(s.layers) == 0 {
		if s.bottom == nil {
			return nil
		}
		return s.bottom(m)
	}
	return s.layers[0].HandleDown(m)
}

// Deliver injects m at the bottom of the stack (a network receive).
func (s *Stack) Deliver(m *message.Message) error {
	if len(s.layers) == 0 {
		if s.top == nil {
			return nil
		}
		return s.top(m)
	}
	return s.layers[len(s.layers)-1].HandleUp(m)
}

// Base is a pass-through Layer meant for embedding-free reuse: concrete
// layers hold a Base by value and forward via Down/Up. Base's own handler
// methods make it a usable no-op layer on its own.
type Base struct {
	name string
	down Sink
	up   Sink
}

// NewBase returns a pass-through layer with the given name.
func NewBase(name string) Base { return Base{name: name} }

// Name implements Layer.
func (b *Base) Name() string { return b.name }

// Wire implements Layer.
func (b *Base) Wire(down, up Sink) {
	b.down = down
	b.up = up
}

// Down forwards m to the layer below.
func (b *Base) Down(m *message.Message) error {
	if b.down == nil {
		return fmt.Errorf("stack: layer %q not wired (down)", b.name)
	}
	return b.down(m)
}

// Up forwards m to the layer above.
func (b *Base) Up(m *message.Message) error {
	if b.up == nil {
		return fmt.Errorf("stack: layer %q not wired (up)", b.name)
	}
	return b.up(m)
}

// HandleDown implements Layer as a pass-through.
func (b *Base) HandleDown(m *message.Message) error { return b.Down(m) }

// HandleUp implements Layer as a pass-through.
func (b *Base) HandleUp(m *message.Message) error { return b.Up(m) }

var _ Layer = (*Base)(nil)

// Func adapts a pair of functions into a Layer, for tests and small adapters.
type Func struct {
	Base
	OnDown func(m *message.Message, next Sink) error
	OnUp   func(m *message.Message, next Sink) error
}

// NewFunc builds a function-backed layer. Nil callbacks pass through.
func NewFunc(name string, onDown, onUp func(m *message.Message, next Sink) error) *Func {
	return &Func{Base: NewBase(name), OnDown: onDown, OnUp: onUp}
}

// HandleDown implements Layer.
func (f *Func) HandleDown(m *message.Message) error {
	if f.OnDown == nil {
		return f.Down(m)
	}
	return f.OnDown(m, f.Down)
}

// HandleUp implements Layer.
func (f *Func) HandleUp(m *message.Message) error {
	if f.OnUp == nil {
		return f.Up(m)
	}
	return f.OnUp(m, f.Up)
}

var _ Layer = (*Func)(nil)
