package core

import (
	"pfi/internal/message"
	"pfi/internal/stack"
)

// Driver is the layer the paper places ABOVE the target protocol, the one
// that "is responsible for generating messages and running the test". The
// test itself is a conformance scenario (world, tcp_send, inject, run,
// expect); a Driver is only the top of a stack that Go code sends through.
// What reaches it from below is swallowed.
type Driver struct {
	base stack.Base
}

var _ stack.Layer = (*Driver)(nil)

// NewDriver builds a driver layer for a node's stack. It takes the node's
// Env like every other layer, and needs nothing from it.
func NewDriver(*stack.Env) *Driver {
	return &Driver{base: stack.NewBase("driver")}
}

// Name implements stack.Layer.
func (d *Driver) Name() string { return d.base.Name() }

// Wire implements stack.Layer.
func (d *Driver) Wire(down, up stack.Sink) { d.base.Wire(down, up) }

// HandleDown implements stack.Layer: the driver is the top of the stack,
// so a message sent from above passes straight through.
func (d *Driver) HandleDown(m *message.Message) error { return d.base.Down(m) }

// HandleUp implements stack.Layer: inbound messages that cleared the
// target protocol end here. The driver keeps nothing, so the wire may
// reuse the message once the hop returns.
func (d *Driver) HandleUp(*message.Message) error { return nil }

// Send pushes payload down to the target protocol, optionally addressed to
// a destination node (for connectionless targets).
func (d *Driver) Send(payload []byte, dst string) error {
	m := message.New(payload)
	m.SetDst(dst)
	return d.base.Down(m)
}
