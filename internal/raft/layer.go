package raft

import (
	"pfi/internal/message"
	"pfi/internal/stack"
)

// Layer adapts a Node to the protocol stack: outbound messages are encoded
// and pushed down (through any PFI layer spliced below), inbound frames are
// decoded and dispatched to the node. Raft rides directly on the unreliable
// datagram world — the protocol's own retries and elections are its
// reliability story, so there is no rudp underneath.
type Layer struct {
	base stack.Base
	env  *stack.Env
	node *Node
	in   Msg // the frame being handled, decoded in place
	// depth counts the HandleUp calls running on this layer: more than one
	// when a filter below answers a send with a frame injected up while a
	// handler is still running.
	depth int
}

// NewLayer builds a raft node wired to the stack. peers must list every
// node in the cluster, including env.Node.
func NewLayer(env *stack.Env, peers []string, opts ...Option) (*Layer, error) {
	l := &Layer{base: stack.NewBase("raft"), env: env}
	n, err := NewNode(env.Sched, env.Node, peers, l.ship, opts...)
	if err != nil {
		return nil, err
	}
	l.node = n
	return l, nil
}

// Node returns the consensus state machine.
func (l *Layer) Node() *Node { return l.node }

// ship encodes one protocol message into a message from the world's free
// list and transmits it onto the simulated network. m is read only before
// the frame goes down: a filter below may answer it re-entrantly, and the
// node's answer to that refills m.
func (l *Layer) ship(dst string, m *Msg) {
	typ := m.Type
	sm := m.writeTo(l.env.Msgs.Build(m.encodedLen()))
	sm.SetDst(dst)
	if err := l.base.Down(sm); err != nil {
		l.node.logEvent("send-error", TypeName(typ), 0, err.Error())
	}
}

// Name implements stack.Layer.
func (l *Layer) Name() string { return "raft" }

// Wire implements stack.Layer.
func (l *Layer) Wire(down, up stack.Sink) { l.base.Wire(down, up) }

// HandleDown implements stack.Layer. Nothing sits above raft; anything
// injected at the top passes through untouched.
func (l *Layer) HandleDown(m *message.Message) error { return l.base.Down(m) }

// HandleUp implements stack.Layer: frame arrival from the network. The
// frame is decoded once, into the layer's own Msg (its Entries storage
// reused), and the node reads it there. A frame that arrives while a
// handler is still running — a filter below answered that handler's send
// with a frame injected up — is decoded into a Msg of its own, so the
// outer handler's message stays as it was.
func (l *Layer) HandleUp(sm *message.Message) error {
	m := &l.in
	if l.depth > 0 {
		m = new(Msg)
	}
	if err := m.decode(sm.Bytes(), sm.Src(), l.node.peers); err != nil {
		// Corrupted in flight (or by a fault filter): checksummed transports
		// turn corruption into loss, and raft tolerates loss.
		if l.node.started && !l.node.suspended {
			l.node.logEvent("decode-drop", "", 0, err.Error())
		}
		return nil
	}
	l.depth++
	l.node.Handle(m)
	l.depth--
	return nil
}

var _ stack.Layer = (*Layer)(nil)
