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

// ship transmits one protocol message onto the simulated network.
func (l *Layer) ship(dst string, m Msg) {
	sm := m.Encode()
	sm.SetDst(dst)
	if err := l.base.Down(sm); err != nil {
		l.node.logEvent("send-error", m.TypeName(), 0, err.Error())
	}
}

// Name implements stack.Layer.
func (l *Layer) Name() string { return "raft" }

// Wire implements stack.Layer.
func (l *Layer) Wire(down, up stack.Sink) { l.base.Wire(down, up) }

// HandleDown implements stack.Layer. Nothing sits above raft; anything
// injected at the top passes through untouched.
func (l *Layer) HandleDown(m *message.Message) error { return l.base.Down(m) }

// HandleUp implements stack.Layer: frame arrival from the network.
func (l *Layer) HandleUp(sm *message.Message) error {
	m, err := decode(sm.Bytes(), sm.Src(), l.node.peers)
	if err != nil {
		// Corrupted in flight (or by a fault filter): checksummed transports
		// turn corruption into loss, and raft tolerates loss.
		if l.node.started && !l.node.suspended {
			l.node.logEvent("decode-drop", "", 0, err.Error())
		}
		return nil
	}
	l.node.Handle(&m)
	return nil
}

var _ stack.Layer = (*Layer)(nil)
