package tcp

import (
	"fmt"

	"pfi/internal/message"
	"pfi/internal/simtime"
	"pfi/internal/stack"
	"pfi/internal/trace"
)

// Layer is a TCP protocol layer: it demultiplexes incoming segments to
// connections and ships outgoing segments toward the network. It
// implements stack.Layer so a PFI layer can be spliced directly below it,
// exactly where the paper put its fault injector ("directly between the
// TCP layer and the IP layer").
type Layer struct {
	base      stack.Base
	env       *stack.Env
	prof      Profile
	conns     map[connKey]*Conn
	listeners map[uint16]bool
	acceptFns map[uint16]func(*Conn)
	iss       uint32
	ephemeral uint16
	log       *trace.Log
	delack    *simtime.Lane // DelackTimeout's lane, which every delayed ACK rides
}

var _ stack.Layer = (*Layer)(nil)

type connKey struct {
	localPort  uint16
	remoteNode string
	remotePort uint16
}

// LayerOption configures a Layer.
type LayerOption func(*Layer)

// WithTrace mirrors connection events (retransmit, keepalive, zwp, reset,
// close) into lg.
func WithTrace(lg *trace.Log) LayerOption {
	return func(l *Layer) { l.log = lg }
}

// NewLayer builds a TCP layer with the given vendor behaviour profile.
func NewLayer(env *stack.Env, prof Profile, opts ...LayerOption) *Layer {
	l := &Layer{
		base:      stack.NewBase("tcp"),
		env:       env,
		prof:      prof,
		conns:     make(map[connKey]*Conn),
		listeners: make(map[uint16]bool),
		acceptFns: make(map[uint16]func(*Conn)),
		iss:       1000,
		ephemeral: 32768,
		delack:    env.Sched.Lane(DelackTimeout),
	}
	for _, opt := range opts {
		opt(l)
	}
	return l
}

// Name implements stack.Layer.
func (l *Layer) Name() string { return "tcp" }

// Wire implements stack.Layer.
func (l *Layer) Wire(down, up stack.Sink) { l.base.Wire(down, up) }

// HandleDown implements stack.Layer. Applications interact with TCP through
// the Conn API rather than by pushing raw messages, so this path rejects
// traffic loudly instead of corrupting a connection.
func (l *Layer) HandleDown(m *message.Message) error {
	return fmt.Errorf("tcp: push app data through Conn.Send, not the raw stack")
}

// HandleUp implements stack.Layer: segment arrival from the network.
func (l *Layer) HandleUp(m *message.Message) error {
	seg, err := Decode(m)
	if err != nil {
		return nil // garbage on the wire is dropped, not fatal
	}
	// seg.Payload is a slice of m, which the wire reuses once this returns:
	// OnData lends it for its call only, and whatever TCP keeps of it —
	// the receive buffer, the out-of-order queue — it copies.
	srcNode := m.Src()
	if srcNode == "" {
		return fmt.Errorf("tcp: segment without source node")
	}
	key := connKey{localPort: seg.DstPort, remoteNode: srcNode, remotePort: seg.SrcPort}
	if c, ok := l.conns[key]; ok {
		c.handleSegment(&seg)
		return nil
	}
	if l.listeners[seg.DstPort] && seg.Has(FlagSYN) && !seg.Has(FlagACK) {
		l.accept(srcNode, &seg)
		return nil
	}
	// Segment to a closed port: answer with RST (unless it is itself one).
	// This is what lets a rebooted receiver kill a zero-window prober.
	if !seg.Has(FlagRST) {
		l.transmit(srcNode, Segment{
			SrcPort: seg.DstPort,
			DstPort: seg.SrcPort,
			Seq:     seg.Ack,
			Ack:     seg.Seq + seg.SeqSpace(),
			Flags:   FlagRST | FlagACK,
		})
	}
	return nil
}

// accept handles a SYN to a listening port.
func (l *Layer) accept(srcNode string, syn *Segment) {
	c := l.newConn(StateSynRcvd, syn.DstPort, srcNode, syn.SrcPort)
	c.irs = syn.Seq
	c.rcvNxt = syn.Seq + 1
	c.sndWnd = int(syn.Window)
	l.conns[c.key()] = c
	// SYN-ACK occupies one sequence slot and is retransmitted until acked.
	c.sendControl(FlagSYN|FlagACK, true)
}

func (c *Conn) key() connKey {
	return connKey{localPort: c.localPort, remoteNode: c.remoteNode, remotePort: c.remotePort}
}

// Listen opens a passive port; accept runs when a connection establishes.
func (l *Layer) Listen(port uint16, accept func(*Conn)) error {
	if l.listeners[port] {
		return fmt.Errorf("tcp: port %d already listening", port)
	}
	l.listeners[port] = true
	l.acceptFns[port] = accept
	return nil
}

// Connect starts an active open to remoteNode:remotePort and returns the
// connection in SYN-SENT; register OnEstablished to learn when it is up.
func (l *Layer) Connect(remoteNode string, remotePort uint16) (*Conn, error) {
	local := l.nextEphemeral()
	c := l.newConn(StateSynSent, local, remoteNode, remotePort)
	l.conns[c.key()] = c
	c.sendControl(FlagSYN, true)
	return c, nil
}

func (l *Layer) nextISS() uint32 {
	l.iss += 64000
	return l.iss
}

func (l *Layer) nextEphemeral() uint16 {
	l.ephemeral++
	if l.ephemeral == 0 {
		l.ephemeral = 32768
	}
	return l.ephemeral
}

// transmit encodes a segment into a message from the world's free list,
// addresses it, and pushes it down the stack (through any PFI layer spliced
// in below).
func (l *Layer) transmit(dstNode string, seg Segment) {
	m := seg.appendTo(l.env.Msgs.Build(HeaderLen + len(seg.Payload))).Message()
	m.SetDst(dstNode)
	// Transmission failures below (e.g. a filter script error) surface in
	// the experiment log; TCP itself treats the network as lossy anyway.
	if err := l.base.Down(m); err != nil && l.log != nil {
		l.log.Addf(l.env.Now(), l.env.Node, "tx-error", seg.Type(), uint64(seg.Seq), err.Error())
	}
}

func (l *Layer) forget(c *Conn) {
	delete(l.conns, c.key())
}

func (l *Layer) logEvent(c *Conn, kind string, seg *Segment) {
	if l.log == nil {
		return
	}
	l.log.Addf(l.env.Now(), l.env.Node, kind, seg.Type(), uint64(seg.Seq), seg.String())
}

func (l *Layer) logEventNote(c *Conn, kind, note string) {
	if l.log == nil {
		return
	}
	l.log.Addf(l.env.Now(), l.env.Node, kind, "", 0, note)
}
