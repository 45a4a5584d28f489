// Package rudp is the reliable communication layer the paper's GMP
// implementation ran on: UDP-style datagrams with "retransmission timers
// and sequence numbers". Reliable frames are retransmitted until
// acknowledged (bounded retries), delivered exactly once per peer; raw
// frames are fire-and-forget (GMP uses them for heartbeats).
//
// It implements stack.Layer so a PFI layer can be spliced below it — the
// paper "inserted the PFI tool into the communication interface code where
// udp send and receive calls were made".
package rudp

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strconv"
	"time"

	"pfi/internal/message"
	"pfi/internal/simtime"
	"pfi/internal/stack"
)

// Frame kinds on the wire.
const (
	KindData = 1 // reliable datagram, acked and retransmitted
	KindAck  = 2 // acknowledgment of a reliable datagram
	KindRaw  = 3 // unreliable datagram (heartbeats)
)

// HeaderLen is the frame header size: kind(1) + seq(4).
const HeaderLen = 5

// The retransmission machinery's timeout and retry bound.
const (
	DefaultRTO        = 500 * time.Millisecond
	DefaultMaxRetries = 5
)

// Frame is a decoded rudp frame.
type Frame struct {
	Kind    uint8
	Seq     uint32
	Payload []byte
}

// KindName renders the frame kind.
func (f Frame) KindName() string {
	switch f.Kind {
	case KindData:
		return "DATA"
	case KindAck:
		return "ACK"
	case KindRaw:
		return "RAW"
	default:
		return "UNKNOWN"
	}
}

// Encode serializes the frame into a message of its own that owns the
// bytes; the layer's send paths build theirs from the world's free list.
func (f Frame) Encode() *message.Message {
	return f.appendTo(message.Build(HeaderLen + len(f.Payload))).Message()
}

// appendTo writes the frame — header, then payload — into w.
func (f Frame) appendTo(w message.Writer) message.Writer {
	return w.U8(f.Kind).U32(f.Seq).Bytes(f.Payload)
}

// Decode parses a frame without consuming the message. Payload aliases the
// message's bytes: copy it to keep it beyond the message.
func Decode(m *message.Message) (Frame, error) {
	raw := m.Bytes()
	if len(raw) < HeaderLen {
		return Frame{}, fmt.Errorf("rudp: frame too short: %d bytes", len(raw))
	}
	return Frame{Kind: raw[0], Seq: binary.BigEndian.Uint32(raw[1:]), Payload: raw[HeaderLen:]}, nil
}

// IntField reads one numeric header field (seq, len) for PFI scripts.
func (f Frame) IntField(name string) (int64, bool) {
	switch name {
	case "seq":
		return int64(f.Seq), true
	case "len":
		return int64(len(f.Payload)), true
	}
	return 0, false
}

// Field renders one header field for PFI scripts (Frame is a
// core.FieldSource).
func (f Frame) Field(name string) string {
	if n, ok := f.IntField(name); ok {
		return strconv.FormatInt(n, 10)
	}
	if name == "kind" {
		return f.KindName()
	}
	return ""
}

// DeliverFunc receives an inbound datagram's payload. The slice aliases the
// delivered message; a receiver that keeps it copies it.
type DeliverFunc func(src string, payload []byte)

// pendingSend is one unacknowledged reliable frame together with its
// retransmission timer. Its payload is its own copy, so the record and its
// buffer go back to the layer's free list once the frame is acknowledged or
// given up on — unless a snapshot has seen it (pinned): a restore puts the
// same record back in its window and its event back in the scheduler, so
// it is never reused.
type pendingSend struct {
	simtime.Event
	l       *Layer
	p       *peer
	seq     uint32
	payload []byte
	retries int
	pinned  bool
}

// Fire implements simtime.Handler: the retransmission timeout.
func (ps *pendingSend) Fire() { ps.l.onRetransmit(ps) }

// frame is the DATA frame ps (re)transmits.
func (ps *pendingSend) frame() Frame { return Frame{Kind: KindData, Seq: ps.seq, Payload: ps.payload} }

// peer is one correspondent: its name, the world number its traffic
// carries, the sequence bookkeeping in each direction, and the window of
// reliable frames sent to it and not yet acknowledged.
//
// Which reliable seqs were already handed up (dedup) is a floor plus the
// exceptions above it: a sender numbers from 1 and a receiver mostly hears
// them in order, so the state stays O(1) per peer however long the run,
// instead of one entry per datagram ever delivered.
type peer struct {
	name string
	// no is the peer's world number (message.Message.SrcNo) as its last
	// DATA or ACK carried it, 0 until one arrives: the hint this layer gives
	// the network for what it sends the peer. It routes, and is no protocol
	// state, so snapshots leave it alone.
	no      uint16
	nextSeq uint32
	floor   uint32          // every seq in [1, floor] was delivered
	above   map[uint32]bool // delivered seqs outside [1, floor]; nil until one arrives
	// window holds the unacknowledged sends in seq order: each send appends
	// the next seq, and an ack or a give-up takes its frame out wherever it
	// sits.
	window []*pendingSend
}

// delivered reports whether seq was already handed up.
func (p *peer) delivered(seq uint32) bool {
	return (seq >= 1 && seq <= p.floor) || p.above[seq]
}

// markDelivered records seq, raising the floor over any run it completes.
func (p *peer) markDelivered(seq uint32) {
	if seq == 0 || seq != p.floor+1 {
		if p.above == nil {
			p.above = make(map[uint32]bool)
		}
		p.above[seq] = true
		return
	}
	p.floor = seq
	for p.floor != math.MaxUint32 && p.above[p.floor+1] {
		p.floor++
		delete(p.above, p.floor)
	}
}

// Layer is the reliable-UDP layer.
type Layer struct {
	base stack.Base
	env  *stack.Env
	// peers holds one record per correspondent, in the order they first
	// appeared. A GMP daemon talks to a handful, so a scan over names —
	// which are nearly always the very strings the records hold — finds one
	// sooner than hashing the name would.
	peers   []*peer
	free    []*pendingSend // records whose frame is acknowledged or given up
	rto     *simtime.Lane  // DefaultRTO's lane, which every retransmission timer rides
	deliver DeliverFunc
}

var _ stack.Layer = (*Layer)(nil)

// NewLayer builds a reliable-UDP layer.
func NewLayer(env *stack.Env) *Layer {
	return &Layer{
		base: stack.NewBase("rudp"),
		env:  env,
		rto:  env.Sched.Lane(DefaultRTO),
	}
}

// Name implements stack.Layer.
func (l *Layer) Name() string { return "rudp" }

// Wire implements stack.Layer.
func (l *Layer) Wire(down, up stack.Sink) { l.base.Wire(down, up) }

// OnDeliver registers the application's receive callback.
func (l *Layer) OnDeliver(fn DeliverFunc) { l.deliver = fn }

// find returns the record of the peer called name, or nil.
func (l *Layer) find(name string) *peer {
	for _, p := range l.peers {
		if p.name == name {
			return p
		}
	}
	return nil
}

// peer returns the record of the peer called name, creating it on first use.
func (l *Layer) peer(name string) *peer {
	if p := l.find(name); p != nil {
		return p
	}
	p := &peer{name: name}
	l.peers = append(l.peers, p)
	return p
}

// hint is the world number to address a datagram for name with: the one its
// record learned, or 0.
func (l *Layer) hint(name string) uint16 {
	if p := l.find(name); p != nil {
		return p.no
	}
	return 0
}

// Send transmits payload to dst reliably: it is retransmitted on a timer
// until acknowledged or the retry bound is hit. The layer keeps a copy of
// payload, so the caller may reuse it once Send returns.
func (l *Layer) Send(dst string, payload []byte) error {
	p := l.peer(dst)
	p.nextSeq++
	ps := l.newPending()
	ps.p, ps.seq = p, p.nextSeq
	ps.payload = append(ps.payload[:0], payload...)
	p.window = append(p.window, ps)
	l.armRetransmit(ps)
	return l.ship(dst, p.no, ps.frame())
}

// newPending returns a record for one send, reusing one whose frame is
// done with.
func (l *Layer) newPending() *pendingSend {
	n := len(l.free)
	if n == 0 {
		return &pendingSend{l: l}
	}
	ps := l.free[n-1]
	l.free = l.free[:n-1]
	return ps
}

// retire takes the frame at position i out of p's window, cancels its timer,
// and hands its record back for reuse unless a snapshot holds it.
func (l *Layer) retire(p *peer, i int) {
	ps := p.window[i]
	p.window = slices.Delete(p.window, i, i+1)
	l.env.Sched.Cancel(&ps.Event)
	if !ps.pinned {
		ps.p, ps.retries = nil, 0
		l.free = append(l.free, ps)
	}
}

// RawFrame starts an unreliable frame, in a message from p (nil allocates),
// with room for an n-byte payload. The caller appends the payload and passes
// the Writer to SendRawFrame: nothing retains a raw datagram, so its payload
// is encoded once, straight behind the header in the message that carries
// it. (A reliable payload is kept for retransmission, so Send takes it as
// bytes and every transmission copies it into a message of its own.)
func RawFrame(p *message.Pool, n int) message.Writer {
	return Frame{Kind: KindRaw}.appendTo(p.Build(HeaderLen + n))
}

// SendRawFrame transmits a frame started by RawFrame unreliably: no ack,
// no retransmission.
func (l *Layer) SendRawFrame(dst string, w message.Writer) error {
	m := w.Message()
	m.SetDst(dst)
	m.SetDstNo(l.hint(dst))
	return l.base.Down(m)
}

// ship sends f to dst, whose world number is no as far as the layer knows.
func (l *Layer) ship(dst string, no uint16, f Frame) error {
	m := f.appendTo(l.env.Msgs.Build(HeaderLen + len(f.Payload))).Message()
	m.SetDst(dst)
	m.SetDstNo(no)
	return l.base.Down(m)
}

func (l *Layer) armRetransmit(ps *pendingSend) {
	l.rto.Arm(&ps.Event, "rudp-rtx", ps)
}

// onRetransmit runs when ps's timer expires. A send is in its window exactly
// while its timer is pending: an ack retires both, and a capture and its
// restore see both.
func (l *Layer) onRetransmit(ps *pendingSend) {
	p := ps.p
	if ps.retries >= DefaultMaxRetries {
		l.retire(p, slices.Index(p.window, ps))
		return
	}
	ps.retries++
	// Retransmission failures surface the same way as first-send failures:
	// the datagram is simply lost and retried again.
	_ = l.ship(p.name, p.no, ps.frame())
	l.armRetransmit(ps)
}

// HandleDown implements stack.Layer. Raw pushes from above are sent as
// unreliable frames, using the message's destination.
func (l *Layer) HandleDown(m *message.Message) error {
	if m.Dst() == "" {
		return fmt.Errorf("rudp: message without destination")
	}
	return l.SendRawFrame(m.Dst(), RawFrame(l.env.Msgs, m.Len()).Bytes(m.Bytes()))
}

// HandleUp implements stack.Layer: frame arrival from the network.
func (l *Layer) HandleUp(m *message.Message) error {
	f, err := Decode(m)
	if err != nil {
		return nil // garbage is dropped
	}
	src := m.Src()
	if src == "" {
		return fmt.Errorf("rudp: frame without source")
	}
	switch f.Kind {
	case KindRaw:
		if l.deliver != nil {
			l.deliver(src, f.Payload)
		}
	case KindData:
		// Ack first (even duplicates: the ack may have been lost).
		if err := l.ship(src, m.SrcNo(), Frame{Kind: KindAck, Seq: f.Seq}); err != nil {
			return err
		}
		p := l.peer(src)
		p.no = m.SrcNo()
		if p.delivered(f.Seq) {
			return nil
		}
		p.markDelivered(f.Seq)
		if l.deliver != nil {
			l.deliver(src, f.Payload)
		}
	case KindAck:
		p := l.find(src)
		if p == nil {
			return nil
		}
		p.no = m.SrcNo()
		for i, ps := range p.window {
			if ps.seq == f.Seq {
				l.retire(p, i)
				break
			}
		}
	}
	return nil
}
