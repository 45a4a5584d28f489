// Package message implements the x-Kernel-style message abstraction used
// throughout the protocol stack.
//
// A Message is one whole frame: a protocol encoder writes it field by field
// with Build, and a decoder reads it back with a Reader. Messages also
// carry their network addressing out of band (the source and destination
// node, which are not serialized onto the wire).
package message

import (
	"encoding/binary"
	"fmt"
)

// InlineCap is how many bytes a message holds inside itself: a frame that
// fits — a raft heartbeat, a GMP heartbeat in its RUDP frame, a bare TCP
// ACK, a 64-byte datagram — is one heap object, not a header plus a buffer.
// It is a constant because it fixes the size of every Message (64 bytes of
// header + the kept flag + 79 inline = one 144-byte allocation class): a
// stream segment that spills carries the unused array along, so it has to
// stay small, and the control frames above are all under it.
const InlineCap = 79

// Message is a mutable packet travelling through a protocol stack. The zero
// value is not useful; use New or Build. A Message is handled by pointer
// only: its bytes may live in its own inline array, so a by-value copy would
// alias the original's storage (go vet's copylocks pass reports one).
//
// Ownership: a message belongs to whoever was handed it, for the length of
// that call. The simulated wire gives a message back to its world's Pool
// once its hop is over (see Pool.Release), so a layer, hook or sink that
// holds on to a *Message — or to a slice of its Bytes — after returning
// calls Keep first, or copies what it needs.
type Message struct {
	_      noCopy
	next   *Message // the next free message while this one is in a Pool
	buf    []byte
	src    string // sending node, stamped by the network on transmit
	dst    string // destination node, set by the sender's stack
	kept   bool   // someone holds this message past its hop: never reused
	inline [InlineCap]byte
}

// noCopy marks Message for vet's copylocks check (it looks for Lock and
// Unlock methods on a field's type); it occupies no space.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// Pool is one world's free list of messages whose hop is over, in two
// classes: a frame that fits InlineCap takes an inline message, and a
// larger one a spilled message, which comes back with its buffer. A world
// is single-threaded, so there is no lock. The zero Pool is empty; a nil
// *Pool reuses nothing, which is what the package-level New and Build are
// for code that has no world (tools, the live proxy, tests).
type Pool struct {
	inline, spilled *Message // released messages, linked through next
}

// alloc returns an empty message with room for n bytes: in its inline array
// when they fit, otherwise in a buffer of at least that capacity. It is a
// released message of n's class when p has one, and then carries nothing
// over but a spill buffer's capacity: a released message has no addressing
// and is not kept.
func (p *Pool) alloc(n int) *Message {
	m := p.take(n > InlineCap)
	if m == nil {
		m = new(Message)
	}
	switch {
	case n <= InlineCap:
		m.buf = m.inline[:0]
	case cap(m.buf) >= n: // more than InlineCap, so not the inline array
		m.buf = m.buf[:0]
	default:
		m.buf = make([]byte, 0, n)
	}
	return m
}

// Keep tells the wire that someone holds this message, or a slice of its
// bytes, beyond the call that handed it over — a hold queue, a delayed
// forward, a receive log, a reassembly buffer, a snapshot. A kept message is
// never reused; it stays kept (and garbage-collected like any other object)
// for good. A clone starts out not kept.
func (m *Message) Keep() { m.kept = true }

// Release gives m back to p for a later New, Build or Clone to reuse, unless
// it was kept. It is the simulated wire's call and nobody else's: netsim
// makes it when a hop is over — the receiving stack has returned, or the
// message was lost in flight — which is the one point where no frame on the
// stack still has the message in hand. Under the race detector a released
// message is poisoned instead of reused (pool_race.go), so a retainer that
// forgot Keep reads 0xDB bytes and no addressing there.
func (p *Pool) Release(m *Message) {
	if !m.kept {
		p.put(m)
	}
}

// New builds a message from p whose payload is a copy of data.
func (p *Pool) New(data []byte) *Message {
	m := p.alloc(len(data))
	m.buf = append(m.buf, data...)
	return m
}

// New builds a message whose payload is a copy of data; nothing is reused.
func New(data []byte) *Message { return (*Pool)(nil).New(data) }

// Len returns the current total length in bytes (headers + payload).
func (m *Message) Len() int { return len(m.buf) }

// Bytes returns the message contents. The slice aliases internal storage;
// callers must not retain it across mutations.
func (m *Message) Bytes() []byte { return m.buf }

// CopyBytes returns an independent copy of the message contents.
func (m *Message) CopyBytes() []byte {
	out := make([]byte, len(m.buf))
	copy(out, m.buf)
	return out
}

// Clone returns a deep copy of m from p, with the same addressing. The copy is not kept, whatever the original is.
func (p *Pool) Clone(m *Message) *Message {
	c := p.New(m.buf)
	c.src, c.dst = m.src, m.dst
	return c
}

// State is a saved copy of a message's mutable content (payload bytes and
// addressing).
// World snapshots use it to rewind in-flight and held messages in place:
// the *Message pointer — held by pending delivery events and
// retransmission queues — stays the same, only its content rolls back.
type State struct {
	buf      []byte
	src, dst string
}

// SaveState captures the message's current content and keeps the message:
// whoever restores the state later needs the same *Message to still be this
// message, so what a snapshot has seen is never reused.
func (m *Message) SaveState() State {
	m.Keep()
	return State{buf: append([]byte(nil), m.buf...), src: m.src, dst: m.dst}
}

// RestoreState rewinds the message to a previously saved content. The saved
// state stays valid for repeated restores.
func (m *Message) RestoreState(st State) {
	m.buf = append(m.buf[:0], st.buf...)
	m.src, m.dst = st.src, st.dst
}

// SetByte overwrites the byte at offset off — the primitive behind message
// corruption faults.
func (m *Message) SetByte(off int, b byte) error {
	if off < 0 || off >= len(m.buf) {
		return fmt.Errorf("message: set byte at %d in %d-byte message", off, len(m.buf))
	}
	m.buf[off] = b
	return nil
}

// ByteAt returns the byte at offset off.
func (m *Message) ByteAt(off int) (byte, error) {
	if off < 0 || off >= len(m.buf) {
		return 0, fmt.Errorf("message: byte at %d in %d-byte message", off, len(m.buf))
	}
	return m.buf[off], nil
}

// SetDst addresses the message to a node; the sender's stack sets it before
// the message reaches the network. Addressing travels with the message
// through the local stack but is not serialized onto the wire.
func (m *Message) SetDst(node string) { m.dst = node }

// Dst returns the destination node ("" when unaddressed).
func (m *Message) Dst() string { return m.dst }

// SetSrc records the sending node; the network stamps it on transmit.
func (m *Message) SetSrc(node string) { m.src = node }

// Src returns the sending node ("" before the message has been transmitted).
func (m *Message) Src() string { return m.src }

// String renders a short diagnostic form.
func (m *Message) String() string {
	n := len(m.buf)
	if n <= 16 {
		return fmt.Sprintf("msg(%d bytes % x)", n, m.buf)
	}
	return fmt.Sprintf("msg(%d bytes % x…)", n, m.buf[:16])
}

// Writer builds wire bytes field by field in network byte order: a whole
// frame inside a new message (Build … Message) or a bare byte slice
// (NewWriter … Done). It is the one builder every protocol codec encodes
// through. A Writer is a value, used like append: every method returns the
// Writer to continue with.
type Writer struct {
	buf []byte
	m   *Message // the message buf started in; nil for NewWriter
}

// NewWriter returns a Writer with capacity preallocated for n bytes.
func NewWriter(n int) Writer { return Writer{buf: make([]byte, 0, n)} }

// Build starts a new message from p with room for n bytes and returns the
// Writer that fills it. The encoder writes into the message's own buffer —
// inline when n <= InlineCap — so a frame is encoded once, where it will
// travel. Only this Writer may write there, and only until Message hands
// the message over.
func (p *Pool) Build(n int) Writer {
	m := p.alloc(n)
	return Writer{buf: m.buf, m: m}
}

// Build starts a new message that reuses nothing; see Pool.Build.
func Build(n int) Writer { return (*Pool)(nil).Build(n) }

// Message finishes a Build and returns the message holding what was
// written. The Writer must not be used afterwards. It panics on a Writer
// that NewWriter made: there is no message to finish.
func (w Writer) Message() *Message {
	if w.m == nil {
		panic("message: Writer.Message on a Writer not started by Build")
	}
	w.m.buf = w.buf
	return w.m
}

// U8 appends a byte.
func (w Writer) U8(v uint8) Writer { w.buf = append(w.buf, v); return w }

// U16 appends a big-endian uint16.
func (w Writer) U16(v uint16) Writer {
	w.buf = binary.BigEndian.AppendUint16(w.buf, v)
	return w
}

// U32 appends a big-endian uint32.
func (w Writer) U32(v uint32) Writer {
	w.buf = binary.BigEndian.AppendUint32(w.buf, v)
	return w
}

// U64 appends a big-endian uint64.
func (w Writer) U64(v uint64) Writer {
	w.buf = binary.BigEndian.AppendUint64(w.buf, v)
	return w
}

// Bytes appends raw bytes.
func (w Writer) Bytes(p []byte) Writer { w.buf = append(w.buf, p...); return w }

// Str8 appends s behind a one-byte length, cutting it at 255 bytes.
func (w Writer) Str8(s string) Writer {
	if len(s) > 255 {
		s = s[:255]
	}
	w.buf = append(append(w.buf, uint8(len(s))), s...)
	return w
}

// Done returns the accumulated bytes.
func (w Writer) Done() []byte { return w.buf }

// Reader consumes headers field by field in network byte order. Errors are
// sticky: after the first short read every subsequent call returns zero and
// Err reports the failure.
type Reader struct {
	buf []byte
	off int
	// need and have record the first short read: a read of need bytes with
	// have left. need is 0 until then (no read of 0 bytes falls short). Err
	// builds the error from them, which keeps take within the inlining
	// budget, so every fixed-size read compiles to a bounds check and a load.
	need, have int
}

// NewReader wraps p for reading. The reader does not copy p.
func NewReader(p []byte) *Reader { return &Reader{buf: p} }

// Err returns the first error encountered, if any.
func (r *Reader) Err() error {
	if r.need == 0 {
		return nil
	}
	return fmt.Errorf("message: short read: need %d bytes, have %d", r.need, r.have)
}

// Remaining returns the unread byte count.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

func (r *Reader) take(n int) []byte {
	if r.need != 0 || n > len(r.buf)-r.off {
		if r.need == 0 {
			r.need, r.have = n, len(r.buf)-r.off
		}
		return nil
	}
	p := r.buf[r.off : r.off+n]
	r.off += n
	return p
}

// U8 reads a byte.
func (r *Reader) U8() uint8 {
	p := r.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

// U16 reads a big-endian uint16.
func (r *Reader) U16() uint16 {
	p := r.take(2)
	if p == nil {
		return 0
	}
	return binary.BigEndian.Uint16(p)
}

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 {
	p := r.take(4)
	if p == nil {
		return 0
	}
	return binary.BigEndian.Uint32(p)
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	p := r.take(8)
	if p == nil {
		return 0
	}
	return binary.BigEndian.Uint64(p)
}

// Name reads a string written by Writer.Str8. A message that names a node
// nearly always names one the receiver already holds a string for — the
// datagram's network source, or a peer — so the bytes are matched against
// first and then against each of rest, and only an unknown name allocates.
func (r *Reader) Name(first string, rest []string) string {
	b := r.take(int(r.U8()))
	if string(b) == first {
		return first
	}
	for _, s := range rest {
		if string(b) == s {
			return s
		}
	}
	return string(b)
}
