// Package frag is a fragmentation/reassembly protocol layer in the
// x-Kernel mold (IP-style): messages larger than the MTU are split into
// numbered fragments on the way down and reassembled on the way up.
//
// In this repository it demonstrates the PFI technique's generality — the
// paper "makes no distinction between application-level protocols,
// interprocess communication protocols, network protocols, or device layer
// protocols". A PFI layer spliced BELOW frag manipulates individual
// fragments (drop one of five, reorder them, duplicate them) while the
// protocols above see only whole messages.
//
// The layer is deliberately unreliable, like IP fragmentation: a lost
// fragment loses the whole message (upper layers retransmit), and
// incomplete reassembly buffers expire after a timeout.
package frag

import (
	"fmt"
	"time"

	"pfi/internal/message"
	"pfi/internal/simtime"
	"pfi/internal/stack"
)

// HeaderLen is the per-fragment header: id(4) index(2) count(2).
const HeaderLen = 8

// DefaultMTU bounds a fragment's total size (header + chunk).
const DefaultMTU = 576

// DefaultReassemblyTimeout discards incomplete reassembly buffers.
const DefaultReassemblyTimeout = 30 * time.Second

// Stats counts layer activity.
type Stats struct {
	MessagesSent  int
	FragmentsSent int
	FragmentsRecv int
	Reassembled   int
	Duplicates    int
	TimedOut      int // incomplete messages discarded
}

// Layer implements stack.Layer.
type Layer struct {
	base    stack.Base
	env     *stack.Env
	mtu     int
	timeout time.Duration
	nextID  uint32
	pending map[pendingKey]*pendingMsg
	stats   Stats
}

var _ stack.Layer = (*Layer)(nil)

type pendingKey struct {
	src string
	id  uint32
}

type pendingMsg struct {
	chunks  [][]byte
	have    int
	total   int
	expires *simtime.Event
	first   *message.Message // first fragment, for its addressing
}

// Option configures the layer.
type Option func(*Layer)

// WithMTU overrides the fragment size bound (must exceed HeaderLen).
func WithMTU(mtu int) Option {
	return func(l *Layer) { l.mtu = mtu }
}

// WithReassemblyTimeout overrides the incomplete-buffer lifetime.
func WithReassemblyTimeout(d time.Duration) Option {
	return func(l *Layer) { l.timeout = d }
}

// NewLayer builds a fragmentation layer.
func NewLayer(env *stack.Env, opts ...Option) (*Layer, error) {
	l := &Layer{
		base:    stack.NewBase("frag"),
		env:     env,
		mtu:     DefaultMTU,
		timeout: DefaultReassemblyTimeout,
		pending: make(map[pendingKey]*pendingMsg),
	}
	for _, opt := range opts {
		opt(l)
	}
	if l.mtu <= HeaderLen {
		return nil, fmt.Errorf("frag: MTU %d must exceed the %d-byte header", l.mtu, HeaderLen)
	}
	if l.timeout <= 0 {
		return nil, fmt.Errorf("frag: non-positive reassembly timeout")
	}
	return l, nil
}

// Name implements stack.Layer.
func (l *Layer) Name() string { return "frag" }

// Wire implements stack.Layer.
func (l *Layer) Wire(down, up stack.Sink) { l.base.Wire(down, up) }

// Stats returns a copy of the counters.
func (l *Layer) Stats() Stats { return l.stats }

// PendingReassemblies reports messages awaiting missing fragments.
func (l *Layer) PendingReassemblies() int { return len(l.pending) }

// HandleDown fragments an outbound message.
func (l *Layer) HandleDown(m *message.Message) error {
	l.stats.MessagesSent++
	l.nextID++
	id := l.nextID
	payload := m.Bytes()
	chunkSize := l.mtu - HeaderLen
	count := (len(payload) + chunkSize - 1) / chunkSize
	if count == 0 {
		count = 1 // empty messages still travel as one fragment
	}
	if count > 0xFFFF {
		return fmt.Errorf("frag: message of %d bytes needs %d fragments (max %d)",
			len(payload), count, 0xFFFF)
	}
	for i := 0; i < count; i++ {
		lo := i * chunkSize
		hi := lo + chunkSize
		if hi > len(payload) {
			hi = len(payload)
		}
		w := message.NewWriter(HeaderLen + hi - lo)
		w.U32(id).U16(uint16(i)).U16(uint16(count)).Bytes(payload[lo:hi])
		fragMsg := message.Wrap(w.Done())
		copyAddr(m, fragMsg)
		l.stats.FragmentsSent++
		if err := l.base.Down(fragMsg); err != nil {
			return fmt.Errorf("frag: fragment %d/%d: %w", i+1, count, err)
		}
	}
	return nil
}

// copyAddr propagates the network addressing from one message to another.
func copyAddr(from, to *message.Message) {
	to.SetSrc(from.Src())
	to.SetDst(from.Dst())
}

// HandleUp collects fragments and delivers reassembled messages.
func (l *Layer) HandleUp(m *message.Message) error {
	raw := m.Bytes()
	if len(raw) < HeaderLen {
		return nil // not a fragment; drop
	}
	r := message.NewReader(raw)
	id := r.U32()
	index := int(r.U16())
	count := int(r.U16())
	if count == 0 || index >= count {
		return nil // malformed (possibly corrupted by a fault injector)
	}
	chunk := append([]byte(nil), raw[HeaderLen:]...)
	l.stats.FragmentsRecv++

	key := pendingKey{src: m.Src(), id: id}
	p, ok := l.pending[key]
	if !ok {
		p = &pendingMsg{chunks: make([][]byte, count), total: count, first: m}
		p.expires = l.env.Sched.After(l.timeout, "frag-reassembly-timeout", func() {
			if _, still := l.pending[key]; still {
				delete(l.pending, key)
				l.stats.TimedOut++
			}
		})
		l.pending[key] = p
	}
	if p.total != count || p.chunks[index] != nil {
		l.stats.Duplicates++
		return nil // duplicate or inconsistent fragment
	}
	p.chunks[index] = chunk
	p.have++
	if p.have < p.total {
		return nil
	}
	// Complete: reassemble and deliver.
	delete(l.pending, key)
	l.env.Sched.Cancel(p.expires)
	var whole []byte
	for _, c := range p.chunks {
		whole = append(whole, c...)
	}
	out := message.Wrap(whole)
	copyAddr(p.first, out)
	l.stats.Reassembled++
	return l.base.Up(out)
}
