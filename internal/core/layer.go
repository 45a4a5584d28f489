package core

import (
	"fmt"
	"time"

	"pfi/internal/dist"
	"pfi/internal/message"
	"pfi/internal/script"
	"pfi/internal/simtime"
	"pfi/internal/stack"
	"pfi/internal/trace"
)

// Direction distinguishes the two filters of a PFI layer.
type Direction int

const (
	// Send is the filter run when a message is pushed down the stack.
	Send Direction = iota + 1
	// Receive is the filter run when a message is popped up the stack.
	Receive
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	if d == Send {
		return "send"
	}
	return "receive"
}

// Stats counts what a filter did to traffic. Seen counts the messages that
// entered the filter: in a stack, a direction without a script is wired
// past the layer, so traffic that passes while it has none is not seen.
type Stats struct {
	Seen       int
	Dropped    int
	Delayed    int
	Duplicated int
	Held       int
	Released   int
	Injected   int
}

// Layer is the probe/fault-injection layer. It implements stack.Layer and
// is listed directly below a target protocol in stack.New.
type Layer struct {
	base stack.Base
	env  *stack.Env
	stub Stub
	log  *trace.Log
	rng  *dist.Source
	bus  *SyncBus
	send *Filter
	recv *Filter
}

var _ stack.Layer = (*Layer)(nil)

// Option configures a Layer.
type Option func(*Layer)

// WithStub installs the packet recognition/generation stub.
func WithStub(s Stub) Option {
	return func(l *Layer) { l.stub = s }
}

// WithTrace directs msg_log and fault events into lg.
func WithTrace(lg *trace.Log) Option {
	return func(l *Layer) { l.log = lg }
}

// WithRand seeds the probabilistic script utilities.
func WithRand(r *dist.Source) Option {
	return func(l *Layer) { l.rng = r }
}

// WithSyncBus joins the layer to a cross-node synchronization bus; without
// it the layer gets a private one.
func WithSyncBus(b *SyncBus) Option {
	return func(l *Layer) { l.bus = b }
}

// NewLayer builds a PFI layer for the given node environment.
func NewLayer(env *stack.Env, opts ...Option) *Layer {
	l := &Layer{
		base: stack.NewBase("pfi"),
		env:  env,
		stub: NopStub{},
		log:  trace.NewLog(),
		rng:  dist.NewSource(1),
	}
	for _, opt := range opts {
		opt(l)
	}
	if l.bus == nil {
		l.bus = NewSyncBus()
	}
	l.send = &Filter{layer: l, dir: Send}
	l.recv = &Filter{layer: l, dir: Receive}
	return l
}

// Name implements stack.Layer.
func (l *Layer) Name() string { return l.base.Name() }

// Wire implements stack.Layer.
func (l *Layer) Wire(down, up stack.Sink) { l.base.Wire(down, up) }

// Passive implements stack.Passive: a direction whose filter has no script
// has nothing to do, so the stack routes that direction's traffic past the
// layer. Its own sinks still lead on, for Inject, delayed forwards, held
// releases and direct HandleDown/HandleUp calls.
func (l *Layer) Passive() (down, up bool) {
	return l.send.prepared == nil, l.recv.prepared == nil
}

// HandleDown implements stack.Layer: it runs the send filter.
func (l *Layer) HandleDown(m *message.Message) error {
	return l.send.process(m)
}

// HandleUp implements stack.Layer: it runs the receive filter.
func (l *Layer) HandleUp(m *message.Message) error {
	return l.recv.process(m)
}

// SendFilter returns the send-side filter.
func (l *Layer) SendFilter() *Filter { return l.send }

// ReceiveFilter returns the receive-side filter.
func (l *Layer) ReceiveFilter() *Filter { return l.recv }

// SetSendScript installs the send filter script (parsed once).
func (l *Layer) SetSendScript(src string) error { return l.send.SetScript(src) }

// SetReceiveScript installs the receive filter script (parsed once).
func (l *Layer) SetReceiveScript(src string) error { return l.recv.SetScript(src) }

// Inject generates a message via the layer's stub and forwards it in the
// given direction — the driver-side fault-injection verb. Unlike the script
// command xInject it runs outside any filter pass, so addressing must come
// from explicit "src"/"dst" fields.
func (l *Layer) Inject(dir Direction, typ string, fields map[string]string) error {
	f := l.send
	if dir == Receive {
		f = l.recv
	}
	return f.inject(typ, fields, dir)
}

// Stub returns the layer's packet stub.
func (l *Layer) Stub() Stub { return l.stub }

// forward continues a message in the filter's direction.
func (l *Layer) forward(dir Direction, m *message.Message) error {
	if dir == Send {
		return l.base.Down(m)
	}
	return l.base.Up(m)
}

// verdict accumulates the actions a filter run requested for the current
// message. The zero verdict forwards unchanged.
type verdict struct {
	drop     bool
	hold     bool
	delay    time.Duration
	dupExtra int           // extra copies to forward
	dupGap   time.Duration // spacing between copies
}

// Filter is one direction of a PFI layer: an interpreter, an optional
// parsed script, and a hold queue.
type Filter struct {
	layer    *Layer
	dir      Direction
	interp   *script.Interp   // nil until engine() first needs it
	prepared *script.Prepared // the installed script; nil: pass everything
	held     []*message.Message
	stats    Stats
	header   Header // owned decode storage; nil until a HeaderStub's first message
	spare    Header // a nested run's decode storage (see nested)

	// Per-message state, valid only during process(); curMsg is non-nil
	// exactly while a run is open. verdictBuf is reused across messages:
	// runs are sequential per filter except a nested one, which puts the
	// outer run's state back when it returns, so one buffer suffices and
	// the per-message allocation disappears.
	curMsg     *message.Message
	curInfo    Info
	cur        *verdict
	verdictBuf verdict
}

// engine returns the filter's interpreter, building it on first use: most
// filters of a large world never see a script, and an interpreter with the
// PFI command set registered is the costliest part of a layer.
func (f *Filter) engine() *script.Interp {
	if f.interp == nil {
		f.interp = script.New()
		registerFilterCommands(f)
		// Where the filter sits, for scripts shared across nodes,
		// directions and vendor profiles to branch on.
		f.interp.SetVar("pfi_node", f.layer.env.Node)
		f.interp.SetVar("pfi_dir", f.dir.String())
		f.interp.SetVar("pfi_protocol", f.layer.stub.Protocol())
	}
	return f.interp
}

// Interp exposes the filter's interpreter so tests and experiment drivers
// can read/set script state (the paper's driver/PFI communication).
func (f *Filter) Interp() *script.Interp { return f.engine() }

// Stats returns a copy of the filter's counters.
func (f *Filter) Stats() Stats { return f.stats }

// SetScript parses and installs the filter script. An empty src clears it.
// Installing or clearing a script turns the direction active or passive, so
// the node's stack wires again.
func (f *Filter) SetScript(src string) error {
	if src == "" {
		f.prepared = nil
		f.layer.env.Rewire()
		return nil
	}
	s, err := script.Parse(src)
	if err != nil {
		return fmt.Errorf("core: %s filter script: %w", f.dir, err)
	}
	// Compile once at registration: process() then skips the per-message
	// source-cache lookup.
	f.prepared = f.engine().Prepare(s)
	f.layer.env.Rewire()
	return nil
}

// peer returns the other filter of the same layer.
func (f *Filter) peer() *Filter {
	if f.dir == Send {
		return f.layer.recv
	}
	return f.layer.send
}

// recognize types one message, falling back to UNRECOGNIZED: the PFI layer
// must be transparent for traffic its stub does not understand.
func (f *Filter) recognize(m *message.Message) Info {
	if f.header == nil {
		hs, ok := f.layer.stub.(HeaderStub)
		if !ok {
			if info, err := f.layer.stub.Recognize(m); err == nil {
				return info
			}
			return Info{Type: "UNRECOGNIZED"}
		}
		f.header = hs.NewHeader()
	}
	typ, err := f.header.Recognize(m)
	if err != nil {
		return Info{Type: "UNRECOGNIZED"}
	}
	return Info{Type: typ, Fields: f.header}
}

// process runs the filter over one message and applies the verdict. In a
// stack an unscripted direction is wired past the layer; the no-script
// branch serves direct calls (interpose, tests).
func (f *Filter) process(m *message.Message) error {
	f.stats.Seen++
	if f.prepared == nil {
		return f.layer.forward(f.dir, m)
	}
	if f.curMsg != nil {
		return f.nested(m)
	}
	defer func() { f.curMsg, f.curInfo, f.cur = nil, Info{}, nil }()
	return f.run(m)
}

// run runs the script over m and applies the verdict.
func (f *Filter) run(m *message.Message) error {
	f.verdictBuf = verdict{}
	f.curMsg, f.curInfo, f.cur = m, f.recognize(m), &f.verdictBuf
	if _, err := f.prepared.Run(); err != nil {
		return fmt.Errorf("core: %s filter on %s: %w", f.dir, f.layer.env.Node, err)
	}
	return f.apply(m, &f.verdictBuf)
}

// nested runs the script over m while an outer run of this filter is still
// open: the outer script injected a message, or forwarded its own, and a
// layer sent one back through this filter before returning. m is decoded
// into a header of its own, and the outer run's message, recognition and
// verdict are put back on return, so the rest of the outer script reads and
// acts on its own message.
func (f *Filter) nested(m *message.Message) error {
	outerMsg, outerInfo, outerVerdict, outerHeader := f.curMsg, f.curInfo, f.verdictBuf, f.header
	f.header, f.spare = f.spare, nil
	defer func() {
		f.spare, f.header = f.header, outerHeader
		f.curMsg, f.curInfo, f.verdictBuf = outerMsg, outerInfo, outerVerdict
	}()
	return f.run(m)
}

// fieldValue reads one recognized field: a number as a number when the
// header is the filter's own, text otherwise. Empty dst/src fall back to the
// message's network addressing, so scripts can filter by destination ("the
// messages were dropped based on destination address", the paper's
// partition experiment) without stub support.
func (f *Filter) fieldValue(name string) script.Value {
	if f.header != nil && f.curInfo.Fields != nil {
		if n, ok := f.header.IntField(name); ok {
			return script.Int(n)
		}
	}
	if v := f.curInfo.Field(name); v != "" {
		return script.Str(v)
	}
	switch name {
	case "dst":
		return script.Str(f.curMsg.Dst())
	case "src":
		return script.Str(f.curMsg.Src())
	}
	return script.Value{}
}

// holdNow parks the current message on the hold queue immediately (so a
// release later in the same script run sees it) and marks the verdict so
// apply does not also forward it.
func (f *Filter) holdNow() {
	if f.cur.hold {
		return // already held
	}
	f.cur.hold = true
	f.stats.Held++
	f.curMsg.Keep() // it outlives this call: the wire must not reuse it
	f.held = append(f.held, f.curMsg)
}

// apply executes the accumulated verdict.
func (f *Filter) apply(m *message.Message, v *verdict) error {
	switch {
	case v.hold:
		// Already on the hold queue (holdNow); nothing to forward. Hold
		// takes precedence over drop: a held message has been claimed by
		// the script for later release.
		return nil
	case v.drop:
		f.stats.Dropped++
		return nil
	}
	if v.delay > 0 {
		f.stats.Delayed++
	}
	err := f.forwardAfter(m, v.delay)
	if v.dupExtra > 0 {
		f.stats.Duplicated += v.dupExtra
		for i := 1; i <= v.dupExtra; i++ {
			if e := f.forwardAfter(f.layer.env.Msgs.Clone(m), v.delay+time.Duration(i)*v.dupGap); err == nil {
				err = e
			}
		}
	}
	return err
}

// delayedForward is one message parked by xDelay/xDuplicate: the pending
// event and the message it will forward, in a single object. Snapshots find
// it in the scheduler's queue to rewind the message's content: a forward
// that fires during one forked child mutates the message downstream, and
// the next child re-fires the same event.
type delayedForward struct {
	simtime.Event
	f *Filter
	m *message.Message
}

// Fire implements simtime.Handler. Errors inside a delayed forward have no
// caller to return to.
func (d *delayedForward) Fire() { _ = d.f.layer.forward(d.f.dir, d.m) }

// forwardAfter continues m in the filter's direction, now or after a delay.
func (f *Filter) forwardAfter(m *message.Message, after time.Duration) error {
	if after <= 0 {
		return f.layer.forward(f.dir, m)
	}
	m.Keep() // it outlives this call: the wire must not reuse it
	d := &delayedForward{f: f, m: m}
	f.layer.env.Sched.Arm(&d.Event, after, "pfi-delayed-forward", d)
	return nil
}

// release forwards up to n held messages (n<=0: all), LIFO if reverse.
func (f *Filter) release(n int, reverse bool) error {
	if n <= 0 || n > len(f.held) {
		n = len(f.held)
	}
	batch := f.held[:n]
	f.held = f.held[n:]
	if reverse {
		for i, j := 0, len(batch)-1; i < j; i, j = i+1, j-1 {
			batch[i], batch[j] = batch[j], batch[i]
		}
	}
	var firstErr error
	for _, m := range batch {
		f.stats.Released++
		if err := f.layer.forward(f.dir, m); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// inject generates a message via the stub and forwards it. The injected
// message needs network addressing to be credible: explicit "src"/"dst"
// fields win, and otherwise it inherits the current message's addressing —
// so a probe forged inside a filter run looks like it belongs to the flow
// being filtered.
func (f *Filter) inject(typ string, fields map[string]string, dir Direction) error {
	m, err := f.layer.stub.Generate(typ, fields)
	if err != nil {
		return err
	}
	src, dst := fields["src"], fields["dst"]
	if f.curMsg != nil {
		if src == "" {
			src = f.curMsg.Src()
		}
		if dst == "" {
			dst = f.curMsg.Dst()
		}
	}
	m.SetSrc(src)
	m.SetDst(dst)
	f.stats.Injected++
	return f.layer.forward(dir, m)
}
