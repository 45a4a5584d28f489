// Package tpc implements two-phase commit (2PC), a further "prototype
// distributed protocol" in the spirit of the paper's future-work item
// (iii): experimental studies of other protocols with the PFI tool.
//
// The interesting property the fault injector exposes is 2PC's classic
// BLOCKING WINDOW: a participant that has voted YES may neither commit nor
// abort on its own — if the coordinator crashes between collecting votes
// and announcing the outcome, prepared participants stay blocked (holding
// their locks) until the coordinator returns. A crash injected anywhere
// else is harmless. The tests drive both cases through PFI filter scripts
// without touching this package's code.
package tpc

import (
	"fmt"
	"strconv"
	"time"

	"pfi/internal/core"
	"pfi/internal/message"
	"pfi/internal/rudp"
	"pfi/internal/simtime"
	"pfi/internal/stack"
	"pfi/internal/trace"
)

// Message types.
const (
	TypePrepare = 1
	TypeVoteYes = 2
	TypeVoteNo  = 3
	TypeCommit  = 4
	TypeAbort   = 5
)

// typeNames is the one name<->id table, for recognition and generation.
var typeNames = [...]string{
	TypePrepare: "PREPARE",
	TypeVoteYes: "VOTE-YES",
	TypeVoteNo:  "VOTE-NO",
	TypeCommit:  "COMMIT",
	TypeAbort:   "ABORT",
}

// TypeName renders a message type.
func TypeName(t uint8) string {
	if int(t) < len(typeNames) && typeNames[t] != "" {
		return typeNames[t]
	}
	return fmt.Sprintf("TYPE(%d)", t)
}

// Msg is one 2PC message.
type Msg struct {
	Type uint8
	TxID uint32
	From string
}

// Field exposes one header field to PFI filter scripts.
func (m *Msg) Field(name string) string {
	switch name {
	case "tx":
		return strconv.FormatUint(uint64(m.TxID), 10)
	case "from":
		return m.From
	}
	return ""
}

// Fields exposes the whole message to PFI filter scripts.
func (m *Msg) Fields() map[string]string {
	return map[string]string{"tx": m.Field("tx"), "from": m.From}
}

// Encode serializes the message.
func (m *Msg) Encode() []byte {
	w := message.NewWriter(8 + len(m.From))
	w.U8(m.Type).U32(m.TxID).U8(uint8(len(m.From))).Bytes([]byte(m.From))
	return w.Done()
}

// DecodeMsg parses a 2PC message.
func DecodeMsg(raw []byte) (*Msg, error) {
	r := message.NewReader(raw)
	m := &Msg{Type: r.U8(), TxID: r.U32()}
	n := int(r.U8())
	b := r.Take(n)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("tpc: short message: %w", err)
	}
	m.From = string(b)
	if int(m.Type) >= len(typeNames) || typeNames[m.Type] == "" {
		return nil, fmt.Errorf("tpc: unknown type %d", m.Type)
	}
	return m, nil
}

// TxState is a participant's (or coordinator's) view of a transaction.
type TxState int

// Transaction states.
const (
	StateIdle TxState = iota + 1
	StatePreparing
	StatePrepared // voted YES, awaiting outcome — the blocking state
	StateCommitted
	StateAborted
)

var stateNames = map[TxState]string{
	StateIdle:      "IDLE",
	StatePreparing: "PREPARING",
	StatePrepared:  "PREPARED",
	StateCommitted: "COMMITTED",
	StateAborted:   "ABORTED",
}

// String implements fmt.Stringer.
func (s TxState) String() string {
	if n, ok := stateNames[s]; ok {
		return n
	}
	return fmt.Sprintf("TxState(%d)", int(s))
}

// Participant is a 2PC resource manager.
type Participant struct {
	env  *stack.Env
	net  *rudp.Layer
	id   string
	log  *trace.Log
	vote func(tx uint32) bool // nil = always YES
	// prepareTimeout lets a participant that has NOT yet voted abort a
	// transaction whose coordinator went silent. After VOTE-YES it no
	// longer applies: that is the blocking window.
	prepareTimeout time.Duration

	states map[uint32]TxState
	timers map[uint32]*simtime.Event
}

// ParticipantOption configures a participant.
type ParticipantOption func(*Participant)

// WithVote installs the local commit/abort decision function.
func WithVote(fn func(tx uint32) bool) ParticipantOption {
	return func(p *Participant) { p.vote = fn }
}

// WithPrepareTimeout overrides the pre-vote abort timeout (default 5 s).
func WithPrepareTimeout(d time.Duration) ParticipantOption {
	return func(p *Participant) { p.prepareTimeout = d }
}

// WithParticipantTrace mirrors events into lg.
func WithParticipantTrace(lg *trace.Log) ParticipantOption {
	return func(p *Participant) { p.log = lg }
}

// NewParticipant builds a participant bound to a reliable-UDP layer.
func NewParticipant(env *stack.Env, net *rudp.Layer, opts ...ParticipantOption) *Participant {
	p := &Participant{
		env:            env,
		net:            net,
		id:             env.Node,
		log:            trace.NewLog(),
		prepareTimeout: 5 * time.Second,
		states:         make(map[uint32]TxState),
		timers:         make(map[uint32]*simtime.Event),
	}
	for _, opt := range opts {
		opt(p)
	}
	net.OnDeliver(p.handle)
	return p
}

// State reports the participant's view of a transaction.
func (p *Participant) State(tx uint32) TxState {
	if s, ok := p.states[tx]; ok {
		return s
	}
	return StateIdle
}

// Events returns the participant's log.
func (p *Participant) Events() *trace.Log { return p.log }

func (p *Participant) handle(src string, payload []byte) {
	m, err := DecodeMsg(payload)
	if err != nil {
		return
	}
	switch m.Type {
	case TypePrepare:
		p.onPrepare(src, m.TxID)
	case TypeCommit:
		p.decide(m.TxID, StateCommitted)
	case TypeAbort:
		p.decide(m.TxID, StateAborted)
	}
}

func (p *Participant) onPrepare(coord string, tx uint32) {
	if s := p.State(tx); s != StateIdle && s != StatePreparing {
		// Duplicate PREPARE after we voted: repeat the vote.
		if s == StatePrepared {
			p.send(coord, &Msg{Type: TypeVoteYes, TxID: tx, From: p.id})
		}
		return
	}
	yes := p.vote == nil || p.vote(tx)
	if !yes {
		p.states[tx] = StateAborted // a NO vote is a unilateral abort
		p.logEvent(tx, "vote", "NO")
		p.send(coord, &Msg{Type: TypeVoteNo, TxID: tx, From: p.id})
		return
	}
	p.states[tx] = StatePrepared
	p.logEvent(tx, "vote", "YES (entering the blocking window)")
	p.cancelTimer(tx)
	p.send(coord, &Msg{Type: TypeVoteYes, TxID: tx, From: p.id})
	p.armBlockedCheck(tx)
}

// armBlockedCheck periodically records that a prepared participant is
// still waiting: having voted YES it can neither commit nor abort on its
// own. (A full system would run a cooperative termination protocol here;
// plain 2PC just blocks, which is exactly what the fault injection
// demonstrates.)
func (p *Participant) armBlockedCheck(tx uint32) {
	p.timers[tx] = p.env.Sched.After(p.prepareTimeout, "tpc-blocked", func() {
		if p.State(tx) != StatePrepared {
			return
		}
		p.logEvent(tx, "blocked", "voted YES; cannot decide unilaterally")
		p.armBlockedCheck(tx)
	})
}

// decide applies the coordinator's outcome.
func (p *Participant) decide(tx uint32, outcome TxState) {
	if s := p.State(tx); s == StateCommitted || s == StateAborted {
		return
	}
	p.states[tx] = outcome
	p.cancelTimer(tx)
	p.logEvent(tx, "decide", outcome.String())
}

func (p *Participant) cancelTimer(tx uint32) {
	if ev, ok := p.timers[tx]; ok {
		p.env.Sched.Cancel(ev)
		delete(p.timers, tx)
	}
}

func (p *Participant) send(dst string, m *Msg) {
	if err := p.net.Send(dst, m.Encode()); err != nil {
		p.logEvent(m.TxID, "send-error", err.Error())
	}
}

func (p *Participant) logEvent(tx uint32, kind, note string) {
	p.log.Addf(p.env.Now(), p.id, kind, "", uint64(tx), note)
}

// Coordinator drives transactions across participants.
type Coordinator struct {
	env   *stack.Env
	net   *rudp.Layer
	id    string
	log   *trace.Log
	vt    time.Duration // vote-collection timeout
	crash bool          // a crashed coordinator does nothing

	nextTx uint32
	open   map[uint32]*txRun
}

type txRun struct {
	participants []string
	votes        map[string]bool
	decided      bool
	outcome      TxState
	timer        *simtime.Event
	onDone       func(TxState)
}

// CoordinatorOption configures a coordinator.
type CoordinatorOption func(*Coordinator)

// WithVoteTimeout overrides the vote-collection timeout (default 5 s).
func WithVoteTimeout(d time.Duration) CoordinatorOption {
	return func(c *Coordinator) { c.vt = d }
}

// WithCoordinatorTrace mirrors events into lg.
func WithCoordinatorTrace(lg *trace.Log) CoordinatorOption {
	return func(c *Coordinator) { c.log = lg }
}

// NewCoordinator builds a coordinator bound to a reliable-UDP layer.
func NewCoordinator(env *stack.Env, net *rudp.Layer, opts ...CoordinatorOption) *Coordinator {
	c := &Coordinator{
		env:  env,
		net:  net,
		id:   env.Node,
		log:  trace.NewLog(),
		vt:   5 * time.Second,
		open: make(map[uint32]*txRun),
	}
	for _, opt := range opts {
		opt(c)
	}
	net.OnDeliver(c.handle)
	return c
}

// Events returns the coordinator's log.
func (c *Coordinator) Events() *trace.Log { return c.log }

// Crash halts the coordinator: pending transactions hang, new ones fail.
// (The PFI experiments usually crash it from the outside with a filter;
// this models a true process halt.)
func (c *Coordinator) Crash() { c.crash = true }

// Recover un-crashes the coordinator and re-decides open transactions:
// any transaction with a full set of YES votes commits, the rest abort,
// and already-decided outcomes whose announcements may have been lost are
// re-sent. This is what finally unblocks prepared participants.
func (c *Coordinator) Recover() {
	c.crash = false
	for tx, run := range c.open {
		if run.decided {
			c.announce(tx, run)
			continue
		}
		if len(run.votes) == len(run.participants) && allYes(run.votes) {
			c.decide(tx, run, StateCommitted)
		} else {
			c.decide(tx, run, StateAborted)
		}
	}
}

// Begin starts two-phase commit over the participants. onDone (optional)
// receives the final outcome.
func (c *Coordinator) Begin(participants []string, onDone func(TxState)) (uint32, error) {
	if c.crash {
		return 0, fmt.Errorf("tpc: coordinator crashed")
	}
	if len(participants) == 0 {
		return 0, fmt.Errorf("tpc: no participants")
	}
	c.nextTx++
	tx := c.nextTx
	run := &txRun{
		participants: append([]string(nil), participants...),
		votes:        make(map[string]bool),
		onDone:       onDone,
	}
	c.open[tx] = run
	c.log.Addf(c.env.Now(), c.id, "begin", "", uint64(tx), fmt.Sprintf("%v", participants))
	for _, p := range run.participants {
		if err := c.net.Send(p, (&Msg{Type: TypePrepare, TxID: tx, From: c.id}).Encode()); err != nil {
			return 0, err
		}
	}
	run.timer = c.env.Sched.After(c.vt, "tpc-vote-timeout", func() {
		c.onVoteTimeout(tx)
	})
	return tx, nil
}

// Outcome reports the coordinator's decision (StateIdle if still open).
func (c *Coordinator) Outcome(tx uint32) TxState {
	run, ok := c.open[tx]
	if !ok || !run.decided {
		return StateIdle
	}
	return run.outcome
}

func (c *Coordinator) handle(src string, payload []byte) {
	if c.crash {
		return // a halted process reads nothing
	}
	m, err := DecodeMsg(payload)
	if err != nil {
		return
	}
	run, ok := c.open[m.TxID]
	if !ok || run.decided {
		return
	}
	switch m.Type {
	case TypeVoteYes:
		run.votes[m.From] = true
	case TypeVoteNo:
		run.votes[m.From] = false
		c.decide(m.TxID, run, StateAborted)
		return
	default:
		return
	}
	if len(run.votes) == len(run.participants) && allYes(run.votes) {
		c.decide(m.TxID, run, StateCommitted)
	}
}

func (c *Coordinator) onVoteTimeout(tx uint32) {
	if c.crash {
		return
	}
	run, ok := c.open[tx]
	if !ok || run.decided {
		return
	}
	c.decide(tx, run, StateAborted)
}

func (c *Coordinator) decide(tx uint32, run *txRun, outcome TxState) {
	run.decided = true
	run.outcome = outcome
	if run.timer != nil {
		c.env.Sched.Cancel(run.timer)
	}
	c.log.Addf(c.env.Now(), c.id, "decide", "", uint64(tx), outcome.String())
	c.announce(tx, run)
	if run.onDone != nil {
		run.onDone(outcome)
	}
}

// announce (re-)sends a decided transaction's outcome to every participant.
func (c *Coordinator) announce(tx uint32, run *txRun) {
	typ := uint8(TypeAbort)
	if run.outcome == StateCommitted {
		typ = TypeCommit
	}
	for _, p := range run.participants {
		if err := c.net.Send(p, (&Msg{Type: typ, TxID: tx, From: c.id}).Encode()); err != nil {
			c.log.Addf(c.env.Now(), c.id, "send-error", "", uint64(tx), err.Error())
		}
	}
}

func allYes(votes map[string]bool) bool {
	for _, v := range votes {
		if !v {
			return false
		}
	}
	return true
}

// PFIStub recognizes 2PC messages through the rudp framing (the PFI layer
// sits below the reliability layer, like GMP's).
type PFIStub struct{}

var _ core.Stub = PFIStub{}

// Protocol implements core.Stub.
func (PFIStub) Protocol() string { return "tpc" }

// Recognize implements core.Stub.
func (PFIStub) Recognize(m *message.Message) (core.Info, error) {
	f, err := rudp.Decode(m)
	if err != nil {
		return core.Info{}, err
	}
	if f.Kind == rudp.KindAck {
		return core.Info{Type: "RUDP-ACK", Fields: f}, nil
	}
	tm, err := DecodeMsg(f.Payload)
	if err != nil {
		return core.Info{}, fmt.Errorf("tpc stub: %w", err)
	}
	return core.Info{Type: TypeName(tm.Type), Fields: tm}, nil
}

// Generate implements core.Stub: stateless 2PC messages (a spurious ABORT
// is the 2PC analogue of the paper's spurious TCP ACK).
func (PFIStub) Generate(typ string, fields map[string]string) (*message.Message, error) {
	var t uint8
	for id, name := range typeNames {
		if name != "" && name == typ {
			t = uint8(id)
		}
	}
	if t == 0 {
		return nil, fmt.Errorf("tpc stub: cannot generate %q", typ)
	}
	m := &Msg{Type: t, From: fields["from"]}
	if s := fields["tx"]; s != "" {
		if _, err := fmt.Sscanf(s, "%d", &m.TxID); err != nil {
			return nil, fmt.Errorf("tpc stub: bad tx %q", s)
		}
	}
	return rudp.Frame{Kind: rudp.KindRaw, Payload: m.Encode()}.Encode(), nil
}
