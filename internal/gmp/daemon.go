package gmp

import (
	"fmt"
	"slices"
	"time"

	"pfi/internal/rudp"
	"pfi/internal/simtime"
	"pfi/internal/stack"
	"pfi/internal/trace"
)

// Protocol timing, suited to a LAN (heartbeats every second).
const (
	// hbInterval spaces outgoing heartbeats.
	hbInterval = time.Second
	// hbTimeout declares a member dead after this silence.
	hbTimeout = 3500 * time.Millisecond
	// proclaimInterval spaces PROCLAIM solicitations while the group does
	// not contain every known peer.
	proclaimInterval = 5 * time.Second
	// mcTimeout bounds the leader's wait for MEMBERSHIP_CHANGE ACKs.
	mcTimeout = 2 * time.Second
	// transitionTimeout bounds a member's wait for COMMIT; on expiry it
	// reverts to a singleton group and proclaims again.
	transitionTimeout = 10 * time.Second
)

// Bugs selects which of the three historical implementation bugs are
// active. The zero value is the fully fixed implementation.
type Bugs struct {
	// SelfDeath reproduces the self-death mishandling: on missing its own
	// heartbeats the daemon reports itself dead and stays (marked down) in
	// the old group instead of forming a singleton, and its
	// proclaim-forwarding path silently drops packets.
	SelfDeath bool
	// ProclaimForward makes the leader answer a PROCLAIM's sender instead
	// of its originator, looping forwarded proclaims.
	ProclaimForward bool
	// TimerUnset inverts the timeout-unregistration logic, leaving stray
	// heartbeat-expect timers armed in IN_TRANSITION.
	TimerUnset bool
}

// Daemon is one group membership daemon (the paper's gmd).
type Daemon struct {
	env   *stack.Env
	net   *rudp.Layer
	id    string
	peers []string // all known daemons, including self
	bugs  Bugs
	log   *trace.Log

	group        Group
	inTransition bool
	transGen     uint32
	transLeader  string
	suspended    bool
	selfDead     bool // buggy post-self-death state
	started      bool

	timers   *timerTable
	suspects []string // since the last commit, each once, in no order
	// selfHB is when the daemon last heard itself or committed. Every path
	// that arms a heartbeat expectation runs commitLocal, which sets it, first.
	selfHB simtime.Time

	// Leader two-phase state.
	changing bool
	proposed Group
	acks     map[string]bool

	genCounter uint32

	onCommit func(Group)
}

// Option configures a Daemon.
type Option func(*Daemon)

// WithBugs enables historical bugs.
func WithBugs(b Bugs) Option {
	return func(d *Daemon) { d.bugs = b }
}

// WithTrace mirrors protocol events into lg.
func WithTrace(lg *trace.Log) Option {
	return func(d *Daemon) { d.log = lg }
}

// New builds a daemon on top of a reliable-UDP layer. peers must list all
// daemons in the system, including this one.
func New(env *stack.Env, net *rudp.Layer, peers []string, opts ...Option) (*Daemon, error) {
	d := &Daemon{
		env: env,
		net: net,
		id:  env.Node,
		log: trace.NewLog(),
	}
	if !slices.Contains(peers, d.id) {
		return nil, fmt.Errorf("gmp: peer list %v does not include self %q", peers, d.id)
	}
	d.peers = append([]string(nil), peers...)
	for _, opt := range opts {
		opt(d)
	}
	d.timers = newTimerTable(env.Sched, d.bugs.TimerUnset, d.onTimer)
	net.OnDeliver(d.handleDatagram)
	return d, nil
}

// --- public accessors ---------------------------------------------------------

// Group returns the current committed view.
func (d *Daemon) Group() Group { return d.group }

// InTransition reports whether the daemon is between MEMBERSHIP_CHANGE and
// COMMIT.
func (d *Daemon) InTransition() bool { return d.inTransition }

// IsLeader reports whether this daemon leads its committed group.
func (d *Daemon) IsLeader() bool { return d.group.Leader() == d.id }

// SelfDeclaredDead reports the buggy post-self-death state.
func (d *Daemon) SelfDeclaredDead() bool { return d.selfDead }

// Events returns the protocol event log.
func (d *Daemon) Events() *trace.Log { return d.log }

// OnCommit registers a callback fired at every committed view change.
func (d *Daemon) OnCommit(fn func(Group)) { d.onCommit = fn }

// ArmedHBExpect counts armed heartbeat-expect timers (Experiment 4 probes
// this to show the stray-timer bug).
func (d *Daemon) ArmedHBExpect() int { return d.timers.armedOf(timerHBExpect) }

// --- lifecycle ------------------------------------------------------------------

// Start boots (or reboots) the daemon in a singleton group and begins
// proclaiming. The generation counter survives restarts — the daemon's
// "stable storage" — so a rebooted leader never re-proposes generation
// numbers from before its crash (which would let two different views share
// a generation).
func (d *Daemon) Start() {
	if d.started {
		return
	}
	d.started = true
	d.genCounter++
	d.commitLocal(NewGroup(d.genCounter, []string{d.id}))
	d.timers.set(timerHBSend, "", hbInterval)
	d.timers.set(timerProclaim, "", jitteredProclaim(d))
}

// jitteredProclaim staggers proclaim timers by daemon id so simultaneous
// starts don't proclaim in lockstep (deterministic, id-derived).
func jitteredProclaim(d *Daemon) time.Duration {
	h := 0
	for _, c := range d.id {
		h = (h*31 + int(c)) % 997
	}
	return proclaimInterval/4 + time.Duration(h)*time.Millisecond
}

// Suspend models <Ctrl>-Z: the process stops running but virtual time (and
// everyone else) marches on. Expired timers fire right after Resume, which
// is how the paper triggered the self-death path without packet drops.
func (d *Daemon) Suspend() {
	d.suspended = true
	d.logEvent("suspend", "", "")
}

// Resume reverses Suspend.
func (d *Daemon) Resume() {
	d.suspended = false
	d.logEvent("resume", "", "")
}

// --- sending helpers --------------------------------------------------------------

func (d *Daemon) sendReliable(dst string, m *Msg) {
	m.Sender = d.id
	if err := d.net.Send(dst, m.Encode()); err != nil {
		d.logEvent("send-error", m.TypeName(), err.Error())
	}
}

func (d *Daemon) sendRaw(dst string, m *Msg) {
	m.Sender = d.id
	if err := d.net.SendRawFrame(dst, m.AppendTo(rudp.RawFrame(d.env.Msgs, m.EncodedLen()))); err != nil {
		d.logEvent("send-error", m.TypeName(), err.Error())
	}
}

func (d *Daemon) logEvent(kind, typ, note string) {
	d.log.Addf(d.env.Now(), d.id, kind, typ, 0, note)
}

// --- timers -------------------------------------------------------------------------

// onTimer dispatches an expired timeout to its handler.
func (d *Daemon) onTimer(kind timerKind, key string) {
	switch kind {
	case timerHBSend:
		d.onHBSendTick()
	case timerHBExpect:
		d.onHBExpectExpired(key)
	case timerProclaim:
		d.onProclaimTick()
	case timerMCCollect:
		d.finishChange()
	case timerTransition:
		d.onTransitionTimeout()
	}
}

func (d *Daemon) onHBSendTick() {
	d.timers.set(timerHBSend, "", hbInterval)
	if d.suspended || !d.started || d.inTransition {
		return
	}
	if d.selfDead {
		// The buggy daemon keeps polluting the group with reports of its
		// own death instead of heartbeating.
		for _, m := range d.group.Members {
			if m == d.id {
				continue
			}
			d.sendRaw(m, &Msg{Type: TypeDeadReport, Gen: d.group.Gen, Origin: d.id, Members: []string{d.id}})
		}
		d.logEvent("bad-info", "DEAD_REPORT", "buggy self-dead daemon still broadcasting")
		return
	}
	for _, m := range d.group.Members {
		d.sendRaw(m, &Msg{Type: TypeHeartbeat, Gen: d.group.Gen, Origin: d.id})
	}
}

func (d *Daemon) armHBExpect(member string) {
	d.timers.set(timerHBExpect, member, hbTimeout)
}

func (d *Daemon) onHBExpectExpired(member string) {
	if d.started && d.suspended {
		// The kernel keeps expiring timers while the process is stopped;
		// the handler effectively runs when the process resumes.
		d.timers.set(timerHBExpect, member, 50*time.Millisecond)
		return
	}
	d.timers.unsetExact(timerHBExpect, member) // it fired; drop the entry
	if !d.started {
		return
	}
	if d.inTransition {
		// No heartbeat timer should even be armed here — reaching this
		// point is the smoking gun of the timer-unset bug (Experiment 4).
		d.logEvent("hb-timeout-in-transition", "HEARTBEAT", "stray timer for "+member)
		return
	}
	if member == d.id {
		d.onSelfDeath()
		return
	}
	// If my own heartbeats are also overdue (e.g. several timers expired
	// during one suspension), the right conclusion is that I am the one
	// who "died" — handle the self case with priority, as the paper's
	// suspension experiment exercises.
	if d.env.Now().Sub(d.selfHB) >= hbTimeout {
		d.onSelfDeath()
		return
	}
	d.logEvent("member-dead", "HEARTBEAT", member)
	d.suspect(member)
	live := d.group.Without(d.suspects...)
	if len(live) > 0 && live[0] == d.id {
		// I lead the surviving members (covers leader death: the crown
		// prince is the lowest surviving id).
		d.startChange(live)
	}
}

// suspect adds id to the suspects unless it is there already.
func (d *Daemon) suspect(id string) {
	if !slices.Contains(d.suspects, id) {
		d.suspects = append(d.suspects, id)
	}
}

// unsuspect removes id from the suspects.
func (d *Daemon) unsuspect(id string) {
	if i := slices.Index(d.suspects, id); i >= 0 {
		last := len(d.suspects) - 1
		d.suspects[i] = d.suspects[last]
		d.suspects = d.suspects[:last]
	}
}

// onSelfDeath handles the daemon missing its own heartbeats (dropped
// loopback packets or a suspension long enough for timers to expire).
func (d *Daemon) onSelfDeath() {
	if d.bugs.SelfDeath {
		// Historical behaviour: tell everyone "I died", mark self down,
		// but stay in the old group with inconsistent local state.
		d.logEvent("self-death-bug", "DEAD_REPORT", "announcing own death, staying in group")
		for _, m := range d.group.Members {
			if m == d.id {
				continue
			}
			d.sendRaw(m, &Msg{Type: TypeDeadReport, Gen: d.group.Gen, Origin: d.id, Members: []string{d.id}})
		}
		d.selfDead = true
		return
	}
	// Fixed behaviour: the special case the implementors should have
	// coded — the "dead" machine is me, so re-form as a singleton.
	d.logEvent("self-death", "", "forming singleton group")
	d.genCounter++
	d.commitLocal(NewGroup(d.genCounter, []string{d.id}))
}

func (d *Daemon) onProclaimTick() {
	d.timers.set(timerProclaim, "", proclaimInterval)
	if d.suspended || !d.started || d.inTransition || d.selfDead {
		return
	}
	// A daemon "desires to be in a group" while its current group lacks
	// the lowest-id peer — the rightful system-wide leader. Machines
	// already grouped with it (notably that leader itself) do not solicit,
	// which is why the paper's Experiment 3 victim, whose own proclaims to
	// the leader were filtered, was never admitted: nobody reached out.
	if d.group.Contains(d.lowestPeer()) {
		return
	}
	for _, p := range d.peers {
		if d.group.Contains(p) {
			continue
		}
		d.logEvent("proclaim-send", "PROCLAIM", "to "+p)
		d.sendReliable(p, &Msg{Type: TypeProclaim, Gen: d.group.Gen, Origin: d.id})
	}
}

// lowestPeer returns the smallest known daemon id.
func (d *Daemon) lowestPeer() string {
	lowest := d.id
	for _, p := range d.peers {
		if p < lowest {
			lowest = p
		}
	}
	return lowest
}

// --- message handling ------------------------------------------------------------------

func (d *Daemon) handleDatagram(src string, payload []byte) {
	if !d.started || d.suspended {
		return
	}
	m, err := decodeMsg(payload, src, d.peers)
	if err != nil {
		d.logEvent("decode-error", "", err.Error())
		return
	}
	switch m.Type {
	case TypeHeartbeat:
		d.handleHeartbeat(m)
	case TypeProclaim:
		d.handleProclaim(m)
	case TypeJoin:
		d.handleJoin(m)
	case TypeMembership:
		d.handleMembershipChange(m)
	case TypeAck, TypeNak:
		d.handleAckNak(m)
	case TypeCommit:
		d.handleCommit(m)
	case TypeDeadReport:
		d.handleDeadReport(m)
	case TypeDepart:
		d.handleDepart(m)
	}
}

func (d *Daemon) handleHeartbeat(m Msg) {
	if d.inTransition || !d.group.Contains(m.Origin) {
		return
	}
	d.unsuspect(m.Origin)
	if m.Origin == d.id {
		d.selfHB = d.env.Now()
	}
	d.armHBExpect(m.Origin)
}

func (d *Daemon) handleProclaim(m Msg) {
	if d.selfDead {
		// The forwarding path in the buggy daemon calls a routine with the
		// wrong parameter type: the packet is not forwarded at all.
		d.logEvent("proclaim-forward-lost", "PROCLAIM", "parameter bug: packet dropped")
		return
	}
	if m.Origin == d.id || m.Origin == "" {
		return // my own proclaim came back; ignore
	}
	if d.IsLeader() && d.bugs.ProclaimForward && m.Sender != m.Origin && m.Sender != "" {
		// The original bug: a forwarded PROCLAIM is answered to the
		// machine that forwarded it, not the originator — so the
		// forwarder bounces it straight back and a proclaim loop forms.
		d.logEvent("proclaim-respond", "PROCLAIM", "to "+m.Sender+" (buggy: sender, not originator)")
		d.sendReliable(m.Sender, &Msg{Type: TypeProclaim, Gen: d.group.Gen, Origin: d.id})
		return
	}
	if d.group.Contains(m.Origin) {
		return // already grouped with the proclaimer
	}
	if m.Origin < d.group.Leader() {
		// The proclaimer outranks my current leader: defect and join it.
		// This is the paper's separation experiment observation — "since
		// the original leader had a lower IP address than the new leader,
		// each machine responded to the original leader with a JOIN".
		d.logEvent("join-send", "JOIN", "to "+m.Origin)
		d.sendReliable(m.Origin, &Msg{Type: TypeJoin, Gen: d.group.Gen, Origin: d.id})
		return
	}
	if !d.IsLeader() {
		// A proclaim from a machine that does not outrank my leader:
		// forward it, preserving the originator.
		d.logEvent("proclaim-forward", "PROCLAIM", "origin "+m.Origin+" -> "+d.group.Leader())
		d.sendReliable(d.group.Leader(), &Msg{Type: TypeProclaim, Gen: m.Gen, Origin: m.Origin})
		return
	}
	// Leader with a lower id than the proclaimer: invite it to join me
	// with a PROCLAIM of my own.
	d.logEvent("proclaim-respond", "PROCLAIM", "to "+m.Origin)
	d.sendReliable(m.Origin, &Msg{Type: TypeProclaim, Gen: d.group.Gen, Origin: d.id})
}

func (d *Daemon) handleJoin(m Msg) {
	if d.selfDead {
		d.logEvent("proclaim-forward-lost", "JOIN", "parameter bug: packet dropped")
		return
	}
	if !d.IsLeader() {
		d.logEvent("join-forward", "JOIN", "origin "+m.Origin+" -> "+d.group.Leader())
		d.sendReliable(d.group.Leader(), &Msg{Type: TypeJoin, Gen: m.Gen, Origin: m.Origin})
		return
	}
	if d.group.Contains(m.Origin) || d.inTransition {
		return
	}
	members := append(d.group.Without(), m.Origin)
	d.startChange(members)
}

// startChange runs phase 1 of the two-phase membership change (leader).
func (d *Daemon) startChange(members []string) {
	if d.changing || d.inTransition {
		return
	}
	d.genCounter++
	if d.group.Gen >= d.genCounter {
		d.genCounter = d.group.Gen + 1
	}
	d.proposed = NewGroup(d.genCounter, members)
	if !d.proposed.Contains(d.id) {
		d.proposed = NewGroup(d.genCounter, append(d.proposed.Members, d.id))
	}
	d.changing = true
	d.acks = map[string]bool{d.id: true}
	d.logEvent("mc-send", "MEMBERSHIP_CHANGE", d.proposed.String())
	for _, m := range d.proposed.Members {
		if m == d.id {
			continue
		}
		d.sendReliable(m, &Msg{Type: TypeMembership, Gen: d.proposed.Gen, Origin: d.id, Members: d.proposed.Members})
	}
	if len(d.proposed.Members) == 1 {
		d.finishChange()
		return
	}
	d.timers.set(timerMCCollect, "", mcTimeout)
}

// finishChange runs phase 2: COMMIT to everyone who ACKed.
func (d *Daemon) finishChange() {
	if !d.changing {
		return
	}
	d.changing = false
	d.timers.unset(timerMCCollect, "")
	var final []string
	for _, m := range d.proposed.Members {
		if d.acks[m] {
			final = append(final, m)
		}
	}
	g := NewGroup(d.proposed.Gen, final)
	d.logEvent("commit-send", "COMMIT", g.String())
	for _, m := range g.Members {
		if m == d.id {
			continue
		}
		d.sendReliable(m, &Msg{Type: TypeCommit, Gen: g.Gen, Origin: d.id, Members: g.Members})
	}
	d.commitLocal(g)
}

func (d *Daemon) handleMembershipChange(m Msg) {
	g := NewGroup(m.Gen, m.Members)
	// Validity: the sender must be the would-be leader of the proposed
	// group and the proposal must include us.
	if m.Origin != g.Leader() || !g.Contains(d.id) {
		d.logEvent("mc-reject", "MEMBERSHIP_CHANGE", "invalid leader "+m.Origin)
		d.sendReliable(m.Origin, &Msg{Type: TypeNak, Gen: m.Gen, Origin: d.id})
		return
	}
	if m.Gen <= d.group.Gen && !d.inTransition {
		// Stale proposal (e.g. a retransmission after commit); re-ack so
		// the leader can make progress.
		d.sendReliable(m.Origin, &Msg{Type: TypeAck, Gen: m.Gen, Origin: d.id})
		return
	}
	// Leave the old group: IN_TRANSITION. All timers except the
	// membership-change (transition) timer must be unset — this is the
	// code path whose inverted unset logic Experiment 4 exposed.
	d.inTransition = true
	d.transGen = m.Gen
	d.transLeader = m.Origin
	d.changing = false
	d.timers.unset(timerHBExpect, "")
	d.timers.unset(timerMCCollect, "")
	d.logEvent("transition-enter", "MEMBERSHIP_CHANGE", g.String())
	d.timers.set(timerTransition, "", transitionTimeout)
	d.sendReliable(m.Origin, &Msg{Type: TypeAck, Gen: m.Gen, Origin: d.id})
}

func (d *Daemon) handleAckNak(m Msg) {
	if !d.changing || m.Gen != d.proposed.Gen {
		return
	}
	if m.Type == TypeNak {
		d.logEvent("nak-recv", "NAK", "from "+m.Origin)
		return
	}
	d.acks[m.Origin] = true
	for _, mem := range d.proposed.Members {
		if !d.acks[mem] {
			return
		}
	}
	d.finishChange()
}

func (d *Daemon) handleCommit(m Msg) {
	g := NewGroup(m.Gen, m.Members)
	if !g.Contains(d.id) {
		return
	}
	if d.inTransition && m.Gen == d.transGen && m.Origin == d.transLeader {
		d.commitLocal(g)
		return
	}
	if !d.inTransition && m.Gen > d.group.Gen {
		// Commit for a change whose phase 1 we re-acked after a stale
		// retransmission; adopt it.
		d.commitLocal(g)
	}
}

func (d *Daemon) handleDeadReport(m Msg) {
	dead := ""
	if len(m.Members) > 0 {
		dead = m.Members[0]
	}
	d.logEvent("dead-report-recv", "DEAD_REPORT", m.Origin+" reports "+dead+" dead")
	if dead == "" || d.inTransition {
		return
	}
	if !d.IsLeader() {
		return
	}
	if !d.group.Contains(dead) || dead == d.id {
		return
	}
	d.suspect(dead)
	d.startChange(d.group.Without(dead))
}

// handleDepart processes a graceful-leave notice — the paper's "normal
// shutdown, such as a scheduled maintenance": the lowest-id member left
// runs the two-phase change for the shrunken view. No daemon sends one; a
// filter injects it through the stub.
func (d *Daemon) handleDepart(m Msg) {
	if m.Origin == d.id || !d.group.Contains(m.Origin) || d.inTransition {
		return
	}
	d.logEvent("depart-recv", "DEPART", m.Origin+" left")
	d.suspect(m.Origin)
	live := d.group.Without(d.suspects...)
	if len(live) > 0 && live[0] == d.id {
		d.startChange(live)
	}
}

func (d *Daemon) onTransitionTimeout() {
	if !d.inTransition {
		return
	}
	d.logEvent("transition-timeout", "", "reverting to singleton")
	d.inTransition = false
	d.genCounter++
	d.commitLocal(NewGroup(d.genCounter, []string{d.id}))
}

// commitLocal adopts a committed view and restarts steady-state timers.
func (d *Daemon) commitLocal(g Group) {
	d.inTransition = false
	d.changing = false
	d.selfDead = false
	d.suspects = d.suspects[:0]
	d.timers.unset(timerTransition, "")
	if g.Gen > d.genCounter {
		d.genCounter = g.Gen
	}
	d.group = g
	d.logEvent("commit", "COMMIT", g.String())
	// Arm heartbeat expectations for every member, self included — the
	// self-expectation is what makes the self-death experiments possible.
	d.selfHB = d.env.Now() // every committed view contains the daemon
	for _, m := range g.Members {
		d.armHBExpect(m)
	}
	if d.onCommit != nil {
		d.onCommit(g)
	}
}
