package raft

import (
	"fmt"
	"time"

	"pfi/internal/dist"
	"pfi/internal/simtime"
	"pfi/internal/trace"
)

// State is a node's role.
type State uint8

// Roles.
const (
	StateFollower State = iota
	StateCandidate
	StateLeader
)

// String renders the role.
func (s State) String() string {
	switch s {
	case StateFollower:
		return "follower"
	case StateCandidate:
		return "candidate"
	case StateLeader:
		return "leader"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// Protocol timing, scaled to 1000-node worlds: heartbeats every second,
// elections after 3–6 s of leader silence. Election timeouts are drawn
// per-expiry from [electionMin, electionMax) out of the node's own seeded
// source — that per-node randomness doubles as the clock-skew model: no two
// nodes' timers fire in lockstep, exactly as free-running crystal clocks
// would drift apart.
const (
	// heartbeatInterval spaces the leader's empty AppendEntries.
	heartbeatInterval = time.Second
	// electionMin/electionMax bound the randomized election timeout.
	electionMin = 3 * time.Second
	electionMax = 6 * time.Second
	// maxBatch caps entries per AppendEntries message.
	maxBatch = 64
)

// Bugs selects deliberately broken behaviours for the seeded-bug oracle
// tests. The zero value is the correct implementation.
type Bugs struct {
	// SkipVotePersist drops the votedFor record across a restart, letting a
	// rebooted node grant a second vote in the same term.
	SkipVotePersist bool
	// AckBeforeQuorum makes the leader advance its commit index (and apply)
	// the moment an entry is appended locally, before any replication.
	AckBeforeQuorum bool
}

// SendFunc transmits one protocol message to a peer. The layer adapter
// encodes it onto the simulated network; in-memory property tests enqueue a
// copy. The message is lent for the call only: the node fills one outgoing
// Msg for every send, and an APPEND_ENTRIES carries a slice of the leader's
// own log, so a transport that keeps the message past its return copies it,
// Entries included.
type SendFunc func(dst string, m *Msg)

// Node is one raft participant. Its core is transport-agnostic: it talks
// to peers only through the SendFunc and to time only through the
// scheduler, so the same state machine runs under netsim or in a bare
// in-memory harness.
type Node struct {
	sched *simtime.Scheduler
	id    string
	peers []string // all node ids including self; shared, never mutated
	self  int      // this node's position in peers
	// index resolves a name to its position in peers. Only a node that
	// tallies responses — a candidate, a leader — asks, so it is built on
	// the first question: a follower of a 250-node cluster never pays for it.
	index map[string]int
	bugs  Bugs
	log   *trace.Log
	rng   *dist.Source
	send  SendFunc
	out   Msg // the one outgoing message; see outgoing

	// Persistent state: survives Stop/Start (the simulated stable storage).
	term     uint64
	votedFor string
	entries  []LogEntry

	// Volatile state.
	state   State
	commit  uint64
	applied uint64
	// Per-peer tallies, indexed by position in peers; nil unless the state
	// says otherwise.
	votes []bool   // candidate: who granted its vote
	next  []uint64 // leader: the next log index to send
	match []uint64 // leader: the highest index known replicated

	started   bool
	suspended bool

	election  simtime.Timer
	heartbeat simtime.Timer
}

// Option configures a Node.
type Option func(*Node)

// WithBugs enables seeded bugs.
func WithBugs(b Bugs) Option {
	return func(n *Node) { n.bugs = b }
}

// WithTrace mirrors protocol events into lg.
func WithTrace(lg *trace.Log) Option {
	return func(n *Node) { n.log = lg }
}

// WithRand sets the node's private randomness source (election jitter).
func WithRand(src *dist.Source) Option {
	return func(n *Node) { n.rng = src }
}

// NewNode builds a raft node. peers must list every node in the cluster,
// including this one.
func NewNode(sched *simtime.Scheduler, id string, peers []string, send SendFunc, opts ...Option) (*Node, error) {
	n := &Node{
		sched: sched,
		id:    id,
		peers: peers,
		log:   trace.NewLog(),
		send:  send,
	}
	n.election.Init(sched, n.onElectionTimeout)
	n.heartbeat.Init(sched, n.onHeartbeatTick)
	n.self = -1
	for i, p := range peers {
		if p == id {
			n.self = i
			break
		}
	}
	if n.self < 0 {
		return nil, fmt.Errorf("raft: peer list does not include self %q", id)
	}
	for _, opt := range opts {
		opt(n)
	}
	if n.rng == nil {
		n.rng = dist.NewSource(1).Split("raft:" + id)
	}
	return n, nil
}

// --- accessors -----------------------------------------------------------

// State returns the node's role.
func (n *Node) State() State { return n.state }

// Term returns the current term.
func (n *Node) Term() uint64 { return n.term }

// IsLeader reports whether this node currently leads.
func (n *Node) IsLeader() bool { return n.started && n.state == StateLeader }

// Commit returns the commit index.
func (n *Node) Commit() uint64 { return n.commit }

// Applied returns the apply index.
func (n *Node) Applied() uint64 { return n.applied }

// LastIndex returns the index of the last log entry (0 for an empty log).
func (n *Node) LastIndex() uint64 { return uint64(len(n.entries)) }

// EntryAt returns the log entry at a 1-based index.
func (n *Node) EntryAt(idx uint64) (LogEntry, bool) {
	if idx < 1 || idx > n.LastIndex() {
		return LogEntry{}, false
	}
	return n.entries[idx-1], true
}

func (n *Node) lastTerm() uint64 {
	if len(n.entries) == 0 {
		return 0
	}
	return n.entries[len(n.entries)-1].Term
}

func (n *Node) quorum() int { return len(n.peers)/2 + 1 }

func (n *Node) logEvent(kind, typ string, seq uint64, note string) {
	n.log.Addf(n.sched.Now(), n.id, kind, typ, seq, note)
}

// --- lifecycle -----------------------------------------------------------

// Start boots (or reboots) the node as a follower. Term, vote, and log
// survive restarts — the node's stable storage — except that the seeded
// SkipVotePersist bug forgets the vote, which is exactly what lets a
// rebooted node vote twice in one term.
func (n *Node) Start() {
	if n.started {
		return
	}
	n.started = true
	n.suspended = false
	n.state = StateFollower
	n.commit, n.applied = 0, 0
	n.votes, n.next, n.match = nil, nil, nil
	if n.bugs.SkipVotePersist {
		n.votedFor = ""
	}
	n.logEvent("start", "", n.term, "")
	n.armElection()
}

// Stop halts the node entirely (a process crash as far as the protocol is
// concerned: timers cancelled, traffic ignored, volatile state dropped).
func (n *Node) Stop() {
	if !n.started {
		return
	}
	n.started = false
	n.suspended = false
	n.election.Stop()
	n.heartbeat.Stop()
	n.state = StateFollower
	n.logEvent("stop", "", n.term, "")
}

// Suspend models <Ctrl>-Z churn: the process stops running while virtual
// time (and the rest of the cluster) marches on; expired timers fire right
// after Resume.
func (n *Node) Suspend() {
	if !n.started || n.suspended {
		return
	}
	n.suspended = true
	n.logEvent("suspend", "", n.term, "")
}

// Resume reverses Suspend.
func (n *Node) Resume() {
	if !n.started || !n.suspended {
		return
	}
	n.suspended = false
	n.logEvent("resume", "", n.term, "")
}

// --- timers --------------------------------------------------------------

const suspendDefer = 50 * time.Millisecond

func (n *Node) armElection() {
	d := electionMin + time.Duration(n.rng.Intn(int(electionMax-electionMin)))
	n.election.Arm(d, "raft-election")
}

func (n *Node) onElectionTimeout() {
	if !n.started {
		return
	}
	if n.suspended {
		// The kernel keeps expiring timers while the process is stopped;
		// the handler effectively runs when the process resumes.
		n.election.Arm(suspendDefer, "raft-election")
		return
	}
	if n.state == StateLeader {
		return
	}
	n.startElection()
}

func (n *Node) onHeartbeatTick() {
	if !n.started || n.state != StateLeader {
		return
	}
	if n.suspended {
		n.heartbeat.Arm(suspendDefer, "raft-heartbeat")
		return
	}
	n.broadcastAppend()
	n.heartbeat.Arm(heartbeatInterval, "raft-heartbeat")
}

// --- elections -----------------------------------------------------------

func (n *Node) startElection() {
	n.term++
	n.state = StateCandidate
	n.votedFor = n.id
	n.votes = make([]bool, len(n.peers))
	n.votes[n.self] = true
	n.logEvent("candidate", "REQUEST_VOTE", n.term, "")
	li, lt := n.LastIndex(), n.lastTerm()
	for i, p := range n.peers {
		if i == n.self {
			continue
		}
		m := n.outgoing(TypeRequestVote)
		m.LastIndex, m.LastTerm = li, lt
		n.send(p, m)
	}
	n.armElection()
	n.maybeWin()
}

// stepDown adopts a higher term (or surrenders leadership) and reverts to
// follower.
func (n *Node) stepDown(term uint64) {
	if term > n.term {
		n.term = term
		n.votedFor = ""
	}
	if n.state == StateLeader {
		n.heartbeat.Stop()
		n.armElection()
	}
	n.state = StateFollower
	n.votes, n.next, n.match = nil, nil, nil
}

func (n *Node) handleRequestVote(m *Msg) {
	if m.Term > n.term {
		n.stepDown(m.Term)
	}
	granted := false
	if m.Term == n.term && (n.votedFor == "" || n.votedFor == m.From) && n.logUpToDate(m.LastTerm, m.LastIndex) {
		granted = true
		n.votedFor = m.From
		n.armElection()
	}
	resp := n.outgoing(TypeVoteResp)
	resp.Granted = granted
	n.send(m.From, resp)
}

// logUpToDate implements the §5.4.1 voting restriction.
func (n *Node) logUpToDate(lastTerm, lastIndex uint64) bool {
	myTerm := n.lastTerm()
	if lastTerm != myTerm {
		return lastTerm > myTerm
	}
	return lastIndex >= n.LastIndex()
}

func (n *Node) handleVoteResp(m *Msg) {
	if m.Term > n.term {
		n.stepDown(m.Term)
		return
	}
	if n.state != StateCandidate || m.Term != n.term || !m.Granted {
		return
	}
	from, ok := n.peerIndex(m.From)
	if !ok {
		return
	}
	n.votes[from] = true
	n.maybeWin()
}

// peerIndex resolves a sender to its position in peers. A name from outside
// the cluster (a forged From) has none, and its responses count for nothing.
func (n *Node) peerIndex(name string) (int, bool) {
	if n.index == nil {
		n.index = make(map[string]int, len(n.peers))
		for i, p := range n.peers {
			n.index[p] = i
		}
	}
	i, ok := n.index[name]
	return i, ok
}

func (n *Node) maybeWin() {
	if n.state != StateCandidate {
		return
	}
	granted := 0
	for _, v := range n.votes {
		if v {
			granted++
		}
	}
	if granted < n.quorum() {
		return
	}
	n.state = StateLeader
	n.votes = nil
	n.next = make([]uint64, len(n.peers))
	n.match = make([]uint64, len(n.peers))
	ni := n.LastIndex() + 1
	for i := range n.next {
		n.next[i] = ni
	}
	// Seq carries the term: the election-safety oracle groups these events
	// by term and flags any term elected on two distinct nodes.
	n.logEvent("elected", "LEADER", n.term, fmt.Sprintf("last=%d commit=%d", n.LastIndex(), n.commit))
	n.election.Stop()
	n.advanceCommit() // a single-node cluster commits immediately
	n.broadcastAppend()
	n.heartbeat.Arm(heartbeatInterval, "raft-heartbeat")
}

// --- replication ---------------------------------------------------------

// Propose appends a client command at the leader and starts replicating it.
// It reports the assigned index and false when this node cannot accept
// proposals (not started, suspended, or not the leader).
func (n *Node) Propose(data string) (uint64, bool) {
	if !n.started || n.suspended || n.state != StateLeader {
		return 0, false
	}
	n.entries = append(n.entries, LogEntry{Term: n.term, Data: data})
	idx := n.LastIndex()
	n.logEvent("propose", "ENTRY", idx, data)
	if n.bugs.AckBeforeQuorum {
		// The seeded commit-safety bug: acknowledge (apply) before any
		// follower has the entry.
		n.commit = idx
		n.applyCommitted()
	}
	n.advanceCommit()
	n.broadcastAppend()
	return idx, true
}

func (n *Node) broadcastAppend() {
	for i := range n.peers {
		if i != n.self {
			n.sendAppend(i)
		}
	}
}

// sendAppend sends the peer at position to the entries it is missing, or a
// bare heartbeat.
func (n *Node) sendAppend(to int) {
	ni := n.next[to]
	if ni < 1 {
		ni = 1
	}
	prevIdx := ni - 1
	var prevTerm uint64
	if prevIdx >= 1 {
		prevTerm = n.entries[prevIdx-1].Term
	}
	m := n.outgoing(TypeAppend)
	m.PrevIndex, m.PrevTerm, m.Commit = prevIdx, prevTerm, n.commit
	if ni <= n.LastIndex() {
		tail := n.entries[ni-1:]
		if len(tail) > maxBatch {
			tail = tail[:maxBatch]
		}
		// Lent, not copied: the transport is done with the message when
		// send returns (SendFunc).
		m.Entries = tail
	}
	n.send(n.peers[to], m)
}

// sendAppendResp answers an APPEND_ENTRIES.
func (n *Node) sendAppendResp(to string, success bool, match uint64) {
	m := n.outgoing(TypeAppendResp)
	m.Success, m.Match = success, match
	n.send(to, m)
}

// outgoing readies the node's one outgoing message: typ from this node at
// its current term, every other field cleared. The caller fills the fields
// typ carries and sends it; a re-entrant send, from a filter that answers
// this one, refills it only after this one was encoded. Zeroing and then
// filling field by field copies nothing: assigning a composite literal to a
// Msg builds it aside and copies it in.
func (n *Node) outgoing(typ uint8) *Msg {
	m := &n.out
	*m = Msg{}
	m.Type, m.Term, m.From = typ, n.term, n.id
	return m
}

func (n *Node) handleAppend(m *Msg) {
	if m.Term < n.term {
		n.sendAppendResp(m.From, false, 0)
		return
	}
	// Equal or higher term: the sender is the legitimate leader of that
	// term; candidates and (buggy twin-)leaders revert to follower.
	n.stepDown(m.Term)
	n.armElection()
	last := n.LastIndex()
	if m.PrevIndex > last || (m.PrevIndex >= 1 && n.entries[m.PrevIndex-1].Term != m.PrevTerm) {
		hint := m.PrevIndex
		if last < hint {
			hint = last
		}
		if hint > 0 {
			hint--
		}
		n.sendAppendResp(m.From, false, hint)
		return
	}
	idx := m.PrevIndex
	for _, e := range m.Entries {
		idx++
		if idx <= n.LastIndex() {
			if n.entries[idx-1].Term == e.Term {
				continue // already have it
			}
			// Conflict: truncate our divergent suffix. If committed entries
			// die here the commit-safety oracle sees the divergent applies.
			n.entries = n.entries[:idx-1]
		}
		n.entries = append(n.entries, e)
	}
	lastNew := m.PrevIndex + uint64(len(m.Entries))
	if m.Commit > n.commit {
		c := m.Commit
		if c > lastNew {
			c = lastNew
		}
		if c > n.commit {
			n.commit = c
			n.applyCommitted()
		}
	}
	n.sendAppendResp(m.From, true, lastNew)
}

func (n *Node) handleAppendResp(m *Msg) {
	if m.Term > n.term {
		n.stepDown(m.Term)
		return
	}
	if n.state != StateLeader || m.Term != n.term {
		return
	}
	from, ok := n.peerIndex(m.From)
	if !ok {
		return
	}
	if m.Success {
		if m.Match > n.match[from] {
			n.match[from] = m.Match
		}
		if m.Match+1 > n.next[from] {
			n.next[from] = m.Match + 1
		}
		n.advanceCommit()
		if n.next[from] <= n.LastIndex() {
			n.sendAppend(from) // keep streaming the backlog
		}
		return
	}
	// Rejected: back up to the follower's hint and re-probe.
	ni := m.Match + 1
	if cur := n.next[from]; ni >= cur && cur > 1 {
		ni = cur - 1
	}
	if ni < 1 {
		ni = 1
	}
	n.next[from] = ni
	n.sendAppend(from)
}

// advanceCommit moves the leader's commit index to the highest
// current-term index a quorum has replicated (§5.4.2: older-term entries
// commit only transitively).
func (n *Node) advanceCommit() {
	if n.state != StateLeader {
		return
	}
	for idx := n.commit + 1; idx <= n.LastIndex(); idx++ {
		if n.entries[idx-1].Term != n.term {
			continue
		}
		cnt := 1 // self
		for i, match := range n.match {
			if i != n.self && match >= idx {
				cnt++
			}
		}
		if cnt < n.quorum() {
			break // match indexes are monotone; higher slots can't have more
		}
		n.commit = idx
	}
	n.applyCommitted()
}

// applyCommitted applies every newly committed entry, logging one "apply"
// event per index. Seq is the index and the note identifies the entry
// (data plus the term that wrote it) — the commit-safety oracle flags any
// index applied with two different identities anywhere in the cluster's
// history.
func (n *Node) applyCommitted() {
	for n.applied < n.commit && n.applied < n.LastIndex() {
		n.applied++
		e := n.entries[n.applied-1]
		n.logEvent("apply", "ENTRY", n.applied, fmt.Sprintf("%s#%d", e.Data, e.Term))
	}
}

// --- dispatch ------------------------------------------------------------

// Handle processes one inbound protocol message. Stopped and suspended
// nodes drop traffic on the floor.
func (n *Node) Handle(m *Msg) {
	if !n.started || n.suspended || m.From == n.id {
		return
	}
	switch m.Type {
	case TypeRequestVote:
		n.handleRequestVote(m)
	case TypeVoteResp:
		n.handleVoteResp(m)
	case TypeAppend:
		n.handleAppend(m)
	case TypeAppendResp:
		n.handleAppendResp(m)
	}
}
