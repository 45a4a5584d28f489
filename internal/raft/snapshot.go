package raft

// Snapshot support (see internal/snapshot). The node's two timers are fixed
// parts of the node; the scheduler's own snapshot restores their events in
// place, so they need no state here — the same contract the GMP daemon
// uses. This is what makes O(delta) fuzzing work at 1000 nodes: forking a
// warm world copies each node's per-peer slices and log slice headers
// instead of replaying the whole election history.

// nodeState is the node's mutable protocol state.
type nodeState struct {
	term     uint64
	votedFor string
	entries  []LogEntry

	state   State
	commit  uint64
	applied uint64
	leader  string
	votes   []bool
	next    []uint64
	match   []uint64

	started   bool
	suspended bool

	rngMark uint64
	logLen  int
}

// SnapshotState captures the node for the snapshot registry.
func (n *Node) SnapshotState() any {
	return &nodeState{
		term:      n.term,
		votedFor:  n.votedFor,
		entries:   append([]LogEntry(nil), n.entries...),
		state:     n.state,
		commit:    n.commit,
		applied:   n.applied,
		leader:    n.leader,
		votes:     append([]bool(nil), n.votes...),
		next:      append([]uint64(nil), n.next...),
		match:     append([]uint64(nil), n.match...),
		started:   n.started,
		suspended: n.suspended,
		rngMark:   n.rng.Mark(),
		logLen:    n.log.Len(),
	}
}

// RestoreState rewinds the node. When the node's event log is the shared
// world log, the truncation repeats what other components already did with
// the same captured length — harmlessly idempotent.
func (n *Node) RestoreState(state any) {
	st := state.(*nodeState)
	n.term = st.term
	n.votedFor = st.votedFor
	n.entries = append([]LogEntry(nil), st.entries...)
	n.state = st.state
	n.commit = st.commit
	n.applied = st.applied
	n.leader = st.leader
	n.votes = append([]bool(nil), st.votes...)
	n.next = append([]uint64(nil), st.next...)
	n.match = append([]uint64(nil), st.match...)
	n.started = st.started
	n.suspended = st.suspended
	n.rng.Rewind(st.rngMark)
	n.log.RestoreState(st.logLen)
}

// SnapshotState captures the layer (all state lives in the node).
func (l *Layer) SnapshotState() any { return l.node.SnapshotState() }

// RestoreState rewinds the layer.
func (l *Layer) RestoreState(state any) { l.node.RestoreState(state) }
