package gmp

import "pfi/internal/simtime"

// Snapshot support (see internal/snapshot). The daemon's timers live in the
// timerTable; an entry's kind and key never change and it is its own
// scheduler event, so the table's state is a copy of the entry list (its
// arming order) and the scheduler restores the events themselves.

// timerTableState is a saved entry list.
type timerTableState struct {
	entries []*timerEntry
}

func (t *timerTable) snapshotState() *timerTableState {
	return &timerTableState{entries: append([]*timerEntry(nil), t.entries...)}
}

func (t *timerTable) restoreState(st *timerTableState) {
	// Fresh backing both ways: unset filters the live slice in place, which
	// must never reach into a saved copy.
	t.entries = append([]*timerEntry(nil), st.entries...)
}

// daemonState is the daemon's mutable protocol state.
type daemonState struct {
	group        Group
	members      []string
	inTransition bool
	transGen     uint32
	transLeader  string
	suspended    bool
	selfDead     bool
	started      bool

	timers   *timerTableState
	suspects map[string]bool
	lastHB   map[string]simtime.Time

	changing        bool
	proposed        Group
	proposedMembers []string
	acks            map[string]bool

	genCounter uint32

	onCommit func(Group)
	logLen   int
}

// SnapshotState captures the daemon for the snapshot registry.
func (d *Daemon) SnapshotState() any {
	st := &daemonState{
		group:           d.group,
		members:         append([]string(nil), d.group.Members...),
		inTransition:    d.inTransition,
		transGen:        d.transGen,
		transLeader:     d.transLeader,
		suspended:       d.suspended,
		selfDead:        d.selfDead,
		started:         d.started,
		timers:          d.timers.snapshotState(),
		suspects:        make(map[string]bool, len(d.suspects)),
		lastHB:          make(map[string]simtime.Time, len(d.lastHB)),
		changing:        d.changing,
		proposed:        d.proposed,
		proposedMembers: append([]string(nil), d.proposed.Members...),
		genCounter:      d.genCounter,
		onCommit:        d.onCommit,
		logLen:          d.log.Len(),
	}
	for k, v := range d.suspects {
		st.suspects[k] = v
	}
	for k, v := range d.lastHB {
		st.lastHB[k] = v
	}
	if d.acks != nil {
		st.acks = make(map[string]bool, len(d.acks))
		for k, v := range d.acks {
			st.acks[k] = v
		}
	}
	return st
}

// RestoreState rewinds the daemon. When the daemon's event log is the
// shared world log, the truncation repeats what other components already
// did with the same captured length — harmlessly idempotent.
func (d *Daemon) RestoreState(state any) {
	st := state.(*daemonState)
	d.group = st.group
	d.group.Members = append([]string(nil), st.members...)
	d.inTransition = st.inTransition
	d.transGen = st.transGen
	d.transLeader = st.transLeader
	d.suspended = st.suspended
	d.selfDead = st.selfDead
	d.started = st.started
	d.timers.restoreState(st.timers)
	d.suspects = make(map[string]bool, len(st.suspects))
	for k, v := range st.suspects {
		d.suspects[k] = v
	}
	d.lastHB = make(map[string]simtime.Time, len(st.lastHB))
	for k, v := range st.lastHB {
		d.lastHB[k] = v
	}
	d.changing = st.changing
	d.proposed = st.proposed
	d.proposed.Members = append([]string(nil), st.proposedMembers...)
	if st.acks == nil {
		d.acks = nil
	} else {
		d.acks = make(map[string]bool, len(st.acks))
		for k, v := range st.acks {
			d.acks[k] = v
		}
	}
	d.genCounter = st.genCounter
	d.onCommit = st.onCommit
	d.log.RestoreState(st.logLen)
}
