package gmp

import "pfi/internal/simtime"

// Snapshot support (see internal/snapshot). The daemon's timers live in the
// timerTable; an entry's kind and key never change and it is its own
// scheduler event, so the table's state is which entries are registered,
// each with its arming stamp (a re-arm rewrites the stamp in place), and the
// arming counter; the scheduler restores the events themselves.

// savedTimer is one registered entry and its arming stamp.
type savedTimer struct {
	e     *timerEntry
	armed uint64
}

// timerTableState is a saved table.
type timerTableState struct {
	entries []savedTimer
	armed   uint64
}

func (t *timerTable) snapshotState() *timerTableState {
	st := &timerTableState{armed: t.armed}
	for _, b := range t.kinds {
		for _, e := range b {
			st.entries = append(st.entries, savedTimer{e, e.armed})
		}
	}
	return st
}

// restoreState refills the live buckets in place: they never share backing
// with a saved state, so unset's swap-deletes cannot reach into one.
func (t *timerTable) restoreState(st *timerTableState) {
	for k := range t.kinds {
		t.kinds[k] = t.kinds[k][:0]
	}
	for _, se := range st.entries {
		se.e.armed = se.armed
		t.kinds[se.e.kind] = append(t.kinds[se.e.kind], se.e)
	}
	t.armed = st.armed
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
	suspects []string
	selfHB   simtime.Time

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
		suspects:        append([]string(nil), d.suspects...),
		selfHB:          d.selfHB,
		changing:        d.changing,
		proposed:        d.proposed,
		proposedMembers: append([]string(nil), d.proposed.Members...),
		genCounter:      d.genCounter,
		onCommit:        d.onCommit,
		logLen:          d.log.Len(),
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
	d.suspects = append(d.suspects[:0], st.suspects...)
	d.selfHB = st.selfHB
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
