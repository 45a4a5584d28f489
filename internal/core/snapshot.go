package core

import (
	"pfi/internal/message"
	"pfi/internal/script"
	"pfi/internal/simtime"
)

// This file makes the PFI layer snapshot-capable (see internal/snapshot).
// A Layer's mutable state is its random stream position, its sync bus, and
// the two filters; each filter adds script state (interpreter globals and
// procs), the hold queue, pending delayed forwards (found on the
// scheduler's queue, which carries them), and counters. Pointers — held
// messages, compiled scripts — are retained so the events the
// scheduler holds stay valid; message content is saved/restored by value.

// busState is a SyncBus's flags and pending waiters.
type busState struct {
	flags   map[string]bool
	waiters map[string][]func()
}

// SnapshotState captures the bus. Waiter closures are retained by pointer:
// a waiter registered before the capture fires identically in every forked
// child because the filter state it captures is itself restored.
func (b *SyncBus) SnapshotState() any {
	st := &busState{
		flags:   make(map[string]bool, len(b.flags)),
		waiters: make(map[string][]func(), len(b.waiters)),
	}
	for k, v := range b.flags {
		st.flags[k] = v
	}
	for k, v := range b.waiters {
		st.waiters[k] = append([]func(){}, v...)
	}
	return st
}

// RestoreState rewinds the bus. Waiters registered after the capture are
// dropped; waiters consumed since the capture are re-registered.
func (b *SyncBus) RestoreState(state any) {
	st := state.(*busState)
	b.flags = make(map[string]bool, len(st.flags))
	for k, v := range st.flags {
		b.flags[k] = v
	}
	b.waiters = make(map[string][]func(), len(st.waiters))
	for k, v := range st.waiters {
		b.waiters[k] = append([]func(){}, v...)
	}
}

// heldMsg is one message the filter is sitting on — a hold-queue entry or
// a pending delayed forward: the message pointer plus its content at
// capture time (a message released during a forked child is mutated
// downstream, so content must roll back).
type heldMsg struct {
	m  *message.Message
	st message.State
}

// filterState is one filter's mutable state.
type filterState struct {
	prepared *script.Prepared
	held     []heldMsg
	delayed  []heldMsg
	stats    Stats
	engine   *script.Interp // nil: not built yet; prepared is bound to it
	interp   any
}

func (f *Filter) snapshotState() *filterState {
	st := &filterState{prepared: f.prepared, stats: f.stats}
	if st.engine = f.interp; st.engine != nil {
		st.interp = st.engine.SnapshotState()
	}
	st.held = make([]heldMsg, len(f.held))
	for i, m := range f.held {
		st.held[i] = heldMsg{m: m, st: m.SaveState()}
	}
	f.layer.env.Sched.EachPending(func(h simtime.Handler) {
		if d, ok := h.(*delayedForward); ok && d.f == f {
			st.delayed = append(st.delayed, heldMsg{m: d.m, st: d.m.SaveState()})
		}
	})
	return st
}

func (f *Filter) restoreState(st *filterState) {
	f.prepared = st.prepared
	f.stats = st.stats
	// A capture taken before the engine was built restores "no engine":
	// whatever a fork installed since goes with it, and the next use builds
	// a fresh one.
	if f.interp = st.engine; f.interp != nil {
		f.interp.RestoreState(st.interp)
	}
	f.held = f.held[:0]
	for _, h := range st.held {
		h.m.RestoreState(h.st)
		f.held = append(f.held, h.m)
	}
	for _, d := range st.delayed {
		d.m.RestoreState(d.st)
	}
}

// layerState is a PFI layer's mutable state.
type layerState struct {
	rngMark uint64
	bus     any
	send    *filterState
	recv    *filterState
}

// SnapshotState captures the layer for the snapshot registry.
func (l *Layer) SnapshotState() any {
	return &layerState{
		rngMark: l.rng.Mark(),
		bus:     l.bus.SnapshotState(),
		send:    l.send.snapshotState(),
		recv:    l.recv.snapshotState(),
	}
}

// RestoreState rewinds the layer. When several layers share one SyncBus,
// each restores it with an identical capture taken at the same instant, so
// the repeats are harmless.
func (l *Layer) RestoreState(state any) {
	st := state.(*layerState)
	l.rng.Rewind(st.rngMark)
	l.bus.RestoreState(st.bus)
	l.send.restoreState(st.send)
	l.recv.restoreState(st.recv)
}
