package stack

// Snapshot support (see internal/snapshot). New wires a stack's layers once
// and for all, so its own mutable state is the two boundary sinks — what a
// re-registered delivery callback changes. The layers snapshot themselves
// through their own registry entries.

// stackState is a stack's boundary sinks at one instant.
type stackState struct {
	top    Sink
	bottom Sink
}

// SnapshotState captures the stack for the snapshot registry.
func (s *Stack) SnapshotState() any {
	return &stackState{top: s.top, bottom: s.bottom}
}

// RestoreState rewinds the stack's boundary sinks.
func (s *Stack) RestoreState(state any) {
	st := state.(*stackState)
	s.top = st.top
	s.bottom = st.bottom
}
