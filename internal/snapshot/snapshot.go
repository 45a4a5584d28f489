// Package snapshot captures a running simulated world at a chosen virtual
// instant and rewinds it — repeatedly — to that instant, so N variant
// executions can fork from one warm parent instead of replaying the whole
// scenario prefix N times.
//
// The model is restore-in-place rather than fork-by-copy: the object graph
// (world, scheduler, protocol layers) is full of closures and back-pointers
// that cannot be cloned, so every component instead self-describes its
// mutable state. A Snapshotter returns an opaque saved state and can later
// write that state back into the SAME objects; pending scheduler events
// keep their identity, which is what keeps timer pointers held by protocol
// state (TCP connections, RUDP retransmitters, reassembly buffers) valid
// across a restore.
//
// A Registry is the world's roster of Snapshotters, registered at build
// time in a fixed order. Capture walks the roster once; Restore walks it
// again writing the saved states back. Restores are idempotent — the saved
// states are never consumed — so one snapshot serves any number of
// children.
package snapshot

import "fmt"

// Snapshotter is one component's self-description of its mutable state.
//
// SnapshotState returns an opaque deep-enough copy: anything the component
// may mutate after the snapshot must be copied, anything immutable (or
// identity-bearing, like event and message pointers) should be retained.
// RestoreState writes a previously returned state back into the component;
// it must leave the state reusable for further restores.
//
// Both methods are only called between scheduler events (the simulation is
// single-threaded), never concurrently.
type Snapshotter interface {
	SnapshotState() any
	RestoreState(state any)
}

// Registry is an ordered roster of the Snapshotters making up one world.
type Registry struct {
	comps []Snapshotter
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register adds a component under a diagnostic name. Registration order is
// fixed and becomes the capture/restore order; register a component once,
// at world-build time.
func (r *Registry) Register(name string, s Snapshotter) {
	if s == nil {
		panic(fmt.Sprintf("snapshot: nil snapshotter %q", name))
	}
	r.comps = append(r.comps, s)
}

// Len reports the number of registered components.
func (r *Registry) Len() int { return len(r.comps) }

// Capture snapshots every registered component, in registration order.
func (r *Registry) Capture() *Snapshot {
	s := &Snapshot{reg: r, states: make([]any, len(r.comps))}
	for i, c := range r.comps {
		s.states[i] = c.SnapshotState()
	}
	return s
}

// Snapshot is one captured world state, restorable any number of times.
type Snapshot struct {
	reg    *Registry
	states []any
}

// Restore writes the captured states back into the world's components, in
// registration order. Components registered after the capture are outside
// the snapshot's scope and would be left untouched, so restoring onto a
// registry that has grown is refused loudly.
func (s *Snapshot) Restore() {
	if len(s.reg.comps) != len(s.states) {
		panic(fmt.Sprintf("snapshot: registry grew from %d to %d components since capture",
			len(s.states), len(s.reg.comps)))
	}
	for i, c := range s.reg.comps {
		c.RestoreState(s.states[i])
	}
}
