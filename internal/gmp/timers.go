package gmp

import (
	"time"

	"pfi/internal/simtime"
)

// Timer kinds used by the daemon. A kind doubles as the diagnostic label of
// the timer's scheduler event.
const (
	timerHBSend     = "gmp-hb-send"
	timerHBExpect   = "gmp-hb-expect"
	timerProclaim   = "gmp-proclaim"
	timerMCCollect  = "gmp-mc-collect"
	timerTransition = "gmp-transition"
)

// timerEntry is one registered timeout and its scheduler event, in one
// object.
type timerEntry struct {
	simtime.Event
	t    *timerTable
	kind string
	key  string
}

// Fire implements simtime.Handler.
func (e *timerEntry) Fire() { e.t.fire(e.kind, e.key) }

// timerTable manages the daemon's named timeouts. The paper's Experiment 4
// found a logic inversion in the original unregistration routine: "if an
// argument is NULL, all timeouts of the same type are unregistered. If the
// argument is non-NULL, only the first is unregistered. It worked the
// opposite of how it should have." unsetBug reproduces that inversion.
type timerTable struct {
	sched    *simtime.Scheduler
	fire     func(kind, key string) // the owner's expiry handler
	entries  []*timerEntry          // arming order (deterministic "first")
	unsetBug bool
}

func newTimerTable(s *simtime.Scheduler, unsetBug bool, fire func(kind, key string)) *timerTable {
	return &timerTable{sched: s, unsetBug: unsetBug, fire: fire}
}

// set arms the (kind, key) timer. Re-arming — the common case: every
// heartbeat received re-arms an expectation — reuses the entry and its
// event: the entry moves to the end of the arming order, exactly where a
// fresh one would go, and the scheduler counts a fresh registration.
func (t *timerTable) set(kind, key string, d time.Duration) {
	e := t.take(kind, key)
	if e == nil {
		e = &timerEntry{t: t, kind: kind, key: key}
	}
	t.entries = append(t.entries, e)
	t.sched.Arm(&e.Event, d, kind, e)
}

// take removes and returns the (kind, key) entry, or nil.
func (t *timerTable) take(kind, key string) *timerEntry {
	for i, e := range t.entries {
		if e.kind == kind && e.key == key {
			t.entries = append(t.entries[:i], t.entries[i+1:]...)
			return e
		}
	}
	return nil
}

// isSet reports whether the (kind, key) timer is armed.
func (t *timerTable) isSet(kind, key string) bool {
	for _, e := range t.entries {
		if e.kind == kind && e.key == key && e.Pending() {
			return true
		}
	}
	return false
}

// armedOf counts armed timers of a kind.
func (t *timerTable) armedOf(kind string) int {
	n := 0
	for _, e := range t.entries {
		if e.kind == kind && e.Pending() {
			n++
		}
	}
	return n
}

// unsetExact always removes exactly the (kind, key) entry, bypassing the
// bug; expiry handlers use it to drop the entry that just fired.
func (t *timerTable) unsetExact(kind, key string) {
	if e := t.take(kind, key); e != nil {
		t.sched.Cancel(&e.Event)
	}
}

// unset removes timers per the protocol's intended semantics: key == ""
// means "all timeouts of this kind", a non-empty key means "that one".
// With unsetBug the behaviours are swapped, as in the student code.
func (t *timerTable) unset(kind, key string) {
	all := key == ""
	if t.unsetBug {
		all = !all
	}
	if all {
		kept := t.entries[:0]
		for _, e := range t.entries {
			if e.kind == kind {
				t.sched.Cancel(&e.Event)
				continue
			}
			kept = append(kept, e)
		}
		t.entries = kept
		return
	}
	// Remove only the first entry of the kind (the buggy NULL path removes
	// the first regardless of key; the correct keyed path removes the
	// first match, which is the same entry when keys are unique).
	for i, e := range t.entries {
		if e.kind != kind {
			continue
		}
		if t.unsetBug || e.key == key {
			t.sched.Cancel(&e.Event)
			t.entries = append(t.entries[:i], t.entries[i+1:]...)
			return
		}
	}
}

// unsetAllKinds cancels everything (daemon shutdown).
func (t *timerTable) unsetAllKinds() {
	for _, e := range t.entries {
		t.sched.Cancel(&e.Event)
	}
	t.entries = nil
}
