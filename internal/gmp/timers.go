package gmp

import (
	"time"

	"pfi/internal/simtime"
)

// timerKind names one of the daemon's kinds of timeout; it indexes the
// timer table's buckets.
type timerKind uint8

// Timer kinds used by the daemon.
const (
	timerHBSend timerKind = iota
	timerHBExpect
	timerProclaim
	timerMCCollect
	timerTransition
	numTimerKinds
)

// timerNames label each kind's scheduler events.
var timerNames = [numTimerKinds]string{
	timerHBSend:     "gmp-hb-send",
	timerHBExpect:   "gmp-hb-expect",
	timerProclaim:   "gmp-proclaim",
	timerMCCollect:  "gmp-mc-collect",
	timerTransition: "gmp-transition",
}

// timerEntry is one registered timeout and its scheduler event, in one
// object.
type timerEntry struct {
	simtime.Event
	t     *timerTable
	kind  timerKind
	key   string
	armed uint64 // the table's arming count when the entry was last set
}

// Fire implements simtime.Handler.
func (e *timerEntry) Fire() { e.t.fire(e.kind, e.key) }

// timerTable manages the daemon's named timeouts. The paper's Experiment 4
// found a logic inversion in the original unregistration routine: "if an
// argument is NULL, all timeouts of the same type are unregistered. If the
// argument is non-NULL, only the first is unregistered. It worked the
// opposite of how it should have." unsetBug reproduces that inversion.
//
// Entries are held per kind, in no order; a kind's bucket holds at most one
// entry per key, and only heartbeat expectations have keys (one per group
// member), so a lookup scans a handful of entries. "First" is arming order:
// each set stamps its entry with the next value of a counter, and the first
// entry of a kind is the registered one with the lowest stamp.
type timerTable struct {
	sched    *simtime.Scheduler
	fire     func(kind timerKind, key string) // the owner's expiry handler
	kinds    [numTimerKinds][]*timerEntry     // registered entries, per kind
	armed    uint64                           // sets so far: the arming counter
	unsetBug bool
}

func newTimerTable(s *simtime.Scheduler, unsetBug bool, fire func(kind timerKind, key string)) *timerTable {
	return &timerTable{sched: s, unsetBug: unsetBug, fire: fire}
}

// set arms the (kind, key) timer. Re-arming — the common case: every
// heartbeat received re-arms an expectation — reuses the entry and its
// event where they sit: the entry's stamp moves it to the end of the arming
// order, exactly where a fresh one would go, and the scheduler counts a
// fresh registration.
func (t *timerTable) set(kind timerKind, key string, d time.Duration) {
	var e *timerEntry
	if i := t.find(kind, key); i >= 0 {
		e = t.kinds[kind][i]
	} else {
		e = &timerEntry{t: t, kind: kind, key: key}
		t.kinds[kind] = append(t.kinds[kind], e)
	}
	t.armed++
	e.armed = t.armed
	t.sched.Arm(&e.Event, d, timerNames[kind], e)
}

// find returns the index of the (kind, key) entry in its bucket, or -1.
func (t *timerTable) find(kind timerKind, key string) int {
	for i, e := range t.kinds[kind] {
		if e.key == key {
			return i
		}
	}
	return -1
}

// armedOf counts armed timers of a kind.
func (t *timerTable) armedOf(kind timerKind) int {
	n := 0
	for _, e := range t.kinds[kind] {
		if e.Pending() {
			n++
		}
	}
	return n
}

// unsetExact always removes exactly the (kind, key) entry, bypassing the
// bug; expiry handlers use it to drop the entry that just fired.
func (t *timerTable) unsetExact(kind timerKind, key string) { t.unsetFirst(kind, key, false) }

// unset removes timers per the protocol's intended semantics: key == ""
// means "all timeouts of this kind", a non-empty key means "that one".
// With unsetBug the behaviours are swapped, as in the student code.
func (t *timerTable) unset(kind timerKind, key string) {
	all := key == ""
	if t.unsetBug {
		all = !all
	}
	if all {
		t.clear(kind)
		return
	}
	// Remove only the first entry of the kind (the buggy NULL path removes
	// the first regardless of key; the correct keyed path removes the first
	// match, which is the only one).
	t.unsetFirst(kind, key, t.unsetBug)
}

// unsetFirst cancels and swap-deletes the first-armed entry of the kind
// whose key is key, or, with anyKey, the first-armed of the kind.
func (t *timerTable) unsetFirst(kind timerKind, key string, anyKey bool) {
	b, first := t.kinds[kind], -1
	for i, e := range b {
		if (anyKey || e.key == key) && (first < 0 || e.armed < b[first].armed) {
			first = i
		}
	}
	if first >= 0 {
		t.sched.Cancel(&b[first].Event)
		b[first], b[len(b)-1] = b[len(b)-1], nil
		t.kinds[kind] = b[:len(b)-1]
	}
}

// clear cancels and removes every entry of a kind.
func (t *timerTable) clear(kind timerKind) {
	b := t.kinds[kind]
	for i, e := range b {
		t.sched.Cancel(&e.Event)
		b[i] = nil
	}
	t.kinds[kind] = b[:0]
}
