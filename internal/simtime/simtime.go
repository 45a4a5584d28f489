// Package simtime provides a deterministic discrete-event virtual clock.
//
// Every protocol timer and network delivery in this repository is an event
// scheduled on a Scheduler. Time advances only when the scheduler runs the
// next event, so experiments that span hours of protocol time (for example
// TCP keep-alive probing at 7200-second intervals) complete in milliseconds
// of wall-clock time while exercising the identical code paths.
//
// Determinism contract: events fire in (time, sequence) order. Two events
// scheduled for the same instant fire in the order they were scheduled, so a
// seeded experiment replays bit-identically.
package simtime

import (
	"fmt"
	"time"
)

// Time is an instant on the virtual clock, measured as a Duration since the
// start of the simulation. The zero Time is the simulation epoch.
type Time time.Duration

// Duration re-exports time.Duration for call sites that want to be explicit
// about operating on virtual durations.
type Duration = time.Duration

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns t as a floating-point number of virtual seconds.
func (t Time) Seconds() float64 { return time.Duration(t).Seconds() }

// String formats the instant as a duration since the epoch, e.g. "1m4s".
func (t Time) String() string { return time.Duration(t).String() }

// Handler is the work a pending event carries. At/After/Every wrap their
// callback in one; a record that embeds an Event and implements Handler
// (a network delivery, a protocol timer) is scheduled with Arm and is then
// the only object its scheduling allocates.
type Handler interface {
	Fire()
}

// funcHandler adapts the callback form of At/After/Every.
type funcHandler func()

func (f funcHandler) Fire() { f() }

// Event is a scheduled callback. It is returned by the scheduling methods so
// callers can cancel or reschedule it. The zero Event is a valid unqueued
// event, so records may embed one and hand it to Arm.
type Event struct {
	when   Time
	seq    uint64
	pos    int // heap index + 1; 0 when not queued
	h      Handler
	name   string
	period Duration // 0 for one-shot events
}

// When reports the instant the event will fire (or last fired).
func (e *Event) When() Time { return e.when }

// Name reports the diagnostic label given at scheduling time: a constant
// naming the kind of event ("deliver", "tcp-rtx"), never built per event.
func (e *Event) Name() string { return e.name }

// Pending reports whether the event is still queued to fire.
func (e *Event) Pending() bool { return e != nil && e.pos > 0 }

// Timer is a protocol timeout that lives inside its owner: an Event bound
// to the owner's scheduler and expiry callback. Arming and re-arming it
// allocates nothing, and as a fixed part of its owner it needs no snapshot
// state beyond what the scheduler keeps for every event.
type Timer struct {
	Event
	s  *Scheduler
	fn func()
}

// Init binds the timer; call it once, when the owner is built.
func (t *Timer) Init(s *Scheduler, fn func()) { t.s, t.fn = s, fn }

// Arm (re)starts the timer to expire d from now; see Scheduler.Arm.
func (t *Timer) Arm(d Duration, name string) { t.s.Arm(&t.Event, d, name, t) }

// Stop cancels the timer if it is running.
func (t *Timer) Stop() { t.s.Cancel(&t.Event) }

// Fire implements Handler.
func (t *Timer) Fire() { t.fn() }

// Scheduler is a discrete-event executor. It is not safe for concurrent use;
// the entire simulation is single-threaded by design (see package comment).
type Scheduler struct {
	now     Time
	queue   []*Event // binary heap ordered by (when, seq)
	seq     uint64
	running bool
	stopped bool

	stepHook     func()
	scheduleHook func()
}

// SetStepHook installs fn to run at the start of every executed Step,
// before the event's callback fires. Watchdogs use it to meter progress;
// fn may panic to abort a Run in progress (the running flag is restored
// by RunUntil's defer, so the scheduler stays usable after recovery).
// A nil fn removes the hook.
func (s *Scheduler) SetStepHook(fn func()) { s.stepHook = fn }

// SetScheduleHook installs fn to run whenever a fresh event is
// registered via At/After/Every/Arm. Periodic re-arms inside Step and
// Reschedule's move of an existing event do not count: the hook
// meters new registrations, not queue churn. A nil fn removes the hook.
func (s *Scheduler) SetScheduleHook(fn func()) { s.scheduleHook = fn }

// NewScheduler returns a scheduler whose clock reads the epoch.
func NewScheduler() *Scheduler {
	return &Scheduler{}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Len reports the number of pending events.
func (s *Scheduler) Len() int { return len(s.queue) }

// Peek reports the instant of the next pending event without running it.
func (s *Scheduler) Peek() (Time, bool) {
	if len(s.queue) == 0 {
		return 0, false
	}
	return s.queue[0].when, true
}

// AdvanceTo moves the clock forward to t without running events (events
// due at or before t fire on the next Step/Run). It is used by real-time
// adapters that map the virtual clock onto the wall clock; it refuses to
// move backwards.
func (s *Scheduler) AdvanceTo(t Time) {
	if t > s.now {
		s.now = t
	}
}

// At schedules fn to run at the absolute instant t. Scheduling in the past
// (before Now) fires the event at the current instant instead: the event
// queue never travels backwards.
func (s *Scheduler) At(t Time, name string, fn func()) *Event {
	if fn == nil {
		panic("simtime: nil event callback")
	}
	ev := &Event{}
	s.arm(ev, t, name, funcHandler(fn))
	return ev
}

// Arm schedules h to run d after the current instant on ev, an event the
// caller owns — normally one embedded in the record that implements h, so
// the record is the single allocation. An ev that is still pending is
// re-keyed where it sits rather than queued twice. Like After, Arm
// registers a fresh timeout: it runs the schedule hook and draws one
// sequence number. The hook runs first; if it panics (a timer budget
// aborting the run) ev is left exactly as it was, still queued if it was
// pending.
func (s *Scheduler) Arm(ev *Event, d Duration, name string, h Handler) {
	if h == nil {
		panic("simtime: nil event handler")
	}
	if d < 0 {
		d = 0
	}
	s.arm(ev, s.now.Add(d), name, h)
}

func (s *Scheduler) arm(ev *Event, t Time, name string, h Handler) {
	if s.scheduleHook != nil {
		s.scheduleHook()
	}
	if t < s.now {
		t = s.now
	}
	ev.h, ev.name = h, name
	s.rekey(ev, t)
}

// rekey gives ev a new instant and the next sequence number and puts it
// where those sort: a pending event — which stops being periodic, as if
// cancelled first — is sifted from its slot, any other is pushed. The
// queue pops in (when, seq) order and sequence numbers are unique, so the
// firing order is a function of the keys alone: moving an event in place
// and removing then re-adding it are the same schedule.
func (s *Scheduler) rekey(ev *Event, t Time) {
	ev.when, ev.seq = t, s.nextSeq()
	if ev.pos == 0 {
		s.push(ev)
		return
	}
	ev.period = 0
	s.sift(ev.pos-1, ev)
}

// After schedules fn to run d after the current instant. A non-positive d
// fires at the current instant (still asynchronously, via the queue).
func (s *Scheduler) After(d Duration, name string, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return s.At(s.now.Add(d), name, fn)
}

// Every schedules fn to run every period, first firing after one period.
// Cancel stops future firings.
func (s *Scheduler) Every(period Duration, name string, fn func()) *Event {
	if period <= 0 {
		panic(fmt.Sprintf("simtime: non-positive period %v for %q", period, name))
	}
	ev := s.After(period, name, fn)
	ev.period = period
	return ev
}

// Cancel removes ev from the queue. Cancelling a nil, fired, or already
// cancelled event is a no-op. It reports whether the event was pending.
func (s *Scheduler) Cancel(ev *Event) bool {
	if ev == nil || ev.pos == 0 {
		return false
	}
	s.remove(ev.pos - 1)
	ev.period = 0
	return true
}

// Reschedule moves a pending one-shot event to fire d after now. If the
// event already fired it is re-armed. A caller-owned event that was never
// armed has nothing to run and is left alone.
func (s *Scheduler) Reschedule(ev *Event, d Duration) {
	if ev == nil || ev.h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	s.rekey(ev, s.now.Add(d))
}

// Step runs the single next event, advancing the clock to its instant.
// It reports false when the queue is empty or the scheduler was stopped.
func (s *Scheduler) Step() bool {
	if s.stopped || len(s.queue) == 0 {
		return false
	}
	if s.stepHook != nil {
		s.stepHook()
	}
	ev := s.remove(0)
	if ev.when > s.now {
		s.now = ev.when // never backwards (AdvanceTo may have passed it)
	}
	if ev.period > 0 {
		ev.when = s.now.Add(ev.period)
		ev.seq = s.nextSeq()
		s.push(ev)
	}
	ev.h.Fire()
	return true
}

// Run executes events until the queue drains or Stop is called. It returns
// the number of events executed.
func (s *Scheduler) Run() int {
	return s.RunUntil(Time(1<<62 - 1))
}

// RunUntil executes events whose instant is <= deadline, then advances the
// clock to the deadline (if it is beyond the last event run). It returns the
// number of events executed.
func (s *Scheduler) RunUntil(deadline Time) int {
	if s.running {
		panic("simtime: re-entrant Run")
	}
	s.running = true
	defer func() { s.running = false }()
	s.stopped = false
	n := 0
	for !s.stopped && len(s.queue) > 0 && s.queue[0].when <= deadline {
		s.Step()
		n++
	}
	if !s.stopped && s.now < deadline && deadline < Time(1<<62-1) {
		s.now = deadline
	}
	return n
}

// RunFor executes events for d of virtual time from the current instant.
func (s *Scheduler) RunFor(d Duration) int {
	return s.RunUntil(s.now.Add(d))
}

// Stop halts a Run/RunUntil in progress after the current event returns.
func (s *Scheduler) Stop() { s.stopped = true }

func (s *Scheduler) nextSeq() uint64 {
	s.seq++
	return s.seq
}

// --- snapshot / restore ------------------------------------------------

// savedEvent retains a pending event together with the fields Step, Cancel,
// and Reschedule mutate in place. Keeping the *Event pointer (rather than
// cloning) is what makes restore-in-place work: timer owners (TCP
// connections, RUDP retransmitters, ...) hold these pointers in their own
// state, and closures already scheduled against the world stay valid.
type savedEvent struct {
	ev     *Event
	when   Time
	seq    uint64
	period Duration
}

// schedState is the mutable state of a Scheduler at one instant.
type schedState struct {
	now    Time
	seq    uint64
	events []savedEvent
}

// SnapshotState captures the clock, the sequence counter, and the pending
// queue. It must be called between events (never from inside a running
// Step). The step/schedule hooks are observers, not simulation state, so
// they are deliberately excluded: callers re-attach their own watchdogs
// after a restore.
func (s *Scheduler) SnapshotState() any {
	st := &schedState{now: s.now, seq: s.seq, events: make([]savedEvent, len(s.queue))}
	for i, ev := range s.queue {
		st.events[i] = savedEvent{ev: ev, when: ev.when, seq: ev.seq, period: ev.period}
	}
	return st
}

// EachPending calls visit with the handler of every pending event, in no
// particular order. Components whose records ride on events (in-flight
// deliveries, delayed forwards) find them here when they snapshot, instead
// of keeping a side table of what they scheduled.
func (s *Scheduler) EachPending(visit func(Handler)) {
	for _, ev := range s.queue {
		visit(ev.h)
	}
}

// RestoreState rewinds the scheduler to a state captured by SnapshotState.
// Events scheduled after the snapshot simply leave the queue (their owners
// are rewound by their own restores); events that fired or were cancelled
// since the snapshot are re-queued at their saved instant. The saved queue
// slice order was a valid heap when captured, so it is installed verbatim.
func (s *Scheduler) RestoreState(state any) {
	st := state.(*schedState)
	// Un-queue everything currently pending so stale pointers report
	// !Pending() and a Cancel on one stays a no-op.
	for _, ev := range s.queue {
		ev.pos = 0
	}
	s.queue = s.queue[:0]
	for i, se := range st.events {
		se.ev.when, se.ev.seq, se.ev.period = se.when, se.seq, se.period
		se.ev.pos = i + 1
		s.queue = append(s.queue, se.ev)
	}
	s.now, s.seq = st.now, st.seq
	s.stopped = false
}

// --- event heap ---------------------------------------------------------
//
// The queue is a binary min-heap on (when, seq), written out against
// []*Event: the standard heap package would box every Push and Pop through
// an interface and dispatch Less/Swap dynamically, on the hottest loop in
// the repository. Sequence numbers are unique, so the order events pop in
// is a function of the keys alone, not of the heap's internal layout.

func (e *Event) before(o *Event) bool {
	if e.when != o.when {
		return e.when < o.when
	}
	return e.seq < o.seq
}

func (s *Scheduler) push(ev *Event) {
	s.queue = append(s.queue, ev)
	s.up(len(s.queue)-1, ev)
}

// remove takes the event at heap index i out of the queue.
func (s *Scheduler) remove(i int) *Event {
	q := s.queue
	ev := q[i]
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	s.queue = q[:n]
	ev.pos = 0
	if i < n {
		s.sift(i, last)
	}
	return ev
}

// sift places ev, whose key may have moved either way, from the slot at
// index i.
func (s *Scheduler) sift(i int, ev *Event) {
	if !s.down(i, ev) {
		s.up(i, ev)
	}
}

// up places ev at or above the hole at index i.
func (s *Scheduler) up(i int, ev *Event) {
	q := s.queue
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(q[parent]) {
			break
		}
		q[i] = q[parent]
		q[i].pos = i + 1
		i = parent
	}
	q[i] = ev
	ev.pos = i + 1
}

// down places ev at or below the hole at index i and reports whether it
// moved below i.
func (s *Scheduler) down(i int, ev *Event) bool {
	q := s.queue
	start := i
	for {
		child := 2*i + 1
		if child >= len(q) {
			break
		}
		if r := child + 1; r < len(q) && q[r].before(q[child]) {
			child = r
		}
		if !q[child].before(ev) {
			break
		}
		q[i] = q[child]
		q[i].pos = i + 1
		i = child
	}
	q[i] = ev
	ev.pos = i + 1
	return i > start
}
