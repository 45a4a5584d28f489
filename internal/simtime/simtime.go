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

import "time"

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

// Handler is the work a pending event carries. At/After wrap their
// callback in one; a record that embeds an Event and implements Handler
// (a network delivery, a protocol timer) is scheduled with Arm and is then
// the only object its scheduling allocates.
type Handler interface {
	Fire()
}

// funcHandler adapts the callback form of At/After.
type funcHandler func()

func (f funcHandler) Fire() { f() }

// Event is a scheduled callback. It is returned by the scheduling methods so
// callers can cancel or re-arm it. The zero Event is a valid unqueued
// event, so records may embed one and hand it to Arm.
type Event struct {
	when Time
	seq  uint64
	pos  int // heap index + 1; 0 when not in the heap
	h    Handler
	name string
	// lane is the lane the event is queued on (nil if none); prev and next
	// link that lane's members in firing order.
	lane       *Lane
	prev, next *Event
}

// Name reports the diagnostic label given at scheduling time: a constant
// naming the kind of event ("deliver", "tcp-rtx"), never built per event.
func (e *Event) Name() string { return e.name }

// Pending reports whether the event is still queued to fire.
func (e *Event) Pending() bool { return e != nil && (e.pos > 0 || e.lane != nil) }

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
	lanes   []*Lane
	chained int // lane members behind their lane's head, outside the heap
	seq     uint64
	running bool

	stepHook     func()
	scheduleHook func()
}

// SetStepHook installs fn to run at the start of every executed Step,
// before the event's callback fires. Watchdogs use it to meter progress;
// fn may panic to abort a Run in progress (the running flag is restored
// by RunUntil's defer, so the scheduler stays usable after recovery).
// A nil fn removes the hook.
func (s *Scheduler) SetStepHook(fn func()) { s.stepHook = fn }

// SetScheduleHook installs fn to run whenever an event is registered via
// At/After/Arm or Lane.Arm, re-arms of a pending event included: the hook
// meters registrations, not pops. A nil fn removes the hook.
func (s *Scheduler) SetScheduleHook(fn func()) { s.scheduleHook = fn }

// NewScheduler returns a scheduler whose clock reads the epoch.
func NewScheduler() *Scheduler {
	return &Scheduler{}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Len reports the number of pending events.
func (s *Scheduler) Len() int { return len(s.queue) + s.chained }

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
// the record is the single allocation. An ev that is still pending in the
// heap is re-keyed where it sits rather than queued twice; one on a lane
// leaves it. Like After, Arm registers a fresh timeout: it runs the
// schedule hook and draws one sequence number. The hook runs first; if it
// panics (a timer budget aborting the run) ev is left exactly as it was,
// still queued if it was pending.
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
// where those sort: a lone event pending in the heap is sifted from its
// slot, any other is pushed (a lane member leaves its lane first). The
// queue pops in (when, seq) order and sequence numbers are unique, so the
// firing order is a function of the keys alone: moving an event in place
// and removing then re-adding it are the same schedule.
func (s *Scheduler) rekey(ev *Event, t Time) {
	if ev.lane != nil {
		s.unqueue(ev)
	}
	ev.when, ev.seq = t, s.nextSeq()
	if ev.pos == 0 {
		s.push(ev)
		return
	}
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

// Cancel removes ev from the queue. Cancelling a nil, fired, or already
// cancelled event is a no-op. It reports whether the event was pending.
func (s *Scheduler) Cancel(ev *Event) bool {
	if !ev.Pending() {
		return false
	}
	s.unqueue(ev)
	return true
}

// Step runs the single next event, advancing the clock to its instant.
// It reports false when the queue is empty.
func (s *Scheduler) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	if s.stepHook != nil {
		s.stepHook()
	}
	ev := s.queue[0]
	s.unqueue(ev)
	if ev.when > s.now {
		s.now = ev.when // never backwards (AdvanceTo may have passed it)
	}
	ev.h.Fire()
	return true
}

// Run executes events until the queue drains. It returns the number of
// events executed.
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
	n := 0
	for len(s.queue) > 0 && s.queue[0].when <= deadline {
		s.Step()
		n++
	}
	if s.now < deadline && deadline < Time(1<<62-1) {
		s.now = deadline
	}
	return n
}

// RunFor executes events for d of virtual time from the current instant.
func (s *Scheduler) RunFor(d Duration) int {
	return s.RunUntil(s.now.Add(d))
}

func (s *Scheduler) nextSeq() uint64 {
	s.seq++
	return s.seq
}

// --- lanes ----------------------------------------------------------------

// Lane is a scheduler's FIFO of events that fire a fixed delay d after they
// are armed. The clock only moves forward between restores, so each arm keys
// at or after the one before it (now+d, a larger seq): a lane is in firing
// order as armed, and only its head needs a heap slot. Popping the head puts
// its successor in that slot; in a broadcast that is the next hop at the same
// instant, and the sift down stops at once.
type Lane struct {
	s          *Scheduler
	d          Duration
	head, tail *Event
}

// Lane returns the scheduler's one lane for delay d (a negative d is 0),
// creating it on first use.
func (s *Scheduler) Lane(d Duration) *Lane {
	d = max(d, 0)
	for _, l := range s.lanes {
		if l.d == d {
			return l
		}
	}
	l := &Lane{s: s, d: d}
	s.lanes = append(s.lanes, l)
	return l
}

// Arm is Scheduler.Arm(ev, d, name, h) for the lane's delay d: the same key,
// the same schedule-hook call and sequence number, so the same firing order.
// The hook runs first; if it panics ev is left exactly as it was. A pending
// ev moves to the lane's tail.
func (l *Lane) Arm(ev *Event, name string, h Handler) {
	s := l.s
	if h == nil {
		panic("simtime: nil event handler")
	}
	if s.scheduleHook != nil {
		s.scheduleHook()
	}
	if ev.Pending() {
		s.unqueue(ev)
	}
	ev.when, ev.seq, ev.h, ev.name, ev.lane = s.now.Add(l.d), s.nextSeq(), h, name, l
	if t := l.tail; t != nil {
		t.next, ev.prev, l.tail = ev, t, ev
		s.chained++
		return
	}
	l.head, l.tail = ev, ev
	s.push(ev)
}

// unqueue takes a pending ev out of the heap or out of its lane. A lane
// head's successor inherits its heap slot: its key is no earlier, so it can
// only sift down.
func (s *Scheduler) unqueue(ev *Event) {
	l := ev.lane
	if l == nil {
		s.remove(ev.pos - 1)
		return
	}
	prev, next := ev.prev, ev.next
	ev.lane, ev.prev, ev.next = nil, nil, nil
	if next != nil {
		next.prev = prev
	} else {
		l.tail = prev
	}
	if prev != nil {
		prev.next = next
		s.chained--
		return
	}
	l.head = next
	if next == nil {
		s.remove(ev.pos - 1)
		return
	}
	s.chained--
	i := ev.pos - 1
	ev.pos = 0
	s.down(i, next)
}

// --- snapshot / restore ------------------------------------------------

// savedEvent retains a pending event and the key Arm mutates in place.
// Keeping the *Event pointer is what makes restore-in-place work: timer
// owners hold these pointers, and scheduled closures stay valid.
type savedEvent struct {
	ev   *Event
	when Time
	seq  uint64
}

// schedState is the mutable state of a Scheduler at one instant.
type schedState struct {
	now    Time
	seq    uint64
	events []savedEvent
}

// each visits every pending event: the heap in slot order, then each lane's
// members behind its head.
func (s *Scheduler) each(visit func(*Event)) {
	for _, ev := range s.queue {
		visit(ev)
	}
	for _, l := range s.lanes {
		for ev := l.tail; ev != l.head; ev = ev.prev {
			visit(ev)
		}
	}
}

// SnapshotState captures the clock, the sequence counter, and the pending
// events. It must be called between events (never from inside a running
// Step). The step/schedule hooks are observers, not simulation state, so
// they are deliberately excluded: callers re-attach their own watchdogs
// after a restore.
func (s *Scheduler) SnapshotState() any {
	st := &schedState{now: s.now, seq: s.seq, events: make([]savedEvent, 0, s.Len())}
	s.each(func(ev *Event) {
		st.events = append(st.events, savedEvent{ev: ev, when: ev.when, seq: ev.seq})
	})
	return st
}

// EachPending calls visit with the handler of every pending event, in no
// particular order. Components whose records ride on events (in-flight
// deliveries, delayed forwards) find them here when they snapshot, instead
// of keeping a side table of what they scheduled.
func (s *Scheduler) EachPending(visit func(Handler)) {
	s.each(func(ev *Event) { visit(ev.h) })
}

// RestoreState rewinds the scheduler to a state captured by SnapshotState.
// Events scheduled since leave the queue (their owners rewind themselves;
// a Cancel on one is a no-op), and events that fired or were cancelled
// since are re-queued under their saved key. The clock may move back, so
// every lane restarts empty and each saved event returns as a lone heap
// event; the saved heap slots come first, so pushing them moves none.
func (s *Scheduler) RestoreState(state any) {
	st := state.(*schedState)
	for _, l := range s.lanes {
		for ev := l.head; ev != nil; {
			next := ev.next
			ev.lane, ev.prev, ev.next = nil, nil, nil
			ev = next
		}
		l.head, l.tail = nil, nil
	}
	for _, ev := range s.queue {
		ev.pos = 0
	}
	s.queue, s.chained = s.queue[:0], 0
	for _, se := range st.events {
		se.ev.when, se.ev.seq = se.when, se.seq
		s.push(se.ev)
	}
	s.now, s.seq = st.now, st.seq
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
