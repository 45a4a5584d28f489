package simtime

import (
	"math/rand"
	"testing"
	"time"
)

// checkStructure asserts the heap is a valid heap on (when, seq) in which
// every event knows its own slot, and that every lane is a well-linked
// chain in firing order whose head, and only whose head, sits in the heap.
// It returns every pending event it found.
func checkStructure(t testing.TB, s *Scheduler) map[*Event]bool {
	t.Helper()
	found := map[*Event]bool{}
	for i, ev := range s.queue {
		if ev.pos != i+1 {
			t.Fatalf("queue[%d] records position %d", i, ev.pos-1)
		}
		if i > 0 && ev.before(s.queue[(i-1)/2]) {
			t.Fatalf("queue[%d] sorts before its parent", i)
		}
		if ev.lane != nil && ev.lane.head != ev {
			t.Fatalf("queue[%d] (%s) is on a lane but not its head", i, ev.name)
		}
		found[ev] = true
	}
	chained := 0
	for _, l := range s.lanes {
		if (l.head == nil) != (l.tail == nil) {
			t.Fatalf("lane %v: head %p, tail %p", l.d, l.head, l.tail)
		}
		if l.head == nil {
			continue
		}
		if l.head.pos == 0 || l.head.prev != nil {
			t.Fatalf("lane %v: head out of the heap or linked back", l.d)
		}
		var last *Event
		for ev := l.head; ev != nil; last, ev = ev, ev.next {
			if ev.lane != l || ev.prev != last {
				t.Fatalf("lane %v: %s badly linked", l.d, ev.name)
			}
			if last != nil {
				if ev.pos != 0 || found[ev] || !last.before(ev) {
					t.Fatalf("lane %v: %s in the heap, twice, or out of order", l.d, ev.name)
				}
				found[ev] = true
				chained++
			}
		}
		if l.tail != last {
			t.Fatalf("lane %v: tail is not the last member", l.d)
		}
	}
	if chained != s.chained || s.Len() != len(found) {
		t.Fatalf("%d chained, counter %d; Len %d, found %d", chained, s.chained, s.Len(), len(found))
	}
	visits := 0
	s.EachPending(func(Handler) { visits++ })
	if visits != len(found) {
		t.Fatalf("EachPending visited %d of %d pending events", visits, len(found))
	}
	return found
}

// checkQueue asserts checkStructure, that the scheduler holds exactly the
// events in want, and that Pending agrees for every event in all.
func checkQueue(t *testing.T, s *Scheduler, want map[*Event]bool, all []*Event) {
	t.Helper()
	found := checkStructure(t, s)
	if len(found) != len(want) {
		t.Fatalf("scheduler holds %d events, model %d", len(found), len(want))
	}
	for ev := range found {
		if !want[ev] {
			t.Fatalf("%s is queued but not pending in the model", ev.name)
		}
	}
	for _, ev := range all {
		if ev.Pending() != want[ev] {
			t.Fatalf("%s: Pending() = %v, model says %v", ev.name, ev.Pending(), want[ev])
		}
	}
}

// TestPropertyHeapMatchesSortedReference drives random After / Arm /
// Lane.Arm / Cancel / Step / snapshot / restore sequences and checks after
// every operation that the queue is consistent, and at every Step that the
// event fired is the (when, seq)-minimum of the model's pending set — what
// popping a sorted list would give.
func TestPropertyHeapMatchesSortedReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewScheduler()
		pending := map[*Event]bool{}
		var all []*Event
		var fired *Event
		track := func(ev *Event) {
			pending[ev] = true
			all = append(all, ev)
		}
		// Delays come from a handful of values so same-instant ties, which
		// only seq breaks, are common.
		delay := func() time.Duration { return time.Duration(rng.Intn(6)) * time.Millisecond }
		pick := func() *Event { return all[rng.Intn(len(all))] }
		firesItself := func(ev *Event) Handler { return funcHandler(func() { fired = ev }) }

		// owned are caller-allocated events, armed and re-armed in place.
		owned := make([]*Timer, 4)
		for i := range owned {
			tm := &Timer{}
			tm.Init(s, func() { fired = &tm.Event })
			owned[i] = tm
			all = append(all, &tm.Event)
		}

		var saved any
		var savedPending map[*Event]bool

		for op := 0; op < 400; op++ {
			switch r := rng.Intn(20); {
			case r < 6:
				var ev *Event
				ev = s.After(delay(), "after", func() { fired = ev })
				track(ev)
			case r < 8:
				tm := owned[rng.Intn(len(owned))]
				tm.Arm(delay(), "owned")
				pending[&tm.Event] = true
			case r < 9:
				ev := &Event{}
				s.Lane(delay()).Arm(ev, "lane", firesItself(ev))
				track(ev)
			case r < 11:
				ev := pick()
				if got := s.Cancel(ev); got != pending[ev] {
					t.Fatalf("seed %d op %d: Cancel = %v, model pending = %v", seed, op, got, pending[ev])
				}
				delete(pending, ev)
			case r < 13: // re-arm any event, onto a lane or into the heap
				ev := pick()
				if rng.Intn(2) == 0 {
					s.Lane(delay()).Arm(ev, "rearm", firesItself(ev))
				} else {
					s.Arm(ev, delay(), "rearm", firesItself(ev))
				}
				pending[ev] = true
			case r < 14 && saved == nil:
				saved = s.SnapshotState()
				savedPending = map[*Event]bool{}
				for ev := range pending {
					savedPending[ev] = true
				}
			case r < 15 && saved != nil:
				s.RestoreState(saved)
				pending = map[*Event]bool{}
				for ev := range savedPending {
					pending[ev] = true
				}
			default:
				var want *Event
				for ev := range pending {
					if want == nil || ev.before(want) {
						want = ev
					}
				}
				fired = nil
				if ran := s.Step(); ran != (want != nil) {
					t.Fatalf("seed %d op %d: Step = %v with %d pending", seed, op, ran, len(pending))
				}
				if fired != want {
					t.Fatalf("seed %d op %d: Step fired the wrong event", seed, op)
				}
				delete(pending, want)
			}
			checkQueue(t, s, pending, all)
		}
	}
}

// TestArmCountsAsRegistration pins the accounting Arm and Lane.Arm share
// with After: one schedule-hook call and one sequence number per call,
// pending or not, so re-arming a timer in place or on a lane is
// indistinguishable — to a timer budget and to same-instant ordering —
// from cancelling it and scheduling anew.
func TestArmCountsAsRegistration(t *testing.T) {
	s := NewScheduler()
	hooks := 0
	s.SetScheduleHook(func() { hooks++ })
	var order []string
	var a, b Timer
	a.Init(s, func() { order = append(order, "a") })
	b.Init(s, func() { order = append(order, "b") })
	a.Arm(time.Second, "a")
	b.Arm(time.Second, "b")
	a.Arm(time.Second, "a") // moves a behind b at the same instant
	if hooks != 3 || s.seq != 3 || s.Len() != 2 {
		t.Fatalf("3 Arm calls: %d hook calls, seq %d, %d pending", hooks, s.seq, s.Len())
	}
	s.Run()
	if len(order) != 2 || order[0] != "b" || order[1] != "a" {
		t.Fatalf("fired %v, want [b a]", order)
	}
	if a.Pending() || b.Pending() {
		t.Fatal("fired timers still pending")
	}
	a.Stop() // stopping a fired timer is a no-op
	a.Arm(0, "a")
	a.Stop()
	if s.Len() != 0 || s.Run() != 0 {
		t.Fatal("stopped timer still queued")
	}

	// The same through a lane: a moves from the heap onto the lane, b
	// joins it behind a, and a re-armed on the lane moves behind b.
	order = nil
	hooks0, seq0 := hooks, s.seq
	l := s.Lane(time.Second)
	a.Arm(2*time.Second, "a")
	l.Arm(&a.Event, "a", &a)
	l.Arm(&b.Event, "b", &b)
	l.Arm(&a.Event, "a", &a)
	if hooks-hooks0 != 4 || s.seq-seq0 != 4 || s.Len() != 2 || s.chained != 1 {
		t.Fatalf("4 arms: %d hook calls, %d seqs, %d pending, %d chained", hooks-hooks0, s.seq-seq0, s.Len(), s.chained)
	}
	if want := s.Now().Add(time.Second); a.when != want || b.when != want {
		t.Fatalf("lane keys %v and %v, want both %v", a.when, b.when, want)
	}
	s.Run()
	if len(order) != 2 || order[0] != "b" || order[1] != "a" {
		t.Fatalf("lane fired %v, want [b a]", order)
	}
}

// TestArmHookPanicLeavesEventUntouched: the schedule hook runs before Arm or
// Lane.Arm touches anything, so a timer budget that aborts the run from the
// hook leaves a pending event queued under its old key — no sequence number
// drawn, nothing half-moved, a lane still linked — and RestoreState installs
// the captured queue over it as over any other.
func TestArmHookPanicLeavesEventUntouched(t *testing.T) {
	arms := map[string]func(tm *Timer, d Duration){
		"heap": func(tm *Timer, d Duration) { tm.Arm(d, "t") },
		"lane": func(tm *Timer, d Duration) { tm.s.Lane(d).Arm(&tm.Event, "t", tm) },
	}
	for name, arm := range arms {
		s := NewScheduler()
		var order []string
		var a, b Timer
		a.Init(s, func() { order = append(order, "a") })
		b.Init(s, func() { order = append(order, "b") })
		arm(&a, time.Second)
		arm(&b, 2*time.Second)
		snap := s.SnapshotState()
		s.SetScheduleHook(func() { panic("budget") })
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: hook panic did not reach Arm's caller", name)
				}
			}()
			arm(&a, 2*time.Second)
		}()
		if !a.Pending() || a.when != Time(time.Second) || s.seq != 2 || s.Len() != 2 {
			t.Fatalf("%s: after the aborted Arm: pending %v at %v, seq %d, %d queued", name, a.Pending(), a.when, s.seq, s.Len())
		}
		checkStructure(t, s)
		s.SetScheduleHook(nil)
		s.RestoreState(snap)
		s.Run()
		if len(order) != 2 || order[0] != "a" || order[1] != "b" {
			t.Fatalf("%s: fired %v after restore, want [a b]", name, order)
		}
	}
}

// refArm is Arm as it was before a pending event was re-keyed in place or
// chained on a lane: take it out of the queue, then push it. The
// differential tests below hold Arm and Lane.Arm to it.
func refArm(s *Scheduler, ev *Event, d Duration, name string, h Handler) {
	if d < 0 {
		d = 0
	}
	s.Cancel(ev)
	if s.scheduleHook != nil {
		s.scheduleHook()
	}
	ev.when, ev.seq, ev.h, ev.name = s.now.Add(d), s.nextSeq(), h, name
	s.push(ev)
}

// laneDelays are the lanes the differential runs arm on, alongside heap
// arms with delays from -1 to 4 ms.
var laneDelays = [3]Duration{0, time.Millisecond, 3 * time.Millisecond}

type diffSide struct {
	s      *Scheduler
	events []*Event
	fired  []int
	hooks  int
	saved  any
}

// laneDiff runs one operation stream on two schedulers: got through Arm,
// Lane.Arm and the heap, ref through the cancel-then-push reference and the
// heap alone. After every operation both must have fired the same events and
// agree on the clock, the sequence counter, the schedule-hook calls, Len and
// each event's When, seq and Pending; got's heap and lanes must be well
// formed, and EachPending must visit Len events.
type laneDiff struct {
	t        testing.TB
	got, ref diffSide
	laneCoverage
}

// laneCoverage counts what a stream exercised: cancels of a lane's head,
// middle and tail; re-arms moving an event off a lane, and onto one from
// the heap; restores that moved the clock back with events chained.
type laneCoverage struct {
	cancels          [3]int
	offLane, onLane  int
	rewindsOfChained int
}

func (c *laneCoverage) add(o laneCoverage) {
	for i := range c.cancels {
		c.cancels[i] += o.cancels[i]
	}
	c.offLane += o.offLane
	c.onLane += o.onLane
	c.rewindsOfChained += o.rewindsOfChained
}

func newLaneDiff(t testing.TB) *laneDiff {
	d := &laneDiff{t: t}
	for _, sd := range d.sides() {
		sd := sd
		sd.s = NewScheduler()
		sd.s.SetScheduleHook(func() { sd.hooks++ })
		// Slots 0–3 are caller-owned events, armed and re-armed in place.
		for k := 0; k < 4; k++ {
			sd.events = append(sd.events, &Event{})
		}
	}
	return d
}

func (d *laneDiff) sides() [2]*diffSide { return [2]*diffSide{&d.got, &d.ref} }

// op applies one operation. code picks the kind (low nibble) and the delay
// or lane (high nibble); arg picks the event it acts on.
func (d *laneDiff) op(code, arg byte) {
	delay := time.Duration(int(code>>4)%6-1) * time.Millisecond
	lane := laneDelays[int(code>>4)%len(laneDelays)]
	pick := int(arg) % len(d.got.events)
	fires := func(sd *diffSide, i int) func() {
		return func() { sd.fired = append(sd.fired, i) }
	}
	got, ref := &d.got, &d.ref
	switch code & 15 {
	case 0:
		for _, sd := range d.sides() {
			i := len(sd.events)
			sd.events = append(sd.events, sd.s.After(delay, "after", fires(sd, i)))
		}
	case 1:
		for _, sd := range d.sides() {
			i := len(sd.events)
			sd.events = append(sd.events, sd.s.At(sd.s.Now().Add(delay), "at", fires(sd, i)))
		}
	case 2, 3: // Arm any event: never armed, pending on a lane or in the heap, fired or cancelled
		if ev := got.events[pick]; ev.lane != nil {
			d.offLane++
		}
		got.s.Arm(got.events[pick], delay, "armed", funcHandler(fires(got, pick)))
		refArm(ref.s, ref.events[pick], delay, "armed", funcHandler(fires(ref, pick)))
	case 4, 5, 6: // arm a fresh event on a lane, so lanes grow long
		i := len(got.events)
		for _, sd := range d.sides() {
			sd.events = append(sd.events, &Event{})
		}
		got.s.Lane(lane).Arm(got.events[i], "lane", funcHandler(fires(got, i)))
		refArm(ref.s, ref.events[i], lane, "lane", funcHandler(fires(ref, i)))
	case 7, 8: // move any event onto a lane
		if ev := got.events[pick]; ev.lane == nil && ev.pos > 0 {
			d.onLane++
		}
		got.s.Lane(lane).Arm(got.events[pick], "lane", funcHandler(fires(got, pick)))
		refArm(ref.s, ref.events[pick], lane, "lane", funcHandler(fires(ref, pick)))
	case 9:
		if ev := got.events[pick]; ev.lane != nil {
			switch {
			case ev.prev == nil:
				d.cancels[0]++
			case ev.next != nil:
				d.cancels[1]++
			default:
				d.cancels[2]++
			}
		}
		if a, b := got.s.Cancel(got.events[pick]), ref.s.Cancel(ref.events[pick]); a != b {
			d.t.Fatalf("Cancel = %v, reference %v", a, b)
		}
	case 10:
		for _, sd := range d.sides() {
			sd.s.AdvanceTo(sd.s.Now().Add(delay))
		}
	case 11:
		for _, sd := range d.sides() {
			sd.saved = sd.s.SnapshotState()
		}
	case 12:
		if got.saved == nil {
			break
		}
		if got.s.chained > 0 && got.s.Now() > got.saved.(*schedState).now {
			d.rewindsOfChained++
		}
		for _, sd := range d.sides() {
			sd.s.RestoreState(sd.saved)
		}
	default:
		if a, b := got.s.Step(), ref.s.Step(); a != b {
			d.t.Fatalf("Step = %v, reference %v", a, b)
		}
	}
	d.check()
}

func (d *laneDiff) check() {
	t, got, ref := d.t, &d.got, &d.ref
	t.Helper()
	if len(got.fired) != len(ref.fired) || (len(got.fired) > 0 && got.fired[len(got.fired)-1] != ref.fired[len(ref.fired)-1]) {
		t.Fatalf("fired %v, reference %v", got.fired, ref.fired)
	}
	if got.s.seq != ref.s.seq || got.hooks != ref.hooks || got.s.Len() != ref.s.Len() || got.s.Now() != ref.s.Now() {
		t.Fatalf("seq %d hooks %d len %d now %v, reference seq %d hooks %d len %d now %v",
			got.s.seq, got.hooks, got.s.Len(), got.s.Now(), ref.s.seq, ref.hooks, ref.s.Len(), ref.s.Now())
	}
	for i, ev := range got.events {
		re := ref.events[i]
		if ev.when != re.when || ev.Pending() != re.Pending() || ev.seq != re.seq {
			t.Fatalf("event %d is (when %v, seq %d, pending %v), reference (%v, %d, %v)", i,
				ev.when, ev.seq, ev.Pending(), re.when, re.seq, re.Pending())
		}
	}
	checkStructure(t, got.s)
}

// TestPropertyRekeyMatchesCancelThenPush runs random At / After / Arm /
// Lane.Arm / Cancel / AdvanceTo / Step / snapshot / restore streams through
// laneDiff, and requires the streams, taken together, to have cancelled a
// lane's head, middle and tail, moved events both ways between a lane and
// the heap, and restored a snapshot over chained events with the clock
// moving back.
func TestPropertyRekeyMatchesCancelThenPush(t *testing.T) {
	var total laneCoverage
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := newLaneDiff(t)
		for op := 0; op < 500; op++ {
			// Steps are one op in three, so lanes both grow and drain.
			code := byte(rng.Intn(256))
			if rng.Intn(3) == 0 {
				code |= 15
			}
			d.op(code, byte(rng.Intn(256)))
		}
		if len(d.got.fired) < 50 {
			t.Fatalf("seed %d: only %d events fired; the mix is not exercising Step", seed, len(d.got.fired))
		}
		total.add(d.laneCoverage)
	}
	t.Logf("lane cancels (head, middle, tail) %v, off lane %d, onto lane %d, rewinds over chains %d",
		total.cancels, total.offLane, total.onLane, total.rewindsOfChained)
	if total.cancels[0] == 0 || total.cancels[1] == 0 || total.cancels[2] == 0 ||
		total.offLane == 0 || total.onLane == 0 || total.rewindsOfChained == 0 {
		t.Fatalf("the mix missed a case: lane cancels (head, middle, tail) %v, off lane %d, onto lane %d, rewinds over chains %d",
			total.cancels, total.offLane, total.onLane, total.rewindsOfChained)
	}
}

// FuzzLanesMatchReference drives laneDiff from an op string: each byte pair
// is one operation (see laneDiff.op).
func FuzzLanesMatchReference(f *testing.F) {
	f.Add([]byte{0x04, 0, 0x04, 1, 0x14, 2, 0x09, 5, 0x0f, 0, 0x24, 3})
	f.Add([]byte{0x04, 0, 0x0b, 0, 0x04, 0, 0x0f, 0, 0x5a, 0, 0x0c, 0, 0x04, 0, 0x0f, 0, 0x0f, 0})
	f.Add([]byte{0x17, 0, 0x02, 4, 0x27, 4, 0x09, 4, 0x0f, 0, 0x0f, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		d := newLaneDiff(t)
		for i := 0; i+1 < len(ops); i += 2 {
			d.op(ops[i], ops[i+1])
		}
	})
}
