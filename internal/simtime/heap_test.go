package simtime

import (
	"math/rand"
	"testing"
	"time"
)

// checkQueue asserts the queue is a valid heap on (when, seq), that every
// queued event knows its own position, and that the queue holds exactly
// the events in want.
func checkQueue(t *testing.T, s *Scheduler, want map[*Event]bool, all []*Event) {
	t.Helper()
	if len(s.queue) != len(want) {
		t.Fatalf("queue holds %d events, model %d", len(s.queue), len(want))
	}
	for i, ev := range s.queue {
		if ev.pos != i+1 {
			t.Fatalf("queue[%d] records position %d", i, ev.pos-1)
		}
		if !want[ev] {
			t.Fatalf("queue[%d] (%s) is not pending in the model", i, ev.name)
		}
		if i > 0 && ev.before(s.queue[(i-1)/2]) {
			t.Fatalf("queue[%d] sorts before its parent", i)
		}
	}
	for _, ev := range all {
		if ev.Pending() != want[ev] {
			t.Fatalf("%s: Pending() = %v, model says %v", ev.name, ev.Pending(), want[ev])
		}
	}
}

// TestPropertyHeapMatchesSortedReference drives random After / Arm / Every
// / Cancel / Reschedule / Step / snapshot / restore sequences and checks
// after every operation that the queue is consistent, and at every Step
// that the event fired is the (when, seq)-minimum of the model's pending
// set — what popping a sorted list would give.
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
				var ev *Event
				ev = s.Every(delay()+time.Millisecond, "every", func() { fired = ev })
				track(ev)
			case r < 11:
				ev := pick()
				if got := s.Cancel(ev); got != pending[ev] {
					t.Fatalf("seed %d op %d: Cancel = %v, model pending = %v", seed, op, got, pending[ev])
				}
				delete(pending, ev)
			case r < 13:
				ev := pick()
				s.Reschedule(ev, delay())
				if ev.h != nil { // a never-armed owned event stays out
					pending[ev] = true
				}
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
				if want != nil && want.period == 0 {
					delete(pending, want)
				}
			}
			checkQueue(t, s, pending, all)
		}
	}
}

// TestArmCountsAsRegistration pins the accounting Arm shares with After:
// one schedule-hook call and one sequence number per call, pending or not,
// so re-arming a timer in place is indistinguishable — to a timer budget
// and to same-instant ordering — from cancelling it and scheduling anew.
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
}

// TestArmHookPanicLeavesEventUntouched: the schedule hook runs before Arm
// touches anything, so a timer budget that aborts the run from the hook
// leaves a pending event queued under its old key — no sequence number
// drawn, nothing half-moved — and RestoreState installs the captured queue
// over it as over any other.
func TestArmHookPanicLeavesEventUntouched(t *testing.T) {
	s := NewScheduler()
	var order []string
	var a, b Timer
	a.Init(s, func() { order = append(order, "a") })
	b.Init(s, func() { order = append(order, "b") })
	a.Arm(time.Second, "a")
	b.Arm(2*time.Second, "b")
	snap := s.SnapshotState()
	s.SetScheduleHook(func() { panic("budget") })
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("hook panic did not reach Arm's caller")
			}
		}()
		a.Arm(5*time.Second, "a")
	}()
	if !a.Pending() || a.When() != Time(time.Second) || s.seq != 2 || s.Len() != 2 {
		t.Fatalf("after the aborted Arm: pending %v at %v, seq %d, %d queued", a.Pending(), a.When(), s.seq, s.Len())
	}
	s.SetScheduleHook(nil)
	s.RestoreState(snap)
	s.Run()
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("fired %v after restore, want [a b]", order)
	}
}

// refArm and refReschedule are Arm and Reschedule as they were before a
// pending event was re-keyed in place: take it out of the queue, then push
// it. The test below holds the scheduler to them.
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

func refReschedule(s *Scheduler, ev *Event, d Duration) {
	if ev == nil || ev.h == nil {
		return
	}
	s.Cancel(ev)
	if d < 0 {
		d = 0
	}
	ev.when, ev.seq = s.now.Add(d), s.nextSeq()
	s.push(ev)
}

// TestPropertyRekeyMatchesCancelThenPush runs the same random At / After /
// Every / Arm / Reschedule / Cancel / Step / snapshot / restore sequence on
// two schedulers — one through Arm and Reschedule, one through the
// cancel-then-push reference — and requires, after every operation, the same
// event fired, the same When() and Pending() for every event, the same
// sequence counter and the same number of schedule-hook calls.
func TestPropertyRekeyMatchesCancelThenPush(t *testing.T) {
	type side struct {
		s      *Scheduler
		events []*Event
		fired  []int
		hooks  int
		saved  any
	}
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var got, ref side
		sides := [2]*side{&got, &ref}
		for _, sd := range sides {
			sd := sd
			sd.s = NewScheduler()
			sd.s.SetScheduleHook(func() { sd.hooks++ })
		}
		// both applies one operation to the two sides; i is the index the
		// event it creates will have.
		both := func(op func(sd *side, i int)) {
			i := len(got.events)
			for _, sd := range sides {
				op(sd, i)
			}
		}
		// Slots 0–3 are caller-owned events, armed and re-armed in place.
		for k := 0; k < 4; k++ {
			both(func(sd *side, i int) { sd.events = append(sd.events, &Event{}) })
		}
		delay := func() time.Duration { return time.Duration(rng.Intn(6)-1) * time.Millisecond }
		for op := 0; op < 500; op++ {
			d, pick := delay(), rng.Intn(len(got.events))
			switch r := rng.Intn(22); {
			case r < 3:
				both(func(sd *side, i int) {
					sd.events = append(sd.events, sd.s.After(d, "after", func() { sd.fired = append(sd.fired, i) }))
				})
			case r < 4:
				both(func(sd *side, i int) {
					at := sd.s.Now().Add(d)
					sd.events = append(sd.events, sd.s.At(at, "at", func() { sd.fired = append(sd.fired, i) }))
				})
			case r < 5:
				both(func(sd *side, i int) {
					sd.events = append(sd.events, sd.s.Every(d+2*time.Millisecond, "every", func() { sd.fired = append(sd.fired, i) }))
				})
			case r < 10: // Arm any event: never armed, pending, fired, cancelled or periodic
				h := func(sd *side) Handler { return funcHandler(func() { sd.fired = append(sd.fired, pick) }) }
				got.s.Arm(got.events[pick], d, "armed", h(&got))
				refArm(ref.s, ref.events[pick], d, "armed", h(&ref))
			case r < 13:
				got.s.Reschedule(got.events[pick], d)
				refReschedule(ref.s, ref.events[pick], d)
			case r < 15:
				if a, b := got.s.Cancel(got.events[pick]), ref.s.Cancel(ref.events[pick]); a != b {
					t.Fatalf("seed %d op %d: Cancel = %v, reference %v", seed, op, a, b)
				}
			case r < 16 && got.saved == nil:
				for _, sd := range sides {
					sd.saved = sd.s.SnapshotState()
				}
			case r < 17 && got.saved != nil:
				for _, sd := range sides {
					sd.s.RestoreState(sd.saved)
				}
			default:
				if a, b := got.s.Step(), ref.s.Step(); a != b {
					t.Fatalf("seed %d op %d: Step = %v, reference %v", seed, op, a, b)
				}
			}
			if len(got.fired) != len(ref.fired) || (len(got.fired) > 0 && got.fired[len(got.fired)-1] != ref.fired[len(ref.fired)-1]) {
				t.Fatalf("seed %d op %d: fired %v, reference %v", seed, op, got.fired, ref.fired)
			}
			if got.s.seq != ref.s.seq || got.hooks != ref.hooks || got.s.Len() != ref.s.Len() || got.s.Now() != ref.s.Now() {
				t.Fatalf("seed %d op %d: seq %d hooks %d len %d now %v, reference seq %d hooks %d len %d now %v", seed, op,
					got.s.seq, got.hooks, got.s.Len(), got.s.Now(), ref.s.seq, ref.hooks, ref.s.Len(), ref.s.Now())
			}
			for i, ev := range got.events {
				re := ref.events[i]
				if ev.When() != re.When() || ev.Pending() != re.Pending() || ev.seq != re.seq || ev.period != re.period {
					t.Fatalf("seed %d op %d: event %d is (when %v, seq %d, period %v, pending %v), reference (%v, %d, %v, %v)", seed, op, i,
						ev.When(), ev.seq, ev.period, ev.Pending(), re.When(), re.seq, re.period, re.Pending())
				}
			}
			for i, ev := range got.s.queue {
				if ev.pos != i+1 || (i > 0 && ev.before(got.s.queue[(i-1)/2])) {
					t.Fatalf("seed %d op %d: queue[%d] out of place", seed, op, i)
				}
			}
		}
		if len(got.fired) < 50 {
			t.Fatalf("seed %d: only %d events fired; the mix is not exercising Step", seed, len(got.fired))
		}
	}
}
