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
