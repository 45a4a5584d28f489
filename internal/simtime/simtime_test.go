package simtime

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestSchedulerFiresInTimeOrder(t *testing.T) {
	s := NewScheduler()
	var got []Time
	s.After(3*time.Second, "c", func() { got = append(got, s.Now()) })
	s.After(1*time.Second, "a", func() { got = append(got, s.Now()) })
	s.After(2*time.Second, "b", func() { got = append(got, s.Now()) })
	if n := s.Run(); n != 3 {
		t.Fatalf("Run executed %d events, want 3", n)
	}
	want := []Time{Time(1 * time.Second), Time(2 * time.Second), Time(3 * time.Second)}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSameInstantFIFO(t *testing.T) {
	s := NewScheduler()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.After(time.Second, "tie", func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-broken order %v; want FIFO", order)
		}
	}
}

func TestCancel(t *testing.T) {
	s := NewScheduler()
	fired := false
	ev := s.After(time.Second, "x", func() { fired = true })
	if !ev.Pending() {
		t.Fatal("event should be pending after scheduling")
	}
	if !s.Cancel(ev) {
		t.Fatal("Cancel returned false for a pending event")
	}
	if ev.Pending() {
		t.Fatal("event still pending after Cancel")
	}
	if s.Cancel(ev) {
		t.Fatal("second Cancel returned true")
	}
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelNilIsNoop(t *testing.T) {
	s := NewScheduler()
	if s.Cancel(nil) {
		t.Fatal("Cancel(nil) returned true")
	}
}

func TestRunUntilAdvancesClockToDeadline(t *testing.T) {
	s := NewScheduler()
	s.After(time.Second, "x", func() {})
	s.RunUntil(Time(5 * time.Second))
	if s.Now() != Time(5*time.Second) {
		t.Fatalf("clock at %v after RunUntil, want 5s", s.Now())
	}
}

func TestRunForIsRelative(t *testing.T) {
	s := NewScheduler()
	s.RunFor(3 * time.Second)
	s.RunFor(4 * time.Second)
	if s.Now() != Time(7*time.Second) {
		t.Fatalf("clock at %v, want 7s", s.Now())
	}
}

func TestSchedulingInPastClampsToNow(t *testing.T) {
	s := NewScheduler()
	s.RunFor(10 * time.Second)
	var at Time
	s.At(Time(2*time.Second), "late", func() { at = s.Now() })
	s.Run()
	if at != Time(10*time.Second) {
		t.Fatalf("past event fired at %v, want clamped to 10s", at)
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	s := NewScheduler()
	var chain []string
	s.After(time.Second, "first", func() {
		chain = append(chain, "first")
		s.After(time.Second, "second", func() {
			chain = append(chain, "second")
		})
	})
	s.Run()
	if len(chain) != 2 || chain[1] != "second" {
		t.Fatalf("chained events %v, want [first second]", chain)
	}
	if s.Now() != Time(2*time.Second) {
		t.Fatalf("clock %v, want 2s", s.Now())
	}
}

func TestNilCallbackPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("At(nil fn) did not panic")
		}
	}()
	NewScheduler().After(time.Second, "bad", nil)
}

// Property: for any set of random delays, events fire in nondecreasing time
// order and the final clock equals the maximum delay.
func TestPropertyOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		s := NewScheduler()
		var fired []Time
		for _, d := range delays {
			s.After(time.Duration(d)*time.Millisecond, "p", func() {
				fired = append(fired, s.Now())
			})
		}
		s.Run()
		if len(fired) != len(delays) {
			return false
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			return false
		}
		max := Time(0)
		for _, d := range delays {
			if at := Time(time.Duration(d) * time.Millisecond); at > max {
				max = at
			}
		}
		return s.Now() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling a random subset leaves exactly the others firing.
func TestPropertyCancelSubset(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewScheduler()
		total := int(n%50) + 1
		fired := make([]bool, total)
		evs := make([]*Event, total)
		for i := 0; i < total; i++ {
			i := i
			evs[i] = s.After(time.Duration(rng.Intn(1000))*time.Millisecond, "p", func() {
				fired[i] = true
			})
		}
		cancelled := make([]bool, total)
		for i := 0; i < total; i++ {
			if rng.Intn(2) == 0 {
				s.Cancel(evs[i])
				cancelled[i] = true
			}
		}
		s.Run()
		for i := 0; i < total; i++ {
			if fired[i] == cancelled[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSchedulerThroughput(b *testing.B) {
	s := NewScheduler()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.After(time.Duration(i%100)*time.Millisecond, "b", func() {})
		if s.Len() > 1024 {
			s.RunUntil(s.Now().Add(50 * time.Millisecond))
		}
	}
	s.Run()
}
