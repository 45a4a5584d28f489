package trace

import (
	"testing"
	"time"

	"pfi/internal/simtime"
)

func at(s float64) simtime.Time {
	return simtime.Time(time.Duration(s * float64(time.Second)))
}

func TestLogFilter(t *testing.T) {
	l := NewLog()
	l.Addf(at(1), "sun", "drop", "DATA", 100, "")
	l.Addf(at(2), "sun", "drop", "ACK", 0, "")
	l.Addf(at(3), "aix", "drop", "DATA", 101, "")
	l.Addf(at(4), "sun", "send", "DATA", 102, "")

	if got := len(l.Filter("sun", "", "")); got != 3 {
		t.Errorf("Filter(sun) = %d entries, want 3", got)
	}
	if got := len(l.Filter("", "drop", "")); got != 3 {
		t.Errorf("Filter(drop) = %d entries, want 3", got)
	}
	if got := len(l.Filter("sun", "drop", "DATA")); got != 1 {
		t.Errorf("Filter(sun,drop,DATA) = %d entries, want 1", got)
	}
	if got := len(l.Filter("", "", "")); got != 4 {
		t.Errorf("Filter(all) = %d entries, want 4", got)
	}
	if l.Len() != 4 {
		t.Errorf("Len = %d", l.Len())
	}
}

func TestTimes(t *testing.T) {
	l := NewLog()
	l.Addf(at(1), "n", "recv", "KA", 0, "")
	l.Addf(at(5), "n", "recv", "KA", 0, "")
	ts := l.Times("n", "recv", "KA")
	if len(ts) != 2 || ts[0] != at(1) || ts[1] != at(5) {
		t.Fatalf("Times = %v", ts)
	}
}

func TestIntervals(t *testing.T) {
	ts := []simtime.Time{at(1), at(3), at(7)}
	got := Intervals(ts)
	want := []time.Duration{2 * time.Second, 4 * time.Second}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("Intervals = %v, want %v", got, want)
	}
	if Intervals(nil) != nil {
		t.Fatal("Intervals(nil) != nil")
	}
	if Intervals(ts[:1]) != nil {
		t.Fatal("Intervals of singleton != nil")
	}
}

// A BSD-style retransmission schedule: exponential doubling to a 64 s cap.
func TestAnalyzeBackoffBSDSchedule(t *testing.T) {
	ts := []simtime.Time{at(0)}
	cur := 0.0
	for _, gap := range []float64{1, 2, 4, 8, 16, 32, 64, 64, 64, 64, 64, 64} {
		cur += gap
		ts = append(ts, at(cur))
	}
	r := AnalyzeBackoff(ts, 0.1)
	if r.Retransmissions != 12 {
		t.Errorf("Retransmissions = %d, want 12", r.Retransmissions)
	}
	if !r.Exponential {
		t.Error("schedule not detected as exponential")
	}
	if !r.PlateauReached || r.Plateau != 64*time.Second {
		t.Errorf("plateau = %v reached=%v, want 64 s", r.Plateau, r.PlateauReached)
	}
	if r.First != time.Second {
		t.Errorf("First = %v, want 1 s", r.First)
	}
}

// A Solaris-style schedule: short floor, pure exponential, no plateau.
func TestAnalyzeBackoffNoPlateau(t *testing.T) {
	ts := []simtime.Time{at(0)}
	cur := 0.0
	for _, gap := range []float64{0.33, 0.66, 1.32, 2.64, 5.28, 10.56, 21.12, 42.24, 48} {
		cur += gap
		ts = append(ts, at(cur))
	}
	r := AnalyzeBackoff(ts, 0.15)
	if r.Retransmissions != 9 {
		t.Errorf("Retransmissions = %d, want 9", r.Retransmissions)
	}
	if r.PlateauReached {
		t.Errorf("plateau %v detected, want none", r.Plateau)
	}
	if r.First != 330*time.Millisecond {
		t.Errorf("First = %v, want 330 ms", r.First)
	}
}

func TestAnalyzeBackoffNotExponential(t *testing.T) {
	// Constant 75-second keep-alive retransmissions: a plateau from the
	// start, not an exponential ramp — but also not "non-exponential"
	// failure since there are no pre-plateau gaps.
	ts := []simtime.Time{at(0)}
	for i := 1; i <= 8; i++ {
		ts = append(ts, at(float64(i)*75))
	}
	r := AnalyzeBackoff(ts, 0.1)
	if !r.PlateauReached || r.Plateau != 75*time.Second {
		t.Fatalf("plateau = %v reached=%v, want 75 s", r.Plateau, r.PlateauReached)
	}
	// Linear (non-doubling) gaps must be flagged when present pre-plateau.
	ts2 := []simtime.Time{at(0), at(1), at(3), at(6), at(10), at(100), at(190)}
	r2 := AnalyzeBackoff(ts2, 0.05)
	if r2.Exponential {
		t.Error("linear ramp misdetected as exponential")
	}
}

func TestAnalyzeBackoffDegenerate(t *testing.T) {
	if r := AnalyzeBackoff(nil, 0.1); r.Retransmissions != -1 && r.Retransmissions != 0 {
		// len(nil)-1 == -1; document that callers pass >=1 timestamps.
		t.Logf("degenerate retransmissions = %d", r.Retransmissions)
	}
	r := AnalyzeBackoff([]simtime.Time{at(5)}, 0.1)
	if r.Retransmissions != 0 || r.Gaps != nil {
		t.Fatalf("singleton backoff = %+v", r)
	}
}
