package explore

import (
	"strings"
	"testing"

	"pfi/internal/dist"
	"pfi/internal/harden"
	"pfi/internal/tcp"
	"pfi/internal/trace"
)

func TestCoverageBitmap(t *testing.T) {
	entries := []trace.Entry{
		{Node: "vendor", Kind: "send", Type: "DATA"},
		{Node: "vendor", Kind: "send", Type: "DATA"},
		{Node: "xkernel", Kind: "recv", Type: "DATA"},
		{Node: "vendor", Kind: "timer", Type: "rto"},
	}
	c := CoverageOf(entries)
	if c.Count() == 0 {
		t.Fatal("coverage of a non-empty trace is empty")
	}
	if got := CoverageOf(entries).Fingerprint(); got != c.Fingerprint() {
		t.Errorf("fingerprint not deterministic: %s vs %s", got, c.Fingerprint())
	}

	// Merge into an empty map reports every bit as new; a second merge none.
	g := &Coverage{}
	if fresh := g.Merge(c); fresh != c.Count() {
		t.Errorf("first merge reported %d fresh bits, want %d", fresh, c.Count())
	}
	if fresh := g.Merge(c); fresh != 0 {
		t.Errorf("second merge reported %d fresh bits, want 0", fresh)
	}

	// Bits enumerates exactly Count() set bits.
	n := 0
	c.Bits(func(int) { n++ })
	if n != c.Count() {
		t.Errorf("Bits visited %d, Count says %d", n, c.Count())
	}

	// A different trace lights different bits.
	other := CoverageOf([]trace.Entry{{Node: "compsun1", Kind: "view", Type: "COMMIT"}})
	if g.Merge(other) == 0 {
		t.Error("distinct trace produced no new coverage")
	}
}

func TestCountBucket(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{0, 0}, {1, 1}, {3, 3}, {4, 4}, {7, 4}, {8, 5}, {15, 5}, {16, 6}, {31, 6}, {32, 7}, {127, 7}, {128, 8}, {5000, 8},
	} {
		if got := countBucket(tc.n); got != tc.want {
			t.Errorf("countBucket(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

// TestSeedCorpusEvaluates: every hand-shaped seed compiles, runs without an
// execution error, and produces coverage.
func TestSeedCorpusEvaluates(t *testing.T) {
	for i, s := range seedCorpus() {
		if err := s.Validate(); err != nil {
			t.Fatalf("seed %d invalid: %v", i, err)
		}
		src, err := Compile(s)
		if err != nil {
			t.Fatalf("seed %d does not compile: %v", i, err)
		}
		o := EvaluateWith(s, tcp.SunOS413(), harden.Config{})
		for _, v := range o.Violations {
			if v.Kind == ViolExecError {
				t.Fatalf("seed %d fails to execute: %s\nscenario:\n%s", i, v.Detail, src)
			}
		}
		if o.Cov.Count() == 0 {
			t.Errorf("seed %d produced no coverage", i)
		}
	}
}

// TestEvaluateDeterministic: the same schedule evaluates to the identical
// trace coverage and violation set every time — the property every other
// determinism guarantee stands on.
func TestEvaluateDeterministic(t *testing.T) {
	for i, s := range seedCorpus() {
		a := EvaluateWith(s, tcp.SunOS413(), harden.Config{})
		b := EvaluateWith(s, tcp.SunOS413(), harden.Config{})
		if a.Cov.Fingerprint() != b.Cov.Fingerprint() {
			t.Errorf("seed %d: coverage differs across identical runs", i)
		}
		if len(a.Violations) != len(b.Violations) {
			t.Errorf("seed %d: violations differ: %v vs %v", i, a.Violations, b.Violations)
		}
	}
}

// TestCompileShapes spot-checks the generated scenario text.
func TestCompileShapes(t *testing.T) {
	seeds := seedCorpus()

	src, err := Compile(seeds[2]) // vendor-send DATA corruption window
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"world tcp\n",
		"faultload vendor send {",
		"[string match {DATA} [msg_type cur_msg]]",
		"tcp_dial",
		"tcp_stream 3 250",
		"log probe tcp state [tcp_state]",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("tcp scenario missing %q:\n%s", want, src)
		}
	}

	src, err = Compile(seeds[3]) // 5-node gmp partition/heal
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"world gmp compsun1 compsun2 compsun3 compsun4 compsun5",
		"gmp_start",
		"partition {compsun1 compsun2 compsun3} {compsun4 compsun5}",
		"heal",
		"log probe gmp compsun1 trans [gmp_in_transition compsun1] group [gmp_group compsun1]",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("gmp scenario missing %q:\n%s", want, src)
		}
	}

	// A pinned profile renders as a braced world argument.
	s := seeds[0]
	s.Profile = "SunOS 4.1.3"
	src, err = Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "world tcp {SunOS 4.1.3}") {
		t.Errorf("pinned profile not rendered:\n%s", src)
	}
}

// TestScheduleQuiescent covers the oracle gating predicate.
func TestScheduleQuiescent(t *testing.T) {
	s := Schedule{World: WorldTCP, Warmup: 1, TailMS: 100_000, Genes: []Gene{
		{Kind: GeneFault, Node: "vendor", Dir: 1, Fault: 1, Type: "*", AtMS: 1000, DurMS: 2000, Prob: 1},
	}}
	if !s.Quiescent(200_000, 100_000) {
		t.Error("closed window well before the deadline should be quiescent")
	}
	if s.Quiescent(4000, 2000) {
		t.Error("window closing past the deadline should not be quiescent")
	}
	s.Genes[0].DurMS = 0 // persists forever
	if s.Quiescent(1_000_000, 1000) {
		t.Error("unbounded window is never quiescent")
	}
}

// TestRandSchedulesValid: every generated and mutated genome stays
// structurally valid and compilable.
func TestRandSchedulesValid(t *testing.T) {
	rng := dist.NewSource(42)
	for i := 0; i < 200; i++ {
		s := randSchedule(rng)
		if err := s.Validate(); err != nil {
			t.Fatalf("randSchedule #%d invalid: %v\n%s", i, err, s.Key())
		}
		for j := 0; j < 3; j++ {
			s = mutate(rng, s)
			if err := s.Validate(); err != nil {
				t.Fatalf("mutation %d of #%d invalid: %v\n%s", j, i, err, s.Key())
			}
		}
		if _, err := Compile(s); err != nil {
			t.Fatalf("mutated #%d does not compile: %v", i, err)
		}
	}
}
