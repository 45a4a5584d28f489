package script

import (
	"strings"
	"testing"
)

// TestCompiledEvalAllocBudget pins the steady-state allocations of running
// an already-compiled program on the VM. The filter body below is the
// BenchmarkInterpEval script: command substitution, an expr guard with &&,
// and incr bookkeeping. After warmup the remaining allocations are the
// command-substitution result handed to the registered Go command and its
// copy into the set slot — everything else runs on pooled stacks.
//
// The race detector inflates allocation counts; enforce in normal builds.
func TestCompiledEvalAllocBudget(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	const budget = 2

	in := New()
	in.Register("msg_type", func(_ *Interp, args []string) (string, error) {
		return "DATA", nil
	})
	s := MustParse(`
		set type [msg_type cur_msg]
		if {$type eq "DATA" && [string length $type] > 0} { incr seen }
	`)
	for i := 0; i < 16; i++ {
		if _, err := in.Run(s); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := in.Run(s); err != nil {
			t.Fatal(err)
		}
	})
	if avg > budget {
		t.Fatalf("compiled eval steady state allocates %.1f/op, budget is %d", avg, budget)
	}
}

// TestCompiledEvalNoAllocControlFlow pins a pure control-flow loop — no
// command dispatch, no substitution — which must run allocation-free once
// compiled: the whole point of lowering to the register VM.
func TestCompiledEvalNoAllocControlFlow(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	in := New()
	s := MustParse(`set i 0
while {$i < 8} { incr i }`)
	for i := 0; i < 4; i++ {
		if _, err := in.Run(s); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := in.Run(s); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0 {
		t.Fatalf("compiled control-flow loop allocates %.1f/op, want 0", avg)
	}
}

// TestTreeEngineStillWorks guards the reference implementation the
// differential tests select with the tree flag.
func TestTreeEngineStillWorks(t *testing.T) {
	in := New()
	in.tree = true
	var out strings.Builder
	in.SetOutput(&out)
	r, err := in.Eval(`set s 0; foreach x {1 2 3} { set s [expr {$s + $x}] }; puts $s; set s`)
	if err != nil {
		t.Fatal(err)
	}
	if r != "6" || out.String() != "6\n" {
		t.Fatalf("tree engine: r=%q out=%q", r, out.String())
	}
}
