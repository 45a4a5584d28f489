package script

import (
	"strings"
	"testing"
)

// runVM evaluates src on a fresh VM-engine interpreter — fused (what ships)
// or lowered only — returning result, error text, and output.
func runVM(t *testing.T, fused bool, src string, steps int) (string, string, string) {
	t.Helper()
	in := newDiffInterp()
	in.lowerOnly = !fused
	return evalCapture(in, src, steps)
}

// diffEval3 asserts the tree-walker, the unfused VM, and the fused VM agree
// byte-for-byte on result, error text, and output.
func diffEval3(t *testing.T, src string, steps int) {
	t.Helper()
	tr, te, to := runEngine(t, true, src, steps)
	br, be, bo := runVM(t, false, src, steps)
	or, oe, oo := runVM(t, true, src, steps)
	if tr != br || te != be || to != bo {
		t.Errorf("vm-unfused diverges from tree on %q:\n tree: res=%q err=%q out=%q\n   vm: res=%q err=%q out=%q",
			src, tr, te, to, br, be, bo)
	}
	if tr != or || te != oe || to != oo {
		t.Errorf("vm-fused diverges from tree on %q:\n tree: res=%q err=%q out=%q\n  opt: res=%q err=%q out=%q",
			src, tr, te, to, or, oe, oo)
	}
}

// TestOptimizeDiffFusionBoundaries exercises exactly the shapes the fuser
// rewrites, with the refusal/flow/limit edges landing mid-superinstruction.
func TestOptimizeDiffFusionBoundaries(t *testing.T) {
	cases := []string{
		// A refused redefinition of a special form leaves the fused
		// step.incr.slot and landing-pad sites running the builtin.
		`proc if {args} { return shadowed }; if {1} { puts never }`,
		`set x 1; catch {proc incr {v} { return fake }} m; set r [incr x]; list $x $r $m`,
		`set i 0; foreach k {1 2 3} { if {$k == 2} { catch {proc if {args} { return late }} }; if {1} { incr i } }; set i`,
		`catch {proc set {args} { return ss }}; if {1} { set y 0 }`,
		// break/continue inside fused loop bodies: the flow-restore depths
		// recorded by the compiler must still hold on the fused stream.
		`set i 0; while {$i < 5} { incr i; if {$i == 3} { break } }; set i`,
		`set n 0; foreach x {1 2 3 4} { if {$x == 2} { continue }; incr n }; set n`,
		`set out {}; foreach i {1 2} { set j 0; while {1} { incr j; if {$j == 2} { break } }; lappend out $i:$j }; set out`,
		`set i 0; while {$i < 5} { incr i; eval break }; set i`,
		`set i 0; set n 0; while {$i < 5} { incr i; eval continue; incr n }; list $i $n`,
		// opInvokeCmpBr: command-substitution eq/ne against constants,
		// including numeric-normalization edges (007 eq 7 is TRUE in expr).
		`proc t {} { return DATA }; if {[t] eq "DATA"} { puts hit } else { puts miss }`,
		`proc t {} { return DATA }; if {[t] ne "DATA"} { puts hit } else { puts miss }`,
		`proc t {} { return 007 }; if {[t] eq "7"} { puts hit } else { puts miss }`,
		`proc t {} { return 7 }; if {[t] eq "007"} { puts hit } else { puts miss }`,
		`proc t {} { return 7.0 }; if {[t] eq "7"} { puts hit } else { puts miss }`,
		`proc t {} { return " 7 " }; if {[t] eq "7"} { puts hit } else { puts miss }`,
		`proc t {} { return "" }; if {[t] eq ""} { puts hit } else { puts miss }`,
		// Fused slot compare against consts, truthiness edges.
		`set dropped 0; if {$dropped < 3} { incr dropped }; set dropped`,
		`set v abc; catch {if {$v} { puts x }} m; set m`,
		`set v 0x10; if {$v == 16} { puts hex }`,
		// Errors raised from inside fused groups: unset slot reads, invoke
		// errors, wrong arity — wrapping must match unfused.
		`if {$never_set < 3} { puts x }`,
		`catch {if {$never_set < 3} { puts x }} m; set m`,
		`proc boom {} { error kaboom }; catch {if {[boom] eq "x"} { puts y }} m; set m`,
		`catch {string} m; set m`,
		// Landing pads: else/elseif chains put clear+jump and clear+step
		// shapes at branch targets.
		`set a 1; if {$a > 3} { puts big } elseif {$a > 0} { puts mid } else { puts small }`,
		`set a -1; if {$a > 3} { puts big } elseif {$a > 0} { puts mid } else { puts small }`,
		// The info-exists fast path: literal `info exists` answered from
		// the slot table, with the frame, unset, shadowing, and
		// interned-but-never-set edges.
		`set a 1; list [info exists a] [info exists nope]`,
		`if {![info exists dropped]} { set dropped 0 }; incr dropped; set dropped`,
		`set a 1; unset a; info exists a`,
		`proc p {} { set x 1; info exists x }; list [p] [info exists x]`,
		`proc p {} { global g; info exists g }; set g 5; list [p] [info exists g]`,
		`proc p {} { info exists q }; set q 1; p`,
		`set a 1; set r [info exists a]; proc info {args} { return shadow }; list $r [info exists a]`,
		// A typed host result through the fused dispatch shapes: the
		// invoke+compare+branch, the invoke feeding an operator, a slot
		// argument rendered in place, and the proc that later shadows it.
		`if {[hostint 7] eq "7"} { puts hit } else { puts miss }`,
		`if {[hostint 7] ne "7.0"} { puts hit } else { puts miss }`,
		`set n [hostint 600]; set m [expr {$n * 2 + [hostint 1]}]; list $n $m [string length $m]`,
		`set n [hostint 600]; incr n; hostint $n`,
		`set r [hostint 3]; proc hostint {args} { return "03" }; list $r [hostint] [expr {[hostint] + 1}]`,
		`set n 0; foreach k {5 7 8} { set n [expr {($n / 512 + $k) % 11 + [hostint]}] }; set n`,
	}
	for _, src := range cases {
		diffEval3(t, src, 0)
	}
}

// TestOptimizeDiffStepLimits lands the step limit on every offset within
// and around fused groups: step accounting inside a superinstruction must
// match the unfused stream exactly, budget by budget.
func TestOptimizeDiffStepLimits(t *testing.T) {
	cases := []string{
		`while {1} { set x 1 }`,
		`set i 0; while {$i < 100000} { incr i }`,
		`proc t {} { return DATA }; set n 0; while {1} { if {[t] eq "DATA"} { incr n } }`,
		`set dropped 0; while {1} { if {$dropped < 1000000} { incr dropped } }`,
		`proc f {} { f }; f`,
	}
	for _, src := range cases {
		for steps := 1; steps <= 30; steps++ {
			diffEval3(t, src, steps)
		}
		for _, steps := range []int{50, 100, 1000} {
			diffEval3(t, src, steps)
		}
	}
}

// TestPreparedRun: the Prepared handle must match Interp.Run byte for byte,
// including across engine fallback.
func TestPreparedRun(t *testing.T) {
	src := `if {![info exists n]} { set n 0 }; incr n; set n`
	for _, leg := range []struct{ tree, lowerOnly bool }{{false, false}, {false, true}, {true, false}} {
		in := New()
		in.tree, in.lowerOnly = leg.tree, leg.lowerOnly
		pr := in.Prepare(MustParse(src))
		for want := 1; want <= 3; want++ {
			res, err := pr.Run()
			if err != nil || res.String() != itoaFast(int64(want)) {
				t.Fatalf("%+v run %d: %q, %v", leg, want, res, err)
			}
		}
	}
}

// TestOptimizeInfoExistsFastPath: a literal `info exists` fuses with a
// slot-table fast path (visible in the listing), and shadowing info with a
// proc afterwards must stand the fast path down at the site.
func TestOptimizeInfoExistsFastPath(t *testing.T) {
	in := New()
	pr := in.Prepare(MustParse(`if {![info exists dropped]} { set dropped 0 }; incr dropped; set dropped`))
	if res, err := pr.Run(); err != nil || res.String() != "1" {
		t.Fatalf("first run: %q, %v", res, err)
	}
	if lst := Disassemble(pr.p); !strings.Contains(lst, "[info-exists slot") {
		t.Fatalf("listing lacks the info-exists tag:\n%s", lst)
	}
	// Shadowed: `[info exists dropped]` now returns "77" (truthy), so the
	// reset branch is skipped and incr continues from the first run.
	if _, err := in.Eval(`proc info {args} { return "77" }`); err != nil {
		t.Fatal(err)
	}
	if res, err := pr.Run(); err != nil || res.String() != "2" {
		t.Fatalf("post-shadow run: %q, %v", res, err)
	}
}

// TestOptStatsCounters: the compiler telemetry moves when the machinery
// runs — compiles and fused sites.
func TestOptStatsCounters(t *testing.T) {
	before := Stats()
	in := New()
	in.SetGlobal("proto", "tcp")
	s := MustParse(`if {$proto ne "" && $proto eq "tcp"} { set r 1 }; set r`)
	for i := 0; i < 2; i++ {
		if _, err := in.Run(s); err != nil {
			t.Fatal(err)
		}
	}
	after := Stats()
	if after.Compiles != before.Compiles+1 {
		t.Errorf("Compiles advanced by %d over two runs of one script, want 1", after.Compiles-before.Compiles)
	}
	if after.FusedOps <= before.FusedOps {
		t.Errorf("FusedOps did not advance")
	}
}
