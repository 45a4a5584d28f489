package script

import (
	"fmt"
	"strings"
	"testing"
)

// runEngine evaluates src on a fresh interpreter, on the tree-walker or the
// VM, and returns the final result, error string ("" if nil), and
// everything the script printed with puts.
func runEngine(t *testing.T, tree bool, src string, steps int) (string, string, string) {
	t.Helper()
	in := newDiffInterp()
	in.tree = tree
	return evalCapture(in, src, steps)
}

// newDiffInterp is the interpreter every differential leg runs on: New plus
// one host command with a typed result, `hostint ?n?`, which returns its
// argument (default 70000) as an integer it never rendered — so the
// tree-walker, which sees every result as text, and the VM, whose fast path
// carries the integer into slots and operators, are diffed across it.
func newDiffInterp() *Interp {
	in := New()
	in.RegisterTyped("hostint", func(_ *Interp, args []string) (Value, error) {
		if len(args) == 0 {
			return Int(70000), nil
		}
		n, ok := parseInt(args[0])
		if !ok {
			return Value{}, fmt.Errorf("hostint: bad integer %q", args[0])
		}
		return Int(n), nil
	})
	return in
}

// evalCapture runs src on in under a step limit (0 keeps the default). A
// step-limit trip is folded into the returned error text, so every
// differential table also compares StepLimitHit() across engines.
func evalCapture(in *Interp, src string, steps int) (string, string, string) {
	if steps > 0 {
		in.SetStepLimit(steps)
	}
	var out strings.Builder
	in.SetOutput(&out)
	res, err := in.Eval(src)
	errs := ""
	if err != nil {
		errs = err.Error()
	}
	if in.StepLimitHit() {
		errs += " [step limit hit]"
	}
	return res, errs, out.String()
}

// diffEval asserts that the tree-walker and the VM agree byte-for-byte on
// result, error text, and output for src.
func diffEval(t *testing.T, src string) {
	t.Helper()
	diffEvalSteps(t, src, 0)
}

func diffEvalSteps(t *testing.T, src string, steps int) {
	t.Helper()
	tr, te, to := runEngine(t, true, src, steps)
	vr, ve, vo := runEngine(t, false, src, steps)
	if tr != vr || te != ve || to != vo {
		t.Errorf("engine divergence on %q:\n tree: res=%q err=%q out=%q\n   vm: res=%q err=%q out=%q",
			src, tr, te, to, vr, ve, vo)
	}
}

func TestEngineDiffBasics(t *testing.T) {
	cases := []string{
		``,
		`set x 1`,
		`set x 1; set y 2; expr {$x + $y}`,
		`set x hello; string length $x`,
		`puts [expr {1 + 2 * 3}]`,
		`set a 5; if {$a > 3} { puts big } else { puts small }`,
		`set a 1; if {$a > 3} { puts big } elseif {$a > 0} { puts mid } else { puts small }`,
		`if {1} then { puts yes }`,
		`set i 0; while {$i < 5} { incr i }; set i`,
		`set s 0; foreach x {1 2 3 4} { set s [expr {$s + $x}] }; set s`,
		`foreach {a b} {1 2 3 4 5} { puts "$a/$b" }`,
		`foreach x {} { puts never }; puts done`,
		`proc add {a b} { expr {$a + $b} }; add 2 3`,
		`proc f {x {y 10}} { expr {$x * $y} }; puts [f 3]; puts [f 3 4]`,
		`proc fact {n} { if {$n <= 1} { return 1 }; expr {$n * [fact [expr {$n - 1}]]} }; fact 6`,
		`set x 3; incr x; incr x 10; incr x -2; set x`,
		`set l [list a b c]; llength $l`,
		`set s "a b {c d}"; lindex $s 2`,
		`catch {undefined_cmd_xyz} msg; set msg`,
		`catch {expr {1/0}} msg; set msg`,
		`set x [catch {break}]; set x`,
		`set x [catch {continue}]; set x`,
		`set x [catch {return ok} v]; list $x $v`,
		`string range "hello world" 0 4`,
		`format "%d-%s" 42 xyz`,
		`expr {"abc" eq "abc"}`,
		`expr {3 > 2 ? "yes" : "no"}`,
		`expr {0 ? [undefined_nope] : 7}`,
		`expr {1 || [undefined_nope]}`,
		`expr {0 && [undefined_nope]}`,
		`set x 2; expr {$x == 2 && $x < 10}`,
		`expr {-(-5)}`,
		`expr {!0}`,
		`expr {~5}`,
		`expr {7 % 3}`,
		`expr {-7 / 2}`,
		`expr {-7 % 2}`,
		`expr {1.5 + 2}`,
		`expr {abs(-4)}`,
		`expr {max(1, 9, 3)}`,
		`expr {int(3.9)}`,
		`expr 1 + 2`,
		`set n 5; expr $n*2`,
		`eval {set q 9}; set q`,
		`eval set r 11; set r`,
		`set body {set z 42}; eval $body; set z`,
		`unknown_command one two`,
		`set`,
		`set a b c d`,
		`incr`,
		`incr novar`,
		`set v ""; incr v`,
		`set v abc; catch {incr v} m; set m`,
		`incr x notanumber`,
		`while {1} { break }; puts after`,
		`set i 0; while {$i < 10} { incr i; if {$i == 5} { break } }; set i`,
		`set i 0; set n 0; while {$i < 10} { incr i; if {$i % 2} { continue }; incr n }; list $i $n`,
		`foreach x {1 2 3} { if {$x == 2} { break }; puts $x }`,
		`foreach x {1 2 3} { if {$x == 2} { continue }; puts $x }`,
		`set out {}; foreach i {1 2} { foreach j {a b} { if {$j eq "b"} { continue }; lappend out $i$j } }; set out`,
		`break`,
		`continue`,
		`return`,
		`return hello`,
		// A host command's integer result, never rendered by the host, in
		// every position a result can land.
		`set s [hostint]; list $s [string length $s]`,
		`set s [hostint 512]; incr s; incr s [hostint 3]; set s`,
		`expr {[hostint] + 1}`,
		`expr {[hostint 7] % 3 == 1 && [hostint 0] == 0}`,
		`expr {~[hostint 5]}`,
		`expr {abs([hostint -4])}`,
		`expr {"[hostint 5]" eq "5"}`,
		`expr {~"[hostint 5]"}`,
		`if {[hostint 7] eq "7"} { puts seven }`,
		`if {[hostint 7] eq "007"} { puts seven } else { puts spelled }`,
		`puts "n=[hostint 1000000]"`,
		`foreach k [list [hostint 1] [hostint 2]] { puts $k }`,
		`proc id {x} { return $x }; id [hostint 99999]`,
		`set v [hostint]; set w $v; incr w; list $v $w`,
		`[hostint 5]`,
		`catch {hostint zz} m; set m`,
		`hostint`,
		`return [hostint -9]`,
		`set big [hostint 9223372036854775807]; incr big; set big`,
		`proc p {} { return }; p`,
		`proc p {} { return x y }; catch {p} m; set m`,
		`puts -nonewline abc; puts def`,
		`set x "a\nb"; string length $x`,
		`join {a b c} -`,
		`split a-b-c -`,
		`info exists nope`,
		`set yes 1; info exists yes`,
		`info level`,
		`proc lv {} { info level }; lv`,
		`string index hello 1`,
		`string first ll hello`,
		`append x a; append x b c; set x`,
		`lappend l 1; lappend l 2 3; set l`,
	}
	for _, src := range cases {
		diffEval(t, src)
	}
}

func TestEngineDiffFlowEdges(t *testing.T) {
	cases := []string{
		// break/continue raised from nested eval inside a compiled loop:
		// the static jump cannot apply, the dynamic flow path must.
		`set i 0; while {$i < 5} { incr i; eval break }; set i`,
		`set i 0; set n 0; while {$i < 5} { incr i; eval continue; incr n }; list $i $n`,
		// flow raised from a proc body does NOT terminate the caller's loop;
		// it surfaces as the proc's error/flow handling.
		`proc b {} { break }; set r [catch {foreach x {1 2} { b }} m]; list $r $m`,
		`proc c {} { continue }; set r [catch {while {1} { c }} m]; list $r $m`,
		// break inside word expansion (argument position) of a command in a loop.
		`set i 0; catch {while {$i < 3} { incr i; set x [break] }} m; list $i $m`,
		`set i 0; catch {while {$i < 3} { incr i; puts [continue] }} m; list $i $m`,
		// return from inside loop body in a proc.
		`proc f {} { foreach x {1 2 3} { if {$x == 2} { return $x } }; return none }; f`,
		`proc f {} { set i 0; while {1} { incr i; if {$i == 3} { return $i } } }; f`,
		// break from the condition expression of while (cmd substitution in cond).
		`proc g {} { break }; set r [catch {while {[g]} { puts body }} m]; list $r $m`,
		// nested loops: break exits only the inner one.
		`set out {}; foreach i {1 2} { set j 0; while {1} { incr j; if {$j == 2} { break } }; lappend out $i:$j }; set out`,
		// continue at top level of an if inside the loop (static jump eligible).
		`set out {}; foreach i {1 2 3 4} { if {$i == 2} { continue }; lappend out $i }; set out`,
		// flow through foreach item expansion.
		`catch {foreach x [break] { puts $x }} m; set m`,
		// return with a command-substituted value.
		`proc f {} { return [expr {6 * 7}] }; f`,
	}
	for _, src := range cases {
		diffEval(t, src)
	}
}

// TestEngineDiffShadowing: both engines refuse `proc` of each special form
// alike, and the form still means the builtin, inlined and as $f alike.
func TestEngineDiffShadowing(t *testing.T) {
	for _, c := range []struct{ form, use, out string }{
		{"if", `if {1} { puts a }; $f {0} { puts no } else { puts b }`, "a\nb"},
		{"while", `set i 0; while {$i < 2} { incr i }; $f {$i < 4} { incr i }; puts $i`, "4"},
		{"foreach", `foreach x {1 2} { puts $x }; $f x {3} { puts $x }`, "1\n2\n3"},
		{"set", `set x 5; $f y 6; puts $x$y`, "56"},
		{"incr", `set x 1; incr x; $f x 2; puts $x`, "4"},
		{"expr", `puts [expr {1 + 1}][$f 2 + 1]`, "23"},
		{"return", `proc g {} { return 5 }; proc h {} { global f; $f 6 }; puts [g][h]`, "56"},
		{"break", `set i 0; while {1} { incr i; break }; while {1} { incr i; $f }; puts $i`, "2"},
		{"continue", `set n 0; foreach x {1 2} { continue; incr n }; foreach x {1 2} { $f; incr n }; puts $n`, "0"},
	} {
		wantErr := fmt.Sprintf(`can't redefine special form %q (while executing "proc" near line 1)`, c.form)
		for _, tree := range []bool{true, false} {
			in := newDiffInterp()
			in.tree = tree
			_, errs, _ := evalCapture(in, "proc "+c.form+" {args} { return shadowed }", 0)
			_, useErr, out := evalCapture(in, "set f "+c.form+"; "+c.use, 0)
			if errs != wantErr || useErr != "" || out != c.out+"\n" {
				t.Errorf("tree=%v, proc %s: %q; then err=%q out=%q, want %q", tree, c.form, errs, useErr, out, c.out)
			}
		}
	}
}

// TestEngineDiffFormatStar: a * width or precision in format takes the
// next argument, as in Tcl — no Go fmt error text reaches a value — and a
// bad or missing one raises format's own errors on both engines. A literal
// width or precision past the bound is refused as a * one is, and %c
// honours flags and width.
func TestEngineDiffFormatStar(t *testing.T) {
	const notInt = `expected integer but got "x" (while executing "format" near line 1)`
	const tooFew = `not enough arguments for all format specifiers (while executing "format" near line 1)`
	for _, tc := range []struct{ src, res, err string }{
		{`format {%*d|} 5 3`, "    3|", ""},
		{`format {%.*f|} 2 3.14159`, "3.14|", ""},
		{`format {%*.*f|} 8 2 3.14159`, "    3.14|", ""},
		{`format {%*d|} -5 3`, "3    |", ""},
		{`format {%.*f|} -2 3.14159`, "3|", ""},
		{`format {%0*x|%*s|} 4 255 3 ab`, "00ff| ab|", ""},
		{`format {%*d|} x 3`, "", notInt},
		{`format {%.*f|} 2.5 3.1`, "", `expected integer but got "2.5" (while executing "format" near line 1)`},
		{`format {%*d|} 5`, "", tooFew},
		{`format {%*d|}`, "", tooFew},
		{`format {%*d|} 2000000 1`, "", `field size 2000000 out of range (while executing "format" near line 1)`},
		{`format {%99999999999d|} 1`, "", `field size 99999999999 out of range (while executing "format" near line 1)`},
		{`string length [format {%2000000d|} 1]`, "", `field size 2000000 out of range (while executing "format" near line 1)`},
		{`format {%.2000000f|} 1`, "", `field size 2000000 out of range (while executing "format" near line 1)`},
		{`string length [format {%01000000d|} 1]`, "1000001", ""},
		{`format {%5c|} 65`, "    A|", ""},
		{`format {%-*c|} 4 66`, "B   |", ""},
		{`format {%*c|%c} -3 67 68`, "C  |D", ""},
	} {
		for _, tree := range []bool{true, false} {
			res, errs, _ := runEngine(t, tree, tc.src, 0)
			if res != tc.res || errs != tc.err {
				t.Errorf("tree=%v %q = %q, err %q; want %q, err %q", tree, tc.src, res, errs, tc.res, tc.err)
			}
		}
	}
}

// TestEngineDiffStringRepeatBound: string repeat refuses a result past
// 1 MiB with a script error, before allocating it, and still builds one
// of exactly 1 MiB.
func TestEngineDiffStringRepeatBound(t *testing.T) {
	const over = `string repeat: result would exceed 1048576 bytes (while executing "string" near line 1)`
	for _, tc := range []struct{ src, res, err string }{
		{`string length [string repeat ab 524288]`, "1048576", ""},
		{`string length [string repeat ab 524289]`, "", over},
		{`string length [string repeat {} 99999999999]`, "0", ""},
		{`catch {string repeat x 1048577} m; set m`, "string repeat: result would exceed 1048576 bytes", ""},
	} {
		for _, tree := range []bool{true, false} {
			res, errs, _ := runEngine(t, tree, tc.src, 0)
			if res != tc.res || errs != tc.err {
				t.Errorf("tree=%v %q = %q, err %q; want %q, err %q", tree, tc.src, res, errs, tc.res, tc.err)
			}
		}
	}
}

// TestEngineDiffMathFuncs: both engines give the math functions' pinned
// results — not merely the same ones — in a literal form, with constant
// arguments, and a $var form, whose arguments are read at run time. min/max of integers stay exact
// beyond 2^53; int() and round() of a double no int64 holds fail.
func TestEngineDiffMathFuncs(t *testing.T) {
	const tooLarge = "expr: integer value too large to represent"
	for _, tc := range []struct{ src, res, err string }{
		{`expr {max(9007199254740993, 1)}`, "9007199254740993", ""},
		{`set x 9007199254740993; expr {max($x, 1)}`, "9007199254740993", ""},
		{`expr {min(-9007199254740993, 1)}`, "-9007199254740993", ""},
		{`set x -9007199254740993; expr {min($x, 1)}`, "-9007199254740993", ""},
		{`set x [hostint 9223372036854775807]; expr {max($x, 9223372036854775806)}`, "9223372036854775807", ""},
		{`expr {int(1e30)}`, "", tooLarge},
		{`set x 1e30; expr {int($x)}`, "", tooLarge},
		{`expr {round(1e30)}`, "", tooLarge},
		{`set x -1e30; expr {round($x)}`, "", tooLarge},
		{`expr {int(sqrt(-1))}`, "", tooLarge},
		{`set x -1; expr {int(sqrt($x))}`, "", tooLarge},
		{`expr {round(exp(1000))}`, "", tooLarge},
		{`set x 1000; expr {int(-exp($x))}`, "", tooLarge},
	} {
		for _, tree := range []bool{true, false} {
			res, errs, _ := runEngine(t, tree, tc.src, 0)
			if res != tc.res || !strings.HasPrefix(errs, tc.err) || (tc.err == "") != (errs == "") {
				t.Errorf("tree=%v %q = %q, err %q; want %q, err %q", tree, tc.src, res, errs, tc.res, tc.err)
			}
		}
	}
}

func TestEngineDiffErrors(t *testing.T) {
	cases := []string{
		`if`,
		`if {1}`,
		`if {1} {puts a} trailing`,
		`if {1} {puts a} else`,
		`if {0} {puts a} elseif`,
		`if {bad expr} { puts x }`,
		`while`,
		`while {1}`,
		`while {bad expr} { puts x }`,
		`while {notbool} { puts x }`,
		`foreach`,
		`foreach x`,
		`foreach x {1 2}`,
		`foreach {} {1 2} { puts y }`,
		`foreach x {bad {list} { puts y }`,
		`foreach x "a { b" { puts $x }`,
		`expr`,
		`expr {$undefined_var}`,
		`expr {1 +}`,
		`expr {foo(1)}`,
		`puts $undefined_var`,
		`set x $undefined_var`,
		`concat a$missing b`,
		`string length`,
		`llength {a { b}`,
		`proc`,
		`proc p`,
		`proc p {a} {body}; p`,
		`proc p {a} {body}; p 1 2`,
		`proc p {{a}} { set a }; catch {p} m; set m`,
		`[}`,
		`set x {unclosed`,
		`"unclosed`,
	}
	for _, src := range cases {
		diffEval(t, src)
	}
}

func TestEngineDiffStepLimit(t *testing.T) {
	cases := []string{
		`while {1} { set x 1 }`,
		`while {1} {}`,
		`proc f {} { f }; f`,
		`set i 0; while {$i < 100000} { incr i }`,
		`foreach x {1 2 3 4 5 6 7 8 9 10} { foreach y {1 2 3 4 5 6 7 8 9 10} { set z $x$y } }`,
		`for {set i 0} {1} {} {}`,
		`for {set i 0} {1} {incr i} { set x $i }`,
	}
	for _, src := range cases {
		for _, steps := range []int{1, 2, 3, 7, 25, 100} {
			diffEvalSteps(t, src, steps)
		}
	}
	// Every runaway loop form must also report the trip through
	// StepLimitHit, which is how hosts tell a budget trip from a script bug.
	for _, src := range []string{`while {1} {}`, `for {set i 0} {1} {} {}`, `while {1} { set x 1 }`} {
		for _, tree := range []bool{true, false} {
			if _, errs, _ := runEngine(t, tree, src, 1000); !strings.HasSuffix(errs, "[step limit hit]") {
				t.Errorf("tree=%v: %q tripped the limit without StepLimitHit: %q", tree, src, errs)
			}
		}
	}
}

// TestEngineDiffHostGlobals: the variables core.NewLayer presets
// (pfi_node, pfi_dir, pfi_protocol) are ordinary globals — a script
// installed once may branch on them, overwrite them, and read the new
// value back on a later activation, identically on the tree-walker, the
// unfused VM and the fused VM.
func TestEngineDiffHostGlobals(t *testing.T) {
	const filter = `if {$pfi_node eq "vendor"} { set seen vendor } else { set seen $pfi_node }
if {$pfi_dir eq "send" && $pfi_protocol ne ""} { append seen /$pfi_dir/$pfi_protocol }
set seen`
	run := func(tree, lowerOnly bool) string {
		in := New()
		in.tree = tree
		in.lowerOnly = lowerOnly
		in.SetVar("pfi_node", "vendor")
		in.SetVar("pfi_dir", "send")
		in.SetVar("pfi_protocol", "tcp")
		pr := in.Prepare(MustParse(filter))
		var log []string
		step := func(res string, err error) {
			if err != nil {
				res = "ERR:" + err.Error()
			}
			log = append(log, res)
		}
		prepared := func() (string, error) {
			v, err := pr.Run()
			return v.String(), err
		}
		step(prepared())
		step(in.Eval(`set pfi_node rewritten; set pfi_node`)) // a script write after install
		step(prepared())
		in.SetGlobal("pfi_protocol", "") // a host write after install
		step(prepared())
		step(in.Eval(`unset pfi_dir`))
		step(prepared())
		return strings.Join(log, "|")
	}
	want := run(true, false)
	if !strings.HasPrefix(want, "vendor/send/tcp|rewritten|rewritten/send/tcp|rewritten|") {
		t.Fatalf("tree-walker reference log is wrong: %q", want)
	}
	if got := run(false, true); got != want {
		t.Errorf("unfused VM diverges:\n tree: %q\n   vm: %q", want, got)
	}
	if got := run(false, false); got != want {
		t.Errorf("fused VM diverges:\n tree: %q\n   vm: %q", want, got)
	}
}

func TestEngineDiffStateful(t *testing.T) {
	// Parity must hold across multiple Evals on one interpreter, where the
	// program cache and global slots persist between calls.
	scripts := []string{
		`set count 0`,
		`proc bump {} { global count; incr count }`,
		`bump; bump; bump`,
		`set count`,
		`proc bump {} { global count; incr count 10 }`,
		`bump`,
		`set count`,
		`unset count`,
		`catch {set count} m; set m`,
	}
	runAll := func(tree bool) (string, string) {
		in := New()
		in.tree = tree
		var out strings.Builder
		in.SetOutput(&out)
		var last string
		for _, s := range scripts {
			r, err := in.Eval(s)
			if err != nil {
				last = "ERR:" + err.Error()
			} else {
				last = r
			}
			out.WriteString("|" + last)
		}
		return last, out.String()
	}
	tl, to := runAll(true)
	vl, vo := runAll(false)
	if tl != vl || to != vo {
		t.Errorf("stateful divergence:\n tree: last=%q out=%q\n   vm: last=%q out=%q", tl, to, vl, vo)
	}
}

func TestEngineDiffRegisterReplace(t *testing.T) {
	// Replacing a registered command bumps the epoch: compiled invoke
	// sites must re-resolve rather than calling the stale function.
	for _, tree := range []bool{true, false} {
		in := New()
		in.tree = tree
		in.Register("probe", func(i *Interp, args []string) (string, error) { return "v1", nil })
		r1, err := in.Eval(`probe`)
		if err != nil || r1 != "v1" {
			t.Fatalf("tree=%v: first call got %q, %v", tree, r1, err)
		}
		in.Register("probe", func(i *Interp, args []string) (string, error) { return "v2", nil })
		r2, err := in.Eval(`probe`)
		if err != nil || r2 != "v2" {
			t.Fatalf("tree=%v: after replace got %q, %v", tree, r2, err)
		}
	}
}

// TestHostCannotRebindSpecialForms: Register and RegisterTyped panic on a
// special form; on info and puts they work, as does `proc info`.
func TestHostCannotRebindSpecialForms(t *testing.T) {
	panics := func(f func()) (p bool) {
		defer func() { p = recover() != nil }()
		f()
		return false
	}
	in := New()
	cmd := func(*Interp, []string) (string, error) { return "host", nil }
	typed := func(*Interp, []string) (Value, error) { return Int(7), nil }
	for _, form := range []string{"if", "while", "foreach", "set", "incr", "expr", "return", "break", "continue"} {
		if !panics(func() { in.Register(form, cmd) }) || !panics(func() { in.RegisterTyped(form, typed) }) {
			t.Errorf("rebinding %s did not panic", form)
		}
	}
	in.Register("puts", cmd)
	in.RegisterTyped("info", typed)
	got := evalOK(t, in, `list [puts x] [info exists nope]`)
	if got != "host 7" {
		t.Errorf("replaced puts and info: %q", got)
	}
	pr := New().Prepare(MustParse(`info exists x`))
	evalOK(t, pr.in, `proc info {args} { return shadow }`)
	if v, err := pr.Run(); err != nil || v.String() != "shadow" {
		t.Errorf("info exists fast path under proc info: %q, %v", v, err)
	}
}
