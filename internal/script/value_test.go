package script

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// numberGrammarCases is the script language's number grammar, spelling by
// spelling: what each reads as when it is an expr literal, a variable
// operand, and the variable incr reads ("ERR" = an error). There is one
// grammar: Go's digit separator, which strconv accepts in base 0, is not
// part of it, so `1_0` is text everywhere — at the parent it was a syntax
// error as a literal but ten in a variable. The corpus of
// FuzzCompiledParity is seeded from this table.
var numberGrammarCases = []struct {
	text, literal, operand, incr string
}{
	{"1_0", "ERR", "ERR", "ERR"},
	{"0x1_0", "ERR", "ERR", "ERR"},
	{"1_0.5", "ERR", "ERR", "ERR"},
	{"007", "7", "7", "8"},
	{"0x10", "16", "16", "17"},
	{"0b11", "ERR", "3", "4"},
	{" 5 ", "5", "5", "6"},
	{"+4", "4", "4", "5"},
	{"1e3", "1000.0", "1000.0", "ERR"},
	{"5.0", "5.0", "5.0", "ERR"},
	{"inf", "ERR", "+Inf", "ERR"},
}

func TestNumberGrammar(t *testing.T) {
	for _, c := range numberGrammarCases {
		for _, tree := range []bool{true, false} {
			eval := func(src string) string {
				in := New()
				in.tree = tree
				res, err := in.Eval(src)
				if err != nil {
					return "ERR"
				}
				return res
			}
			set := "set x {" + c.text + "}; "
			for _, probe := range []struct{ what, src, want string }{
				{"literal", "expr {" + c.text + " + 0}", c.literal},
				{"operand", set + "expr {$x + 0}", c.operand},
				{"incr", set + "incr x", c.incr},
				{"increment", "set y 0; incr y {" + strings.TrimSpace(c.text) + "}", decr(c.incr)},
				{"spelling kept", set + "catch {incr x 0}; catch {expr {$x + 1}}; set x", keptSpelling(c.text, c.incr)},
			} {
				if got := eval(probe.src); got != probe.want {
					t.Errorf("tree=%v, %q as %s: %q, want %q", tree, c.text, probe.what, got, probe.want)
				}
			}
		}
		// The spellings that are not numbers are not numbers to == either:
		// a node or field spelled 1_0 does not compare equal to 10.
		if c.operand == "ERR" {
			diffEval(t, "set x {"+c.text+"}; list [expr {$x == 10}] [expr {$x == 16}] [catch {if {$x} {}}]")
		}
	}
}

// decr is the increment a spelling stands for, given what incr made of a
// variable holding it.
func decr(incr string) string {
	if incr == "ERR" {
		return "ERR"
	}
	n, _ := strconv.Atoi(incr)
	return strconv.Itoa(n - 1)
}

// keptSpelling: `incr x 0` rewrites an integer variable canonically (as Tcl
// does); anything incr refuses keeps its spelling however it is computed
// with.
func keptSpelling(text, incr string) string {
	if incr == "ERR" {
		return text
	}
	return decr(incr)
}

// Property: laziness is not observable. A computed integer renders exactly
// as strconv.FormatInt, rendering and re-parsing gives the value back, and
// text that was used in arithmetic reads back byte-identical.
func TestPropertyValueLaziness(t *testing.T) {
	ints := func(n int64) bool {
		v := Int(n)
		want := strconv.FormatInt(n, 10)
		if v.String() != want || v.text() != want || v.text() != want {
			return false
		}
		if buf := v.appendText([]byte("x")); string(buf) != "x"+want {
			return false
		}
		back := Str(v.String())
		m, ok := back.integer()
		return ok && m == n
	}
	if err := quick.Check(ints, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	floats := func(f float64) bool {
		v := floatv(f)
		back := Str(v.String())
		n, ok := back.number()
		if !ok || n.kind != floatVal {
			return false
		}
		return n.n == v.n || (math.IsNaN(f) && math.IsNaN(n.float()))
	}
	if err := quick.Check(floats, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	for _, f := range []float64{0, math.Copysign(0, -1), 5, 1e3, 1e20, 1e21, 1e-7, math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64} {
		if !floats(f) {
			t.Errorf("float %v does not survive render and parse", f)
		}
	}
	spelled := func(s string) bool {
		v := Str(s)
		v.number()
		v.truth()
		v.coerced()
		sum, _ := binop(vbAdd, &v, &v)
		_ = sum
		return v.String() == s && v.text() == s
	}
	if err := quick.Check(spelled, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	for _, s := range []string{"007", " 5 ", "0x10", "+4", "1e3", "5.0", "-0", "1_0", "", "DATA"} {
		if !spelled(s) {
			t.Errorf("spelling %q changed by being computed with", s)
		}
		in := New()
		in.SetVar("x", s)
		evalOK(t, in, `catch {expr {$x + 1}}; catch {expr {$x % 3 == 0}}; catch {if {$x} {}}; catch {incr y $x}`)
		if got, _ := in.Global("x"); got != s {
			t.Errorf("variable spelled %q reads %q after arithmetic", s, got)
		}
	}
}

// TestUnrenderedIntReadsAsText: every way of reading a variable as text sees
// the digits of an integer the VM never rendered — the host API, info
// exists, a command argument, a concatenation, a proc argument.
func TestUnrenderedIntReadsAsText(t *testing.T) {
	var logged []string
	newInterp := func() *Interp {
		in := newDiffInterp()
		in.Register("msg_log", func(_ *Interp, args []string) (string, error) {
			logged = append(logged, strings.Join(args, "|"))
			return "", nil
		})
		evalOK(t, in, `set n 599; incr n; set bytes [expr {$n * 1000 + [hostint 7]}]; set dropped [hostint]`)
		return in
	}
	in := newInterp()
	if s := in.gslots[in.gslotOf["n"]]; s.v.kind != intVal || s.v.memo == memoText {
		t.Fatalf("slot n was rendered before anything read it: %+v", s.v)
	}
	for name, want := range map[string]string{"n": "600", "bytes": "600007", "dropped": "70000"} {
		if got, ok := in.Global(name); !ok || got != want {
			t.Errorf("Global(%s) = %q, %v", name, got, ok)
		}
		if got, ok := in.Var(name); !ok || got != want {
			t.Errorf("Var(%s) = %q, %v", name, got, ok)
		}
	}
	in = newInterp()
	for src, want := range map[string]string{
		`info exists n`:                                "1",
		`string length $n`:                             "3",
		`string length $bytes`:                         "6",
		`msg_log cur_msg "dropped $dropped"`:           "",
		`proc show {v} { return "<$v>" }; show $bytes`: "<600007>",
		`set copy $n; incr copy; list $n $copy`:        "600 601",
		`list $n$n [expr {$n}] "$n"`:                   "600600 600 600",
	} {
		if got := evalOK(t, in, src); got != want {
			t.Errorf("%s = %q, want %q", src, got, want)
		}
	}
	if len(logged) != 1 || logged[0] != "cur_msg|dropped 70000" {
		t.Errorf("msg_log saw %q", logged)
	}
}

// TestSnapshotHoldsUnrenderedInt: a capture taken while a slot holds an
// integer nobody rendered restores its text and its number, and captures and
// restores on either side of an incr agree with plain strings.
func TestSnapshotHoldsUnrenderedInt(t *testing.T) {
	in := New()
	evalOK(t, in, `set n 599; incr n`)
	before := in.SnapshotState() // n = 600, unrendered
	evalOK(t, in, `incr n; incr n`)
	after := in.SnapshotState() // n = 602, unrendered
	if got, _ := in.Global("n"); got != "602" {
		t.Fatalf("n = %q", got)
	}

	in.RestoreState(before)
	if got := evalOK(t, in, `expr {$n + 1}`); got != "601" {
		t.Errorf("number after restore: %q", got)
	}
	if got, _ := in.Global("n"); got != "600" {
		t.Errorf("text after restore: %q", got)
	}
	evalOK(t, in, `incr n 10`)
	in.RestoreState(after)
	if got := evalOK(t, in, `string length $n; set n`); got != "602" {
		t.Errorf("later capture restored %q", got)
	}
	in.RestoreState(before)
	in.RestoreState(before) // idempotent; the live slot's rendering never reached the capture
	if got := evalOK(t, in, `incr n`); got != "601" {
		t.Errorf("incr after double restore: %q", got)
	}
	// A slot interned after the capture reads as unset once restored.
	evalOK(t, in, `set late [expr {1 + 1}]`)
	in.RestoreState(before)
	if got := evalOK(t, in, `info exists late`); got != "0" {
		t.Errorf("late slot survived the restore")
	}
}

// TestBuiltinTableDoesNotBleed: the builtins live in one process-wide table
// an interpreter never writes. Replacing one on an interpreter changes that
// interpreter alone, with the call-site caches tracking it as when every
// interpreter had its own copy.
func TestBuiltinTableDoesNotBleed(t *testing.T) {
	a, b := New(), New()
	const probe = `set x 1; incr x; string length abc`
	prA, prB := a.Prepare(MustParse(probe)), b.Prepare(MustParse(probe))
	run := func(pr *Prepared) string {
		t.Helper()
		v, err := pr.Run()
		if err != nil {
			return "ERR:" + err.Error()
		}
		return v.String()
	}
	if run(prA) != "3" || run(prB) != "3" {
		t.Fatal("baseline")
	}
	nBuiltins := len(builtins)

	a.Register("string", func(*Interp, []string) (string, error) { return "mine", nil })
	if got := run(prA); got != "mine" {
		t.Errorf("a after Register: %q", got)
	}
	if got := run(prB); got != "3" {
		t.Errorf("b saw a's Register: %q", got)
	}
	a.Register("string", builtins["string"].cmd)
	if got := run(prA); got != "3" {
		t.Errorf("a after re-Register: %q", got)
	}
	if len(builtins) != nBuiltins || len(New().commands) != 0 {
		t.Errorf("the shared table changed (%d → %d entries) or a fresh interpreter owns commands", nBuiltins, len(builtins))
	}
	if got := evalOK(t, New(), probe); got != "3" {
		t.Errorf("a fresh interpreter: %q", got)
	}
}

// TestStacksLeftClean: a run zeroes what it reached on the shared stacks —
// entries it popped as well as ones an error or a break left behind — and
// the bound it clears to is a static one, so it is checked here against
// what runs really leave.
func TestStacksLeftClean(t *testing.T) {
	in := newDiffInterp()
	for _, src := range []string{
		`set s [list a [string repeat x 40] c]; foreach {p q} $s { set r "$p/$q[hostint]" }`,
		`proc f {a b c} { return "$a$b$c" }; f [f 1 2 3] [f 4 5 6] [expr {1 + 2 * (3 + [hostint 4])}]`,
		`foreach i {1 2 3} { foreach j {4 5} { if {$j == 5} { break }; f $i $j [f $i $j nope] } }`,
		`catch {f a b [f c d [error deep]]}`,
		`catch {expr {1 + (2 * (3 + "x[nosuch]"))}}`,
		`set i 0; while {$i < 3} { incr i; catch {f $i [expr {$i / 0}] x} }`,
		`expr {[hostint 1] ? "[f a b c][f d e f]" : 0}`,
	} {
		in.Eval(src)
		for k, v := range in.vmStack[:cap(in.vmStack)] {
			if v != (Value{}) {
				t.Errorf("after %q: stack entry %d of %d still holds %+v", src, k, cap(in.vmStack), v)
			}
		}
		for k, fe := range in.vmFes[:cap(in.vmFes)] {
			if fe.items != nil {
				t.Errorf("after %q: foreach entry %d still holds its items", src, k)
			}
		}
		if len(in.vmStack) != 0 || len(in.vmFes) != 0 {
			t.Errorf("after %q: %d stack and %d foreach entries live", src, len(in.vmStack), len(in.vmFes))
		}
	}
}
