package script

import (
	"strings"
	"testing"
)

// FuzzCompiledParity feeds the same source to a fresh tree-walking
// interpreter and a fresh VM interpreter and requires byte-identical
// results, error text, and puts output. This is the primary correctness
// oracle for the compiler: the tree-walker is the reference semantics.
// Seeds include a refused `proc` of each special form: both must refuse.
func FuzzCompiledParity(f *testing.F) {
	seedCorpus(f)
	f.Add(`set i 0; while {$i < 5} { incr i; eval break }`)
	for _, form := range []string{"if", "while", "foreach", "set", "incr", "expr", "return", "break", "continue"} {
		f.Add("catch {proc " + form + " {args} { return shadowed }} m; puts $m; proc " + form + " {} {}")
	}
	f.Add(`foreach {a b} {1 2 3} { puts $a$b }`)
	f.Add(`expr {1 ? [concat a] : $nope}`)
	f.Add(`set n [hostint 600]; incr n [hostint 3]; puts "$n [expr {$n % 7}]"`)
	for _, c := range numberGrammarCases {
		f.Add("expr {" + c.text + " + 0}")
		f.Add("set x {" + c.text + "}; list [expr {$x == 10}] [catch {incr x} m] $m $x")
	}
	f.Fuzz(func(t *testing.T, src string) {
		run := func(tree bool) (res, errs, out string) {
			in := newDiffInterp()
			in.tree = tree
			in.SetStepLimit(20000)
			var b strings.Builder
			in.SetOutput(&b)
			r, err := in.Eval(src)
			if err != nil {
				return r, err.Error(), b.String()
			}
			return r, "", b.String()
		}
		tr, te, to := run(true)
		vr, ve, vo := run(false)
		if tr != vr || te != ve || to != vo {
			t.Fatalf("engine divergence on %q:\n tree: res=%q err=%q out=%q\n   vm: res=%q err=%q out=%q",
				src, tr, te, to, vr, ve, vo)
		}
	})
}
