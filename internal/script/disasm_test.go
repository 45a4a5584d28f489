package script

import (
	"go/ast"
	goparser "go/parser"
	"go/token"
	"slices"
	"strings"
	"testing"
)

// TestDisassembleBenchScript renders the benchmark filter bodies. Primarily
// a smoke test that Disassemble covers the opcodes the fuser emits; run with
// -v to inspect the listings.
func TestDisassembleBenchScript(t *testing.T) {
	in := New()
	in.Register("msg_type", func(_ *Interp, args []string) (string, error) { return "DATA", nil })
	in.Register("xDrop", func(_ *Interp, args []string) (string, error) { return "", nil })
	var b strings.Builder
	err := in.DumpProgram(&b, "bench-filter", `if {[msg_type cur_msg] eq "DATA"} {
	if {![info exists dropped]} { set dropped 0 }
	if {$dropped < 3} {
		incr dropped
		xDrop cur_msg
	}
}
`)
	if err != nil {
		t.Fatal(err)
	}
	err = in.DumpProgram(&b, "bench-eval", `
		set type [msg_type cur_msg]
		if {$type eq "DATA" && [string length $type] > 0} { incr seen }
	`)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"step.invoke", "invoke.cmp.br", "fused sites"} {
		if !strings.Contains(out, want) {
			t.Errorf("disassembly missing %q:\n%s", want, out)
		}
	}
	t.Log("\n" + out)

	// The lowering emits what the VM runs: a comparison under && or ||
	// needs no truth normalization, a plain operand does, and a [command]
	// word enters and leaves its nesting level in one op each.
	for _, c := range []struct {
		src        string
		want, omit string
		truths     int
	}{
		{src: `if {$a eq "x" && $b > 1} { incr n }`, want: "v.and", omit: "v.truth"},
		{src: `if {$a && $b} { incr n }`, want: "v.and", omit: "v.or", truths: 1},
		{src: `set x [msg_type cur_msg]`, want: "nest.enter.clear", omit: "nest.enter "},
		{src: `set x [msg_type cur_msg]`, want: "nest.leave.push", omit: "push.acc"},
	} {
		var b strings.Builder
		if err := in.DumpProgram(&b, "probe", c.src); err != nil {
			t.Fatal(err)
		}
		out := b.String()
		if n := strings.Count(out, "v.truth"); n != c.truths ||
			!strings.Contains(out, c.want) || strings.Contains(out, c.omit) {
			t.Errorf("%s: want %q, no %q, %d v.truth:\n%s", c.src, c.want, c.omit, c.truths, out)
		}
	}
}

// TestEveryOpcodeNamed: every opcode vm.go declares, from opStep to the
// last, has an opNames entry, so deleting or adding one cannot leave a gap
// that a listing renders as "?".
func TestEveryOpcodeNamed(t *testing.T) {
	f, err := goparser.ParseFile(token.NewFileSet(), "vm.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	declared := 0
	for _, d := range f.Decls {
		if g, ok := d.(*ast.GenDecl); ok && g.Tok == token.CONST && g.Specs[0].(*ast.ValueSpec).Names[0].Name == "opStep" {
			declared = len(g.Specs)
		}
	}
	if declared == 0 || len(opNames) != declared || slices.Contains(opNames[:], "") {
		t.Fatalf("vm.go declares %d opcodes; opNames has %d entries: %q", declared, len(opNames), opNames)
	}
	var b strings.Builder
	err = New().DumpProgram(&b, "probe", `if {!$n} { incr n } elseif {[string length x] eq "1"} { set y [expr {$n*2+1}] } else { puts "a$n" }
set i 0; while {$i < 3} { incr i; if {$i == 2} { continue }; break }; foreach {a b} $l { eval $a; return }`)
	if err != nil || strings.Contains(b.String(), "  ? ") {
		t.Fatalf("listing (%v):\n%s", err, b.String())
	}
}
