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
}

// TestEveryOpcodeNamed: every opcode vm.go declares, from opNop to the
// last, has an opNames entry, so deleting or adding one cannot leave a gap
// that a listing renders as "?".
func TestEveryOpcodeNamed(t *testing.T) {
	f, err := goparser.ParseFile(token.NewFileSet(), "vm.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	declared := 0
	for _, d := range f.Decls {
		if g, ok := d.(*ast.GenDecl); ok && g.Tok == token.CONST && g.Specs[0].(*ast.ValueSpec).Names[0].Name == "opNop" {
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
