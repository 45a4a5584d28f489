package script

import (
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
