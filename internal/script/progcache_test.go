package script

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// These tests pin the table of compiled bodies (Interp.bodies): one entry
// per source text, holding its parse, its program per frame mode and its
// expr tree, bounded by starting over empty.

func TestInterpCompileCacheBounded(t *testing.T) {
	in := New()
	// Far more distinct texts than the bound: the table must stay bounded,
	// and every text must still run right across each start-over.
	for i := 0; i < 10000; i++ {
		src := fmt.Sprintf("set v%d %d", i, i)
		if got := evalOK(t, in, src); got != fmt.Sprint(i) {
			t.Fatalf("Eval(%q) = %q, want %d", src, got, i)
		}
	}
	if got := len(in.bodies); got > maxBodies {
		t.Fatalf("table grew to %d entries (bound %d)", got, maxBodies)
	}
	if b := in.bodies["set v9999 9999"]; b == nil || b.script == nil || b.progs[modeGlobal] == nil {
		t.Error("the most recent text is not in the table")
	}
}

func TestProgramCacheRecompileOnMiss(t *testing.T) {
	in := New()
	const hot = `incr recompiled`
	pr := in.Prepare(MustParse(hot))
	if r := evalOK(t, in, hot); r != "1" {
		t.Fatalf("first eval = %q, want 1", r)
	}
	p1 := in.bodies[hot].progs[modeGlobal]
	if p1 != pr.p {
		t.Fatalf("Eval compiled a second program for a text Prepare had compiled")
	}
	// Fill the table to its bound so that it starts over.
	for i := 0; i < maxBodies && (len(in.bodies) > 1 || i == 0); i++ {
		evalOK(t, in, fmt.Sprintf(`set flood_%d %d`, i, i))
	}
	if _, ok := in.bodies[hot]; ok {
		t.Fatalf("the table never started over")
	}
	// A miss compiles again, transparently; the Prepared program it
	// handed out earlier keeps working.
	before := Stats().Compiles
	if r := evalOK(t, in, hot); r != "2" {
		t.Fatalf("recompiled eval = %q, want 2", r)
	}
	if got := Stats().Compiles - before; got != 1 {
		t.Fatalf("a text missing from the table compiled %d times, want 1", got)
	}
	if p2 := in.bodies[hot].progs[modeGlobal]; p2 == nil || p2 == p1 {
		t.Fatalf("expected a fresh program after the table started over")
	}
	if res, err := pr.Run(); err != nil || res.String() != "3" {
		t.Fatalf("prepared run = %q, %v; want 3", res, err)
	}
}

func TestProcProgramsCacheSeparately(t *testing.T) {
	// One text run at global scope and inside a proc (through eval) is
	// parsed once and compiled twice: the global program resolves its
	// variables to slots, the proc one to the frame. Neither run sees the
	// other's.
	in := New()
	const src = `set mode_probe $v; set mode_probe`
	in.SetGlobal("src", src)
	in.SetGlobal("v", "1")
	evalOK(t, in, `proc p {} { set v 2; global src; eval $src }`)
	if r := evalOK(t, in, src); r != "1" {
		t.Fatalf("global run = %q, want 1", r)
	}
	b := in.bodies[src]
	if b == nil || b.script == nil {
		t.Fatal("the global run left no parse in the table")
	}
	parsed := b.script
	before := Stats().Compiles
	if r := evalOK(t, in, `p`); r != "2" {
		t.Fatalf("proc run = %q, want 2", r)
	}
	// The text `p`, p's body, and src in proc mode.
	if got := Stats().Compiles - before; got != 3 {
		t.Fatalf("the proc call compiled %d programs, want 3", got)
	}
	if in.bodies[src] != b || b.script != parsed {
		t.Fatal("the proc run parsed the text again")
	}
	if b.progs[modeGlobal] == nil || b.progs[modeProc] == nil || b.progs[modeGlobal] == b.progs[modeProc] {
		t.Fatalf("want one program per mode, got %p and %p", b.progs[modeGlobal], b.progs[modeProc])
	}
	// The proc's run wrote its frame, not the global.
	if v, ok := in.Global("mode_probe"); !ok || v != "1" {
		t.Fatalf("global mode_probe = %q, %v; want 1", v, ok)
	}
	if r := evalOK(t, in, src); r != "1" {
		t.Fatalf("second global run = %q, want 1", r)
	}
}

// TestBodyTableKeepsNoParseFailure: a script or an expression that fails
// to parse leaves nothing in the table, and fails the same way again.
func TestBodyTableKeepsNoParseFailure(t *testing.T) {
	in := New()
	for _, src := range []string{`set x {`, `expr {1 +}`} {
		var errs [2]error
		for i := range errs {
			if _, errs[i] = in.Eval(src); errs[i] == nil {
				t.Fatalf("Eval(%q) succeeded", src)
			}
		}
		if errs[0].Error() != errs[1].Error() {
			t.Errorf("Eval(%q) failed with %q, then with %q", src, errs[0], errs[1])
		}
		var pe *ParseError
		if src == `set x {` && !errors.As(errs[1], &pe) {
			t.Errorf("Eval(%q) = %T, want a *ParseError", src, errs[1])
		}
	}
	for text, b := range in.bodies {
		if text == `set x {` || text == `1 +` || (b.script == nil && b.expr == nil) {
			t.Errorf("the table kept %q (script %v, expr %v)", text, b.script != nil, b.expr != nil)
		}
	}
}

func TestProgramCacheStepLimitReplay(t *testing.T) {
	// A cached program must honor step-limit changes made after compilation.
	in := New()
	src := `set i 0; while {$i < 50} { incr i }; set i`
	if r := evalOK(t, in, src); r != "50" {
		t.Fatalf("first run = %q", r)
	}
	in.SetStepLimit(10)
	_, err := in.Eval(src)
	if err == nil || !strings.Contains(err.Error(), "step limit") {
		t.Fatalf("cached program ignored new step limit: err=%v", err)
	}
}

// TestProgramCacheDefineDoesNotRecompile: a Program is compiled once per
// (source, frame mode). Rebinding a command the installed program calls —
// by proc or by Register — must not recompile it, and the next activation
// must still see the new binding through the invoke site's inline cache.
func TestProgramCacheDefineDoesNotRecompile(t *testing.T) {
	in := New()
	in.Register("probe", func(*Interp, []string) (string, error) { return "host", nil })
	pr := in.Prepare(MustParse(`if {[probe] eq "host"} { set r builtin } else { set r [probe] }; set r`))
	run := func(want string) {
		t.Helper()
		if res, err := pr.Run(); err != nil || res.String() != want {
			t.Fatalf("run = %q, %v; want %q", res, err, want)
		}
	}
	run("builtin")
	installed := pr.p
	compiles := Stats().Compiles

	in.Register("probe", func(*Interp, []string) (string, error) { return "v2", nil })
	run("v2")
	evalOK(t, in, `proc probe {} { return from-proc }`)
	afterDefine := Stats().Compiles // the proc command itself compiled once
	run("from-proc")

	if pr.p != installed {
		t.Fatalf("installed program was replaced")
	}
	// Only the `proc probe` definition and probe's one-command body compiled.
	if got := Stats().Compiles; got != afterDefine+1 || afterDefine != compiles+1 {
		t.Fatalf("compiles: %d at install, %d after the proc definition, %d at the end; want +1 and +1",
			compiles, afterDefine, got)
	}
}
