package script

import (
	"fmt"
	"strings"
	"testing"
)

// These tests pin the interaction between srcCache and compiled Programs:
// pointer-alias interning under the alias cap, recompile-on-miss after
// eviction, and hot entries surviving the LRU half-drop.

func TestProgramCacheAliasCap(t *testing.T) {
	in := New()
	const src = `set alias_probe 1; incr alias_probe`
	// Present the same content through many distinct string headers: each
	// copy misses the pointer index but hits the content index, which may
	// register at most maxAliases pointer aliases per entry.
	for i := 0; i < 20; i++ {
		copySrc := string([]byte(src))
		evalOK(t, in, copySrc)
	}
	if n := len(in.progs.bySrc); n != 1 {
		t.Fatalf("progs cache has %d entries for one distinct source, want 1", n)
	}
	e := in.progs.bySrc[src]
	if e == nil {
		t.Fatalf("content index lost the entry")
	}
	if len(e.keys) > maxAliases {
		t.Fatalf("entry holds %d pointer aliases, cap is %d", len(e.keys), maxAliases)
	}
}

func TestProgramCacheRecompileOnMiss(t *testing.T) {
	in := New()
	const hot = `set recompiled 1`
	evalOK(t, in, hot)
	p1, ok := in.progs.get(hot)
	if !ok {
		t.Fatalf("program not cached after eval")
	}
	// Flood the cache past its limit so eviction drops the now-cold entry.
	for i := 0; i < 4100; i++ {
		evalOK(t, in, fmt.Sprintf(`set flood_%d %d`, i, i))
	}
	if _, ok := in.progs.get(hot); ok {
		t.Fatalf("cold entry survived a full flood; eviction not exercised")
	}
	// A miss must transparently recompile — same results, fresh Program.
	if r := evalOK(t, in, hot); r != "1" {
		t.Fatalf("recompiled eval = %q, want 1", r)
	}
	p2, ok := in.progs.get(hot)
	if !ok {
		t.Fatalf("program not re-cached after recompile")
	}
	if p1 == p2 {
		t.Fatalf("expected a fresh Program after eviction, got the evicted pointer back")
	}
}

func TestProgramCacheHotEntrySurvivesEviction(t *testing.T) {
	in := New()
	const hot = `set hot_counter 0`
	evalOK(t, in, hot)
	p1, ok := in.progs.get(hot)
	if !ok {
		t.Fatalf("hot program not cached")
	}
	// Interleave hot touches with cold inserts: LRU half-drop must keep the
	// hot entry because its lastUse stays recent.
	for i := 0; i < 9000; i++ {
		evalOK(t, in, fmt.Sprintf(`set cold_%d x`, i))
		if i%100 == 0 {
			evalOK(t, in, hot)
		}
	}
	p2, ok := in.progs.get(hot)
	if !ok {
		t.Fatalf("hot program evicted despite frequent use")
	}
	if p1 != p2 {
		t.Fatalf("hot program was recompiled (pointer changed) despite frequent use")
	}
}

func TestProcProgramsCacheSeparately(t *testing.T) {
	// The same body text must compile per-mode: global evals resolve vars to
	// slots, proc bodies to frame maps. A body evaluated both ways lands in
	// both caches without cross-talk.
	in := New()
	const body = `set mode_probe 7; set mode_probe`
	if r := evalOK(t, in, body); r != "7" {
		t.Fatalf("global eval = %q", r)
	}
	evalOK(t, in, `proc p {} {set mode_probe 7; set mode_probe}`)
	if r := evalOK(t, in, `p`); r != "7" {
		t.Fatalf("proc eval = %q", r)
	}
	if _, ok := in.progs.get(body); !ok {
		t.Fatalf("global program missing")
	}
	if _, ok := in.procProgs.get(body); !ok {
		t.Fatalf("proc program missing")
	}
	// The global one wrote a global; the proc one wrote a frame local.
	if v, ok := in.Var("mode_probe"); !ok || v != "7" {
		t.Fatalf("global mode_probe = %q, %v", v, ok)
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
