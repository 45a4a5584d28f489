package script

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// evalOK evaluates src and fails the test on error.
func evalOK(t *testing.T, in *Interp, src string) string {
	t.Helper()
	res, err := in.Eval(src)
	if err != nil {
		t.Fatalf("Eval(%q) error: %v", src, err)
	}
	return res
}

func TestEvalTable(t *testing.T) {
	tests := []struct {
		name string
		src  string
		want string
	}{
		{"set returns value", `set x 5`, "5"},
		{"set reads value", `set x 5; set x`, "5"},
		{"var substitution", `set x hello; set y $x`, "hello"},
		{"braced var", `set long_name 3; set y ${long_name}`, "3"},
		{"command substitution", `set x [set y 7]`, "7"},
		{"nested command subst", `set x [set y [set z 9]]`, "9"},
		{"quoted word", `set x "a b c"`, "a b c"},
		{"quoted with var", `set v 5; set x "v=$v"`, "v=5"},
		{"quoted with cmdsub", `set x "n=[expr 1+1]"`, "n=2"},
		{"braced word literal", `set x {a $b [c]}`, "a $b [c]"},
		{"semicolon separator", `set a 1; set b 2`, "2"},
		{"comment ignored", "# a comment\nset x 4", "4"},
		{"trailing comment line", "set x 4\n# done", "4"},
		{"backslash escapes", `set x a\tb`, "a\tb"},
		{"backslash newline continuation", "set x [expr 1 + \\\n 2]", "3"},
		{"incr default", `set i 4; incr i`, "5"},
		{"incr by amount", `set i 4; incr i -2`, "2"},
		{"incr unset var", `incr fresh`, "1"},
		{"append", `set s ab; append s cd ef`, "abcdef"},
		{"append unset", `append t xyz`, "xyz"},
		{"empty script", ``, ""},
		{"whitespace only", "  \n\t ", ""},
		{"dollar not var", `set x "cost: $"`, "cost: $"},
		{"hex in expr", `expr 0x10 + 1`, "17"},
		{"expr spaces", `expr { 1+2 }`, "3"},
		{"unset then exists", `set q 1; unset q; info exists q`, "0"},
		{"info exists true", `set q 1; info exists q`, "1"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			in := New()
			got := evalOK(t, in, tt.src)
			if got != tt.want {
				t.Errorf("Eval(%q) = %q, want %q", tt.src, got, tt.want)
			}
		})
	}
}

func TestControlFlow(t *testing.T) {
	tests := []struct {
		name string
		src  string
		want string
	}{
		{"if true", `if {1} {set x yes}`, "yes"},
		{"if false no else", `if {0} {set x yes}`, ""},
		{"if else", `if {0} {set x yes} else {set x no}`, "no"},
		{"if elseif", `if {0} {set x a} elseif {1} {set x b} else {set x c}`, "b"},
		{"if then keyword", `if {1} then {set x yes}`, "yes"},
		{"if implicit else", `if {0} {set x a} {set x b}`, "b"},
		{"if cond expression", `set n 5; if {$n > 3} {set x big} else {set x small}`, "big"},
		{"while sum", `set s 0; set i 0; while {$i < 5} {incr s $i; incr i}; set s`, "10"},
		{"while break", `set i 0; while {1} {incr i; if {$i >= 3} {break}}; set i`, "3"},
		{"while continue", `set s 0; set i 0; while {$i < 10} {incr i; if {$i % 2} {continue}; incr s $i}; set s`, "30"},
		{"for loop", `set s 0; for {set i 1} {$i <= 4} {incr i} {incr s $i}; set s`, "10"},
		{"for break", `for {set i 0} {1} {incr i} {if {$i == 7} {break}}; set i`, "7"},
		{"for continue", `set s 0; for {set i 0} {$i < 6} {incr i} {if {$i == 2} {continue}; incr s 1}; set s`, "5"},
		{"foreach", `set s 0; foreach x {1 2 3 4} {incr s $x}; set s`, "10"},
		{"foreach two vars", `set out {}; foreach {a b} {1 2 3 4} {lappend out $b $a}; set out`, "2 1 4 3"},
		{"foreach break", `set n 0; foreach x {1 2 3} {incr n; break}; set n`, "1"},
		{"foreach continue", `set s {}; foreach x {a b c} {if {$x eq "b"} {continue}; lappend s $x}; set s`, "a c"},
		{"switch exact", `switch b {a {set r 1} b {set r 2} default {set r 3}}`, "2"},
		{"switch default", `switch z {a {set r 1} default {set r 9}}`, "9"},
		{"switch no match", `switch z {a {set r 1} b {set r 2}}`, ""},
		{"switch glob", `switch -glob ACK_DATA {ACK* {set r ack} default {set r other}}`, "ack"},
		{"switch fallthrough", `switch b {a - b {set r ab} c {set r c}}`, "ab"},
		{"switch inline args", `switch b a {set r 1} b {set r 2}`, "2"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			in := New()
			got := evalOK(t, in, tt.src)
			if got != tt.want {
				t.Errorf("Eval(%q) = %q, want %q", tt.src, got, tt.want)
			}
		})
	}
}

func TestProcs(t *testing.T) {
	tests := []struct {
		name string
		src  string
		want string
	}{
		{"simple proc", `proc double {x} {expr $x * 2}; double 21`, "42"},
		{"proc return", `proc f {} {return 7; set x 9}; f`, "7"},
		{"proc empty return", `proc f {} {return}; f`, ""},
		{"proc implicit result", `proc f {} {set x 3}; f`, "3"},
		{"proc default arg", `proc greet {{who world}} {return "hi $who"}; greet`, "hi world"},
		{"proc default overridden", `proc greet {{who world}} {return "hi $who"}; greet tcl`, "hi tcl"},
		{"proc varargs", `proc count {args} {llength $args}; count a b c`, "3"},
		{"proc fixed plus varargs", `proc f {a args} {return "$a:[llength $args]"}; f x y z`, "x:2"},
		{"recursion", `proc fact {n} {if {$n <= 1} {return 1}; expr {$n * [fact [expr $n - 1]]}}; fact 6`, "720"},
		{"locals don't leak", `set x outer; proc f {} {set x inner}; f; set x`, "outer"},
		{"global links", `set g 10; proc bump {} {global g; incr g}; bump; set g`, "11"},
		{"global read", `set g 5; proc get {} {global g; set g}; get`, "5"},
		{"fib", `proc fib {n} {if {$n < 2} {return $n}; expr {[fib [expr $n-1]] + [fib [expr $n-2]]}}; fib 10`, "55"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			in := New()
			got := evalOK(t, in, tt.src)
			if got != tt.want {
				t.Errorf("Eval(%q) = %q, want %q", tt.src, got, tt.want)
			}
		})
	}
}

func TestProcWrongArgs(t *testing.T) {
	in := New()
	evalOK(t, in, `proc f {a b} {return ok}`)
	if _, err := in.Eval(`f 1`); err == nil {
		t.Fatal("too few args did not error")
	}
	if _, err := in.Eval(`f 1 2 3`); err == nil {
		t.Fatal("too many args did not error")
	}
}

func TestStatePersistsAcrossEvals(t *testing.T) {
	in := New()
	evalOK(t, in, `set count 0`)
	for i := 0; i < 5; i++ {
		evalOK(t, in, `incr count`)
	}
	if got := evalOK(t, in, `set count`); got != "5" {
		t.Fatalf("count = %q, want 5 — interpreter state must persist across messages", got)
	}
}

func TestHostCommandRegistration(t *testing.T) {
	in := New()
	var captured []string
	in.Register("xDrop", func(in *Interp, args []string) (string, error) {
		captured = append(captured, strings.Join(args, ","))
		return "dropped", nil
	})
	got := evalOK(t, in, `xDrop cur_msg`)
	if got != "dropped" || len(captured) != 1 || captured[0] != "cur_msg" {
		t.Fatalf("host command: got %q, captured %v", got, captured)
	}
	if !slices.Contains(in.CommandNames(), "xDrop") {
		t.Fatal("CommandNames lacks xDrop")
	}
	if _, err := New().Eval(`xDrop x`); err == nil {
		t.Fatal("a command registered on one interpreter is callable on another")
	}
}

// TestDeclareUsage: a usage line's words fix the counts a command takes.
func TestDeclareUsage(t *testing.T) {
	for _, tt := range []struct {
		line, name string
		min, max   int // max -1: no bound
	}{
		{"msg_field msgHandle fieldName", "msg_field", 2, 2},
		{"msg_log msgHandle ?note?", "msg_log", 1, 2},
		{"xDuplicate msgHandle ?copies? ?gap_ms?", "xDuplicate", 1, 3},
		{"raft_expect_committed index ?data payload? ?min n?", "raft_expect_committed", 1, 5},
		{"xInject type ?{field value ...}? ?down|up?", "xInject", 1, 3},
		{"partition {node ...} ?{node ...} ...?", "partition", 1, -1},
		{"linsert list index element ?element ...?", "linsert", 3, -1},
		{"string map {key value ...} string", "string", 3, 3},
		{"heal", "heal", 0, 0},
	} {
		name, a := declare(tt.line)
		want := arity{usage: tt.line, min: tt.min, max: tt.max}
		if tt.name == tt.line {
			want = arity{} // a bare name declares nothing
		}
		if name != tt.name || a != want {
			t.Errorf("declare(%q) = %q, %+v; want %q, %+v", tt.line, name, a, tt.name, want)
		}
	}
	if n := testing.AllocsPerRun(10, func() { declare("xInject type ?{field value ...}? ?down|up?") }); n != 0 {
		t.Errorf("declare allocates %v times", n)
	}
}

// TestDeclaredCountCheckedBeforeTheCommand: a count outside the declared
// range fails with the usage line and never reaches the command; a bare
// name passes any count through.
func TestDeclaredCountCheckedBeforeTheCommand(t *testing.T) {
	for _, tree := range []bool{false, true} {
		in := New()
		in.tree = tree
		calls := 0
		count := func(*Interp, []string) (string, error) { calls++; return "", nil }
		in.Register("f a ?b?", count)
		in.Register("g", count)
		for _, src := range []string{"f", "f 1 2 3", "set x [f]"} {
			if _, err := in.Eval(src); err == nil || !strings.Contains(err.Error(), `wrong # args: should be "f a ?b?"`) {
				t.Errorf("tree=%v: %s: err = %v", tree, src, err)
			}
		}
		evalOK(t, in, "f 1; f 1 2; g; g 1 2 3 4 5 6 7 8 9")
		if calls != 4 {
			t.Errorf("tree=%v: %d calls reached the commands, want 4", tree, calls)
		}
	}
}

func TestHostVariableBridge(t *testing.T) {
	in := New()
	in.SetGlobal("cur_msg", "msg-42")
	if got := evalOK(t, in, `set cur_msg`); got != "msg-42" {
		t.Fatalf("script sees %q, want msg-42", got)
	}
	evalOK(t, in, `set verdict drop`)
	if v, ok := in.Global("verdict"); !ok || v != "drop" {
		t.Fatalf("host sees %q/%v", v, ok)
	}
}

func TestCatch(t *testing.T) {
	in := New()
	if got := evalOK(t, in, `catch {error boom} msg`); got != "1" {
		t.Fatalf("catch of error = %q, want 1", got)
	}
	if got := evalOK(t, in, `set msg`); got != "boom" {
		t.Fatalf("catch message = %q, want boom", got)
	}
	if got := evalOK(t, in, `catch {set ok 1} r`); got != "0" {
		t.Fatalf("catch of success = %q, want 0", got)
	}
	if got := evalOK(t, in, `set r`); got != "1" {
		t.Fatalf("catch result = %q, want 1", got)
	}
	if got := evalOK(t, in, `catch {unknowncommand}`); got != "1" {
		t.Fatalf("catch of unknown command = %q, want 1", got)
	}
}

func TestErrors(t *testing.T) {
	tests := []struct {
		name string
		src  string
	}{
		{"unknown command", `frobnicate`},
		{"unset variable", `set x $nope`},
		{"set too many args", `set a b c`},
		{"missing close brace", `set x {abc`},
		{"missing close quote", `set x "abc`},
		{"missing close bracket", `set x [set y`},
		{"divide by zero", `expr 1/0`},
		{"mod by zero", `expr 1 % 0`},
		{"bad expr operand", `expr 1 + banana`},
		{"break outside loop", `break`},
		{"continue outside loop", `continue`},
		{"incr non-integer", `set v abc; incr v`},
		{"error command", `error "deliberate"`},
		{"while bad cond", `while {bogus~} {}`},
		{"extra chars after brace", `set x {a}b`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			in := New()
			if _, err := in.Eval(tt.src); err == nil {
				t.Fatalf("Eval(%q) succeeded, want error", tt.src)
			}
		})
	}
}

func TestTopLevelReturnAllowed(t *testing.T) {
	in := New()
	got := evalOK(t, in, `return early; set x never`)
	if got != "early" {
		t.Fatalf("top-level return = %q, want early", got)
	}
}

func TestStepLimitStopsRunawayLoop(t *testing.T) {
	in := New()
	in.SetStepLimit(10_000)
	_, err := in.Eval(`while {1} {set x 1}`)
	if err == nil || !strings.Contains(err.Error(), "step limit") {
		t.Fatalf("runaway loop error = %v, want step limit", err)
	}
}

func TestPuts(t *testing.T) {
	in := New()
	var buf bytes.Buffer
	in.SetOutput(&buf)
	evalOK(t, in, `puts hello; puts -nonewline "wor"; puts -nonewline "ld"`)
	if got := buf.String(); got != "hello\nworld" {
		t.Fatalf("puts output %q", got)
	}
	in.SetOutput(nil) // must not panic
	evalOK(t, in, `puts discarded`)
}

func TestPaperScript(t *testing.T) {
	// The verbatim drop-all-ACKs script from Section 3 of the paper
	// (with its typo `set [msg_type cur_msg]` corrected to `set type ...`).
	in := New()
	var dropped []string
	in.Register("msg_log", func(in *Interp, args []string) (string, error) { return "", nil })
	in.Register("msg_type", func(in *Interp, args []string) (string, error) { return "0x1", nil })
	in.Register("xDrop", func(in *Interp, args []string) (string, error) {
		dropped = append(dropped, args[0])
		return "", nil
	})
	in.SetOutput(&bytes.Buffer{})
	src := `
# Message types are ACK, NACK, and GACK.
# This script drops all ACK messages.
set ACK 0x1
set NACK 0x2
set GACK 0x4

# Print out a banner and then the contents of the current message.
puts -nonewline "receive filter: "
msg_log cur_msg

# Get the type of the message and drop it if it's an ack.
set type [msg_type cur_msg]
if {$type == $ACK} {
   xDrop cur_msg
}
`
	evalOK(t, in, src)
	if len(dropped) != 1 || dropped[0] != "cur_msg" {
		t.Fatalf("paper script dropped %v, want [cur_msg]", dropped)
	}
}

func TestRunPreParsed(t *testing.T) {
	in := New()
	s := MustParse(`set x [expr {$x + 1}]`)
	in.SetGlobal("x", "0")
	for i := 0; i < 100; i++ {
		if _, err := in.Run(s); err != nil {
			t.Fatal(err)
		}
	}
	if got, _ := in.Global("x"); got != "100" {
		t.Fatalf("x = %q after 100 runs, want 100", got)
	}
}

func TestNestedDataStructures(t *testing.T) {
	in := New()
	got := evalOK(t, in, `
		set pkt [list type ACK seq 17 len 512]
		set out {}
		foreach {k v} $pkt {
			if {$k eq "seq"} { set out $v }
		}
		set out
	`)
	if got != "17" {
		t.Fatalf("nested list walk = %q, want 17", got)
	}
}

func TestInfoCommands(t *testing.T) {
	in := New()
	evalOK(t, in, `proc myproc {} {}`)
	if got := evalOK(t, in, `info procs`); got != "myproc" {
		t.Fatalf("info procs = %q", got)
	}
	got := evalOK(t, in, `info commands se*`)
	if !strings.Contains(got, "set") {
		t.Fatalf("info commands se* = %q, want to contain set", got)
	}
	if got := evalOK(t, in, `info level`); got != "0" {
		t.Fatalf("info level = %q", got)
	}
}

func TestEvalCommand(t *testing.T) {
	in := New()
	if got := evalOK(t, in, `eval set x 5`); got != "5" {
		t.Fatalf("eval = %q", got)
	}
	if got := evalOK(t, in, `set body {set y 9}; eval $body`); got != "9" {
		t.Fatalf("eval of variable = %q", got)
	}
}

func TestDeepRecursionFails(t *testing.T) {
	in := New()
	evalOK(t, in, `proc inf {} {inf}`)
	if _, err := in.Eval(`inf`); err == nil {
		t.Fatal("infinite recursion did not error")
	}
}

func BenchmarkEvalFilterScript(b *testing.B) {
	in := New()
	in.Register("msg_type", func(in *Interp, args []string) (string, error) { return "0x1", nil })
	in.Register("xDrop", func(in *Interp, args []string) (string, error) { return "", nil })
	s := MustParse(`
		set type [msg_type cur_msg]
		if {$type == 0x1} { xDrop cur_msg }
	`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := in.Run(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExpr(b *testing.B) {
	in := New()
	in.SetGlobal("x", "17")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := in.EvalExpr(`($x * 3 + 1) % 64 < 32 && $x != 0`); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_ParseCache measures the design choice DESIGN.md calls
// out: control-flow bodies are parse-cached per interpreter, so the filter
// script's if-body parses once, not once per message.
func BenchmarkAblation_ParseCacheHit(b *testing.B) {
	in := New()
	s := MustParse(`if {1} { set x 1 }`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := in.Run(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_ParseEveryEval(b *testing.B) {
	// The uncached path: Eval re-enters through the string each time (the
	// top-level parse is cached too, so defeat it with a changing comment).
	in := New()
	in.SetStepLimit(0)
	srcs := make([]string, 64)
	for i := range srcs {
		srcs[i] = "# v" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + "\nif {1} { set x 1 }"
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := in.Eval(srcs[i%len(srcs)]); err != nil {
			b.Fatal(err)
		}
	}
}
