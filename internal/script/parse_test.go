package script

import (
	"errors"
	"slices"
	"strings"
	"testing"
)

func TestBackslashEscapes(t *testing.T) {
	tests := []struct {
		src  string
		want string
	}{
		{`set x a\nb`, "a\nb"},
		{`set x a\tb`, "a\tb"},
		{`set x a\rb`, "a\rb"},
		{`set x a\ab`, "a\ab"},
		{`set x a\bb`, "a\bb"},
		{`set x a\fb`, "a\fb"},
		{`set x a\vb`, "a\vb"},
		{`set x a\x41b`, "aAb"},
		{`set x a\x4`, "a\x04"},
		{`set x a\xzz`, "axzz"}, // \x with no hex digits -> literal x
		{`set x a\101b`, "aAb"}, // octal
		{`set x a\7b`, "a\ab"},  // short octal
		{`set x \{literal\}`, "{literal}"},
		{`set x \$notvar`, "$notvar"},
		{`set x \[notcmd\]`, "[notcmd]"},
		{`set x \\`, `\`},
		{"set x \"a\\\nb\"", "a b"}, // backslash-newline inside quotes -> space
		{`set x "q\x41"`, "qA"},
	}
	for _, tt := range tests {
		t.Run(tt.src, func(t *testing.T) {
			in := New()
			got, err := in.Eval(tt.src)
			if err != nil {
				t.Fatalf("Eval(%q): %v", tt.src, err)
			}
			if got != tt.want {
				t.Errorf("Eval(%q) = %q, want %q", tt.src, got, tt.want)
			}
		})
	}
}

func TestLineNumbersInErrors(t *testing.T) {
	in := New()
	_, err := in.Eval("set a 1\nset b 2\nbogus_cmd\n")
	if err == nil {
		t.Fatal("no error")
	}
	var ev *EvalError
	if !errors.As(err, &ev) {
		t.Fatalf("error type %T", err)
	}
	if ev.Line != 3 {
		t.Errorf("error line = %d, want 3", ev.Line)
	}
	if !strings.Contains(ev.Error(), "bogus_cmd") {
		t.Errorf("error %q does not name the command", ev.Error())
	}
}

func TestParseErrorReportsLine(t *testing.T) {
	_, err := Parse("set a 1\nset b {unclosed\n")
	if err == nil {
		t.Fatal("no parse error")
	}
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("error type %T", err)
	}
	if !strings.Contains(pe.Error(), "script:") {
		t.Errorf("ParseError format: %q", pe.Error())
	}
}

func TestScriptSource(t *testing.T) {
	s := MustParse("set x 1")
	if s.src != "set x 1" {
		t.Errorf("source = %q", s.src)
	}
}

// MustParse is Parse for statically known-good test scripts.
func MustParse(src string) *Script {
	s, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return s
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse of bad script did not panic")
		}
	}()
	MustParse("set x {")
}

func TestCommentsAndSeparators(t *testing.T) {
	in := New()
	src := strings.Join([]string{
		"# leading comment",
		"   # indented comment",
		"set a 1;# not a comment here, but parse must survive",
		";;;",
		"set b 2 ;   set c 3",
		"# comment with continuation \\",
		"still part of the comment",
		"set d 4",
	}, "\n")
	if _, err := in.Eval(src); err != nil {
		t.Fatalf("Eval: %v", err)
	}
	for name, want := range map[string]string{"b": "2", "c": "3", "d": "4"} {
		if v, _ := in.Global(name); v != want {
			t.Errorf("%s = %q, want %q", name, v, want)
		}
	}
	// `;#` glues the hash into a word, so `a` got set but the trailing
	// text was treated as a command; Tcl would error on `#` command — we
	// accept either behaviour but `a` must exist.
	if _, ok := in.Global("a"); !ok {
		t.Error("a not set")
	}
}

func TestOutputAccessor(t *testing.T) {
	in := New()
	var sb strings.Builder
	in.SetOutput(&sb)
	evalOK(t, in, `puts hi`)
	if sb.String() != "hi\n" {
		t.Fatalf("puts wrote %q to the output", sb.String())
	}
}

func TestHasCommandAndProcs(t *testing.T) {
	in := New()
	has := func(name string) bool { return slices.Contains(in.CommandNames(), name) }
	if !has("string") {
		t.Error("string missing")
	}
	if has("frob") {
		t.Error("frob present")
	}
	if _, err := in.Eval(`proc frob {} {}`); err != nil {
		t.Fatal(err)
	}
	if !has("frob") {
		t.Error("proc not listed by CommandNames")
	}
}

func TestUnsetGlobalLinkedVar(t *testing.T) {
	in := New()
	if _, err := in.Eval(`
		set g 1
		proc killg {} {
			global g
			unset g
		}
		killg
	`); err != nil {
		t.Fatal(err)
	}
	if _, ok := in.Global("g"); ok {
		t.Error("global var survived unset through a proc link")
	}
}

func TestRunFlowResults(t *testing.T) {
	in := New()
	s := MustParse(`return from-run`)
	res, err := in.Run(s)
	if err != nil || res != "from-run" {
		t.Fatalf("Run = %q, %v", res, err)
	}
	s2 := MustParse(`break`)
	if _, err := in.Run(s2); err == nil {
		t.Fatal("top-level break via Run succeeded")
	}
}

func TestVarInsideProcFollowsGlobalLink(t *testing.T) {
	in := New()
	if _, err := in.Eval(`
		set shared 10
		proc reader {} {
			global shared
			set shared
		}
	`); err != nil {
		t.Fatal(err)
	}
	res, err := in.Eval(`reader`)
	if err != nil || res != "10" {
		t.Fatalf("reader = %q, %v", res, err)
	}
}

func TestSemicolonInsideBracesIsLiteral(t *testing.T) {
	in := New()
	res, err := in.Eval(`set x {a;b}`)
	if err != nil || res != "a;b" {
		t.Fatalf("braced semicolon: %q, %v", res, err)
	}
}

func TestNestedBracketsInWord(t *testing.T) {
	in := New()
	res, err := in.Eval(`set x pre[string toupper [string trim " mid "]]post`)
	if err != nil || res != "preMIDpost" {
		t.Fatalf("nested brackets: %q, %v", res, err)
	}
}

func TestVarNameForms(t *testing.T) {
	in := New()
	in.SetGlobal("a_b1", "ok")
	res, err := in.Eval(`set x $a_b1`)
	if err != nil || res != "ok" {
		t.Fatalf("varname chars: %q, %v", res, err)
	}
	res, err = in.Eval(`set x ${a_b1}suffix`)
	if err != nil || res != "oksuffix" {
		t.Fatalf("braced var + suffix: %q, %v", res, err)
	}
	if _, err := in.Eval(`set x ${unclosed`); err == nil {
		t.Fatal("unclosed ${ accepted")
	}
}
