package main

import (
	"testing"

	"pfi/internal/script"
)

func TestBalanced(t *testing.T) {
	tests := []struct {
		src  string
		want bool // balanced: the REPL evaluates it now
	}{
		{"set x 1", true},
		{"if {1} {", false},
		{"if {1} {\n  set x 1\n}", true},
		{"set x [expr 1", false},
		{"set x [expr 1 + 2]", true},
		{`set x "open`, false},
		{`set x "closed"`, true},
		{`set x \{`, true}, // escaped brace does not count
		{`set x "quoted { brace"`, true},
		{"proc f {a b} {\n", false},
		{"set x ${na", false},
		{"", true},
		{`puts {say "hi}`, true}, // a quote inside braces is text
		{`set x a"b`, true},      // so is one inside a word
		{`puts "a {b"`, true},    // and a brace inside quotes
		{`set x {a}b`, true},     // an error, but not one more input fixes
	}
	for _, tt := range tests {
		if got := !unfinished(tt.src); got != tt.want {
			t.Errorf("balanced(%q) = %v, want %v", tt.src, got, tt.want)
		}
	}
}

func TestEvalAndPrint(t *testing.T) {
	in := script.New()
	if err := evalAndPrint(in, `set x 5`); err != nil {
		t.Fatal(err)
	}
	if err := evalAndPrint(in, `bogus`); err == nil {
		t.Fatal("bad command did not error")
	}
	// Empty result path.
	if err := evalAndPrint(in, `if {0} {}`); err != nil {
		t.Fatal(err)
	}
}
