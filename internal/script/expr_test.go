package script

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"
)

// exprInterp is a fresh interpreter holding the globals the tables' $var
// rows read: each function row has a literal form, whose arguments are
// constants, and a $var form, whose arguments are read at run time.
func exprInterp() *Interp {
	in := New()
	in.SetGlobal("big", "9007199254740993") // 2^53 + 1: no double holds it
	in.SetGlobal("huge", "1e30")
	in.SetGlobal("neg", "-1")
	return in
}

func exprOK(t *testing.T, src string) string {
	t.Helper()
	in := exprInterp()
	got, err := in.EvalExpr(src)
	if err != nil {
		t.Fatalf("EvalExpr(%q) error: %v", src, err)
	}
	return got
}

func TestExprTable(t *testing.T) {
	tests := []struct {
		src  string
		want string
	}{
		{"1+2", "3"},
		{"1 + 2 * 3", "7"},
		{"(1 + 2) * 3", "9"},
		{"10 / 3", "3"},
		{"10 % 3", "1"},
		{"-7 / 2", "-4"}, // Tcl floors integer division
		{"-7 % 2", "1"},  // Tcl mod takes divisor's sign
		{"7 / -2", "-4"},
		{"7 % -2", "-1"},
		{"2 - -3", "5"},
		{"--3", "3"},
		{"!0", "1"},
		{"!5", "0"},
		{"!!5", "1"},
		{"~0", "-1"},
		{"1 << 10", "1024"},
		{"1024 >> 3", "128"},
		{"5 & 3", "1"},
		{"5 | 3", "7"},
		{"5 ^ 3", "6"},
		{"1 < 2", "1"},
		{"2 <= 2", "1"},
		{"3 > 4", "0"},
		{"4 >= 4", "1"},
		{"1 == 1.0", "1"},
		{"1 != 2", "1"},
		{"1 && 1", "1"},
		{"1 && 0", "0"},
		{"0 || 1", "1"},
		{"0 || 0", "0"},
		{"1 ? 10 : 20", "10"},
		{"0 ? 10 : 20", "20"},
		{"1 ? 2 ? 3 : 4 : 5", "3"},
		{"1.5 + 1.5", "3.0"},
		{"1 + 1.5", "2.5"},
		{"3.0 * 2", "6.0"},
		{"7.0 / 2", "3.5"},
		{"0x10", "16"},
		{"0xff & 0x0f", "15"},
		{"abs(-5)", "5"},
		{"abs(5)", "5"},
		{"abs(-2.5)", "2.5"},
		{"int(3.9)", "3"},
		{"int(-3.9)", "-3"},
		{"round(2.5)", "3"},
		{"round(-2.5)", "-3"},
		{"double(3)", "3.0"},
		{"floor(2.7)", "2.0"},
		{"ceil(2.1)", "3.0"},
		{"sqrt(16)", "4.0"},
		{"pow(2, 10)", "1024.0"},
		{"fmod(7, 3)", "1.0"},
		{"min(3, 1, 2)", "1"},
		{"max(3, 1, 2)", "3"},
		{"min(1.5, 2)", "1.5"},
		{"max(9007199254740993, 1)", "9007199254740993"},
		{"max($big, 1)", "9007199254740993"},
		{"min(-9007199254740993, 1)", "-9007199254740993"},
		{"min(-$big, 1)", "-9007199254740993"},
		{"max(9007199254740993, 9007199254740992)", "9007199254740993"},
		{"max($big, $big - 1)", "9007199254740993"},
		{"min(9223372036854775807, 9223372036854775806)", "9223372036854775806"},
		{`"abc" eq "abc"`, "1"},
		{`"abc" ne "abd"`, "1"},
		{`"abc" < "abd"`, "1"},
		{`{hello} eq "hello"`, "1"},
		{"true", "1"},
		{"false && true", "0"},
		{"1e3", "1000.0"},
		{"2.5e-1", "0.25"},
		{"1 + 2 == 3 ? 100 : 200", "100"},
	}
	for _, tt := range tests {
		t.Run(tt.src, func(t *testing.T) {
			if got := exprOK(t, tt.src); got != tt.want {
				t.Errorf("expr %q = %q, want %q", tt.src, got, tt.want)
			}
		})
	}
}

func TestExprVariableSubstitution(t *testing.T) {
	in := New()
	in.SetGlobal("x", "7")
	in.SetGlobal("name", "ACK")
	got, err := in.EvalExpr(`$x * 2`)
	if err != nil || got != "14" {
		t.Fatalf("expr $x*2 = %q, %v", got, err)
	}
	got, err = in.EvalExpr(`$name eq "ACK"`)
	if err != nil || got != "1" {
		t.Fatalf(`expr $name eq "ACK" = %q, %v`, got, err)
	}
}

func TestExprCommandSubstitution(t *testing.T) {
	in := New()
	in.Register("msg_len", func(in *Interp, args []string) (string, error) {
		return "512", nil
	})
	got, err := in.EvalExpr(`[msg_len cur] > 100`)
	if err != nil || got != "1" {
		t.Fatalf("expr with [cmd] = %q, %v", got, err)
	}
}

func TestExprShortCircuit(t *testing.T) {
	// Tcl evaluates &&, ||, and ?: lazily: the untaken side is parsed but
	// its variables, commands, and arithmetic are not evaluated. This is
	// what makes the `[info exists x] && $x` idiom safe.
	in := New()
	tests := []struct {
		src  string
		want string
	}{
		{`0 && $missing`, "0"},
		{`1 || $missing`, "1"},
		{`0 && [error boom]`, "0"},
		{`1 || [error boom]`, "1"},
		{`0 && 1/0`, "0"},
		{`1 ? 5 : $missing`, "5"},
		{`0 ? $missing : 6`, "6"},
		{`0 ? 1/0 : 7`, "7"},
		{`0 && "x" + 1`, "0"},
	}
	for _, tt := range tests {
		got, err := in.EvalExpr(tt.src)
		if err != nil {
			t.Errorf("EvalExpr(%q) error: %v", tt.src, err)
			continue
		}
		if got != tt.want {
			t.Errorf("EvalExpr(%q) = %q, want %q", tt.src, got, tt.want)
		}
	}
	// The eager side still evaluates and still errors.
	if _, err := in.EvalExpr(`1 && $missing`); err == nil {
		t.Error("taken side of && did not evaluate")
	}
	if _, err := in.EvalExpr(`0 || $missing`); err == nil {
		t.Error("taken side of || did not evaluate")
	}
	// Skipped sides are still syntax-checked.
	if _, err := in.EvalExpr(`0 && (1`); err == nil {
		t.Error("unbalanced paren in skipped side accepted")
	}
	if _, err := in.EvalExpr(`0 && nosuchfunc(1)`); err == nil {
		t.Error("unknown function in skipped side accepted")
	}
	// Side effects must not happen in the skipped branch.
	in2 := New()
	if _, err := in2.EvalExpr(`0 && [set leaked 1]`); err != nil {
		t.Fatal(err)
	}
	if _, ok := in2.Global("leaked"); ok {
		t.Error("skipped command substitution executed")
	}
}

func TestExprErrors(t *testing.T) {
	bad := []string{
		"", "1 +", "* 3", "(1", "1)", "1 ? 2", "foo", "foo(1)",
		"1 / 0", "1 % 0", "1.5 % 2", "~1.5", "1 << 64", "1 << -1",
		`"abc" + 1`, "abs()", "abs(1, 2)", "$missing + 1",
		"int(1e30)", "int($huge)", "round(1e30)", "round(-$huge)",
		"int(sqrt(-1))", "int(sqrt($neg))", "round(exp(1000))", "int(-exp(1000))",
	}
	for _, src := range bad {
		t.Run(src, func(t *testing.T) {
			in := exprInterp()
			if _, err := in.EvalExpr(src); err == nil {
				t.Fatalf("EvalExpr(%q) succeeded, want error", src)
			}
		})
	}
}

func TestExprBool(t *testing.T) {
	in := New()
	for src, want := range map[string]bool{
		"1": true, "0": false, "3.5": true, "0.0": false,
		"true": true, "false": false, "yes": true, "no": false,
		"on": true, "off": false, "2 > 1": true,
	} {
		got, err := in.EvalExprBool(src)
		if err != nil {
			t.Fatalf("EvalExprBool(%q): %v", src, err)
		}
		if got != want {
			t.Errorf("EvalExprBool(%q) = %v, want %v", src, got, want)
		}
	}
	if _, err := in.EvalExprBool(`"sandwich"`); err == nil {
		t.Fatal("non-boolean string accepted as condition")
	}
}

// refEval is an independent reference evaluator over a random expression
// tree; the property test renders the tree to source and compares.
type refNode struct {
	op          string // "" for leaf
	left, right *refNode
	leaf        int64
}

func (n *refNode) render() string {
	if n.op == "" {
		return strconv.FormatInt(n.leaf, 10)
	}
	return "(" + n.left.render() + " " + n.op + " " + n.right.render() + ")"
}

func (n *refNode) eval() (int64, bool) {
	if n.op == "" {
		return n.leaf, true
	}
	l, ok := n.left.eval()
	if !ok {
		return 0, false
	}
	r, ok := n.right.eval()
	if !ok {
		return 0, false
	}
	switch n.op {
	case "+":
		return l + r, true
	case "-":
		return l - r, true
	case "*":
		return l * r, true
	case "/":
		if r == 0 {
			return 0, false
		}
		q := l / r
		if l%r != 0 && (l < 0) != (r < 0) {
			q--
		}
		return q, true
	default:
		return 0, false
	}
}

func genTree(rng *rand.Rand, depth int) *refNode {
	if depth == 0 || rng.Intn(3) == 0 {
		return &refNode{leaf: int64(rng.Intn(201) - 100)}
	}
	ops := []string{"+", "-", "*", "/"}
	return &refNode{
		op:    ops[rng.Intn(len(ops))],
		left:  genTree(rng, depth-1),
		right: genTree(rng, depth-1),
	}
}

// Property: our expr agrees with an independent evaluator on random
// fully-parenthesized integer arithmetic.
func TestPropertyExprMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tree := genTree(rng, 4)
		want, ok := tree.eval()
		in := New()
		got, err := in.EvalExpr(tree.render())
		if !ok {
			return err != nil // division by zero must error
		}
		if err != nil {
			return false
		}
		return got == strconv.FormatInt(want, 10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: comparison operators form a total order consistent with Go ints.
func TestPropertyExprComparisons(t *testing.T) {
	f := func(a, b int32) bool {
		in := New()
		src := fmt.Sprintf("%d < %d", a, b)
		got, err := in.EvalExpr(src)
		if err != nil {
			return false
		}
		return (got == "1") == (a < b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
