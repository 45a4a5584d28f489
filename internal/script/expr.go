package script

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// This file is expr: the parser, the expression tree the tree-walker
// evaluates and the compiler lowers, and the operators both share.

// EvalExpr evaluates a Tcl expression, performing $variable and [command]
// substitution against the interpreter, and returns the canonical result.
func (in *Interp) EvalExpr(text string) (string, error) {
	v, err := in.exprValue(text)
	if err != nil {
		return "", err
	}
	return v.String(), nil
}

// EvalExprBool evaluates a condition expression to a boolean.
func (in *Interp) EvalExprBool(text string) (bool, error) {
	v, err := in.exprValue(text)
	if err != nil {
		return false, err
	}
	return v.truth()
}

func (in *Interp) exprValue(text string) (Value, error) {
	n, err := in.compileExpr(text)
	if err != nil {
		return Value{}, err
	}
	return n.eval(in)
}

// compileExpr parses text into an expression tree the first time it is
// asked for, keeping the tree in text's body. A text that fails to parse
// is not kept.
func (in *Interp) compileExpr(text string) (exprNode, error) {
	if b := in.bodies[text]; b != nil && b.expr != nil {
		return b.expr, nil
	}
	p := &exprParser{src: text}
	n, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos < len(p.src) {
		return nil, fmt.Errorf("expr: syntax error near %q", p.src[p.pos:])
	}
	in.bodyOf(text).expr = n
	return n, nil
}

// ----------------------------------------------------------------------------
// Expression tree. Compilation syntax-checks the whole expression (including
// the untaken sides of &&, ||, and ?:); evaluation implements Tcl's lazy
// semantics by simply not walking untaken subtrees, so their variables,
// commands, and arithmetic are never touched.

type exprNode interface {
	eval(in *Interp) (Value, error)
}

type litNode struct{ v Value }

func (n *litNode) eval(*Interp) (Value, error) { return n.v, nil }

type varNode struct{ name string }

func (n *varNode) eval(in *Interp) (Value, error) {
	v, ok := in.Var(n.name)
	if !ok {
		return Value{}, fmt.Errorf("can't read %q: no such variable", n.name)
	}
	return coerce(v), nil
}

type cmdNode struct{ body *Script }

func (n *cmdNode) eval(in *Interp) (Value, error) {
	res, err := in.runAny(n.body)
	if err != nil {
		return Value{}, err
	}
	return coerce(res), nil
}

// strNode is a quoted operand with substitutions ("v=$v").
type strNode struct{ w word }

func (n *strNode) eval(in *Interp) (Value, error) {
	s, err := in.expandWord(&n.w)
	if err != nil {
		return Value{}, err
	}
	return Str(s), nil
}

type ternNode struct{ cond, thenN, elseN exprNode }

func (n *ternNode) eval(in *Interp) (Value, error) {
	c, err := n.cond.eval(in)
	if err != nil {
		return Value{}, err
	}
	b, err := c.truth()
	if err != nil {
		return Value{}, err
	}
	if b {
		return n.thenN.eval(in)
	}
	return n.elseN.eval(in)
}

type andNode struct{ l, r exprNode }

func (n *andNode) eval(in *Interp) (Value, error) {
	lv, err := n.l.eval(in)
	if err != nil {
		return Value{}, err
	}
	lb, err := lv.truth()
	if err != nil {
		return Value{}, err
	}
	if !lb {
		return boolv(false), nil // lazy: right side unevaluated
	}
	rv, err := n.r.eval(in)
	if err != nil {
		return Value{}, err
	}
	rb, err := rv.truth()
	if err != nil {
		return Value{}, err
	}
	return boolv(rb), nil
}

type orNode struct{ l, r exprNode }

func (n *orNode) eval(in *Interp) (Value, error) {
	lv, err := n.l.eval(in)
	if err != nil {
		return Value{}, err
	}
	lb, err := lv.truth()
	if err != nil {
		return Value{}, err
	}
	if lb {
		return boolv(true), nil // lazy: right side unevaluated
	}
	rv, err := n.r.eval(in)
	if err != nil {
		return Value{}, err
	}
	rb, err := rv.truth()
	if err != nil {
		return Value{}, err
	}
	return boolv(rb), nil
}

// binNode covers arithmetic, bitwise/shift, comparison, and string equality.
type binNode struct {
	op   int32 // a vb* code
	l, r exprNode
}

func (n *binNode) eval(in *Interp) (Value, error) {
	a, err := n.l.eval(in)
	if err != nil {
		return Value{}, err
	}
	b, err := n.r.eval(in)
	if err != nil {
		return Value{}, err
	}
	return binop(n.op, &a, &b)
}

type unaryNode struct {
	op byte // '+', '-', '!', '~'
	x  exprNode
}

func (n *unaryNode) eval(in *Interp) (Value, error) {
	v, err := n.x.eval(in)
	if err != nil {
		return Value{}, err
	}
	return unop(n.op, &v)
}

type funcNode struct {
	name string
	args []exprNode
}

func (n *funcNode) eval(in *Interp) (Value, error) {
	args := make([]Value, len(n.args))
	for i, a := range n.args {
		v, err := a.eval(in)
		if err != nil {
			return Value{}, err
		}
		args[i] = v
	}
	return applyFunc(n.name, args)
}

// ----------------------------------------------------------------------------
// Parser. Recursive descent, lowest to highest precedence, producing the
// tree above. Pure syntax: no interpreter state is consulted.

type exprParser struct {
	src string
	pos int
}

func (p *exprParser) skipSpace() {
	for p.pos < len(p.src) {
		switch p.src[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

func (p *exprParser) peekOp(ops ...string) string {
	p.skipSpace()
	rest := p.src[p.pos:]
	for _, op := range ops {
		if strings.HasPrefix(rest, op) {
			// Word operators (eq, ne) must not glue to identifiers.
			if isAlphaOp(op) {
				if len(rest) > len(op) && isVarNameChar(rest[len(op)]) {
					continue
				}
			}
			return op
		}
	}
	return ""
}

func isAlphaOp(op string) bool {
	c := op[0]
	return c >= 'a' && c <= 'z'
}

func (p *exprParser) takeOp(op string) { p.pos += len(op) }

func (p *exprParser) parseTernary() (exprNode, error) {
	cond, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if op := p.peekOp("?"); op == "" {
		return cond, nil
	}
	p.takeOp("?")
	thenN, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	if op := p.peekOp(":"); op == "" {
		return nil, fmt.Errorf("expr: missing ':' in ternary")
	}
	p.takeOp(":")
	elseN, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	return &ternNode{cond: cond, thenN: thenN, elseN: elseN}, nil
}

func (p *exprParser) parseOr() (exprNode, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.peekOp("||") != "" {
		p.takeOp("||")
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &orNode{l: left, r: right}
	}
	return left, nil
}

func (p *exprParser) parseAnd() (exprNode, error) {
	left, err := p.parseBitOr()
	if err != nil {
		return nil, err
	}
	for p.peekOp("&&") != "" {
		p.takeOp("&&")
		right, err := p.parseBitOr()
		if err != nil {
			return nil, err
		}
		left = &andNode{l: left, r: right}
	}
	return left, nil
}

func (p *exprParser) parseBitOr() (exprNode, error) {
	left, err := p.parseBitXor()
	if err != nil {
		return nil, err
	}
	for {
		p.skipSpace()
		if p.pos < len(p.src) && p.src[p.pos] == '|' &&
			(p.pos+1 >= len(p.src) || p.src[p.pos+1] != '|') {
			p.pos++
			right, err := p.parseBitXor()
			if err != nil {
				return nil, err
			}
			left = &binNode{op: vbBitOr, l: left, r: right}
			continue
		}
		return left, nil
	}
}

func (p *exprParser) parseBitXor() (exprNode, error) {
	left, err := p.parseBitAnd()
	if err != nil {
		return nil, err
	}
	for p.peekOp("^") != "" {
		p.takeOp("^")
		right, err := p.parseBitAnd()
		if err != nil {
			return nil, err
		}
		left = &binNode{op: vbBitXor, l: left, r: right}
	}
	return left, nil
}

func (p *exprParser) parseBitAnd() (exprNode, error) {
	left, err := p.parseEquality()
	if err != nil {
		return nil, err
	}
	for {
		p.skipSpace()
		if p.pos < len(p.src) && p.src[p.pos] == '&' &&
			(p.pos+1 >= len(p.src) || p.src[p.pos+1] != '&') {
			p.pos++
			right, err := p.parseEquality()
			if err != nil {
				return nil, err
			}
			left = &binNode{op: vbBitAnd, l: left, r: right}
			continue
		}
		return left, nil
	}
}

func (p *exprParser) parseEquality() (exprNode, error) {
	left, err := p.parseRelational()
	if err != nil {
		return nil, err
	}
	for {
		op := p.peekOp("==", "!=", "eq", "ne")
		if op == "" {
			return left, nil
		}
		p.takeOp(op)
		right, err := p.parseRelational()
		if err != nil {
			return nil, err
		}
		left = &binNode{op: binopCode[op], l: left, r: right}
	}
}

func (p *exprParser) parseRelational() (exprNode, error) {
	left, err := p.parseShift()
	if err != nil {
		return nil, err
	}
	for {
		op := p.peekOp("<=", ">=", "<", ">")
		if op == "" {
			return left, nil
		}
		// Avoid consuming "<<" or ">>" as "<" "<".
		if (op == "<" || op == ">") && p.peekOp("<<", ">>") != "" {
			return left, nil
		}
		p.takeOp(op)
		right, err := p.parseShift()
		if err != nil {
			return nil, err
		}
		left = &binNode{op: binopCode[op], l: left, r: right}
	}
}

func (p *exprParser) parseShift() (exprNode, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for {
		op := p.peekOp("<<", ">>")
		if op == "" {
			return left, nil
		}
		p.takeOp(op)
		right, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		left = &binNode{op: binopCode[op], l: left, r: right}
	}
}

func (p *exprParser) parseAdditive() (exprNode, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		op := p.peekOp("+", "-")
		if op == "" {
			return left, nil
		}
		p.takeOp(op)
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &binNode{op: binopCode[op], l: left, r: right}
	}
}

func (p *exprParser) parseMultiplicative() (exprNode, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		op := p.peekOp("*", "/", "%")
		if op == "" {
			return left, nil
		}
		p.takeOp(op)
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &binNode{op: binopCode[op], l: left, r: right}
	}
}

func (p *exprParser) parseUnary() (exprNode, error) {
	op := p.peekOp("-", "+", "!", "~")
	if op == "" {
		return p.parsePrimary()
	}
	p.takeOp(op)
	x, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	return &unaryNode{op: op[0], x: x}, nil
}

func (p *exprParser) parsePrimary() (exprNode, error) {
	p.skipSpace()
	if p.pos >= len(p.src) {
		return nil, fmt.Errorf("expr: unexpected end of expression")
	}
	c := p.src[p.pos]
	switch {
	case c == '(':
		p.pos++
		n, err := p.parseTernary()
		if err != nil {
			return nil, err
		}
		if p.peekOp(")") == "" {
			return nil, fmt.Errorf("expr: missing close parenthesis")
		}
		p.takeOp(")")
		return n, nil
	case c == '$':
		return p.parseVarOperand()
	case c == '[':
		return p.parseCmdOperand()
	case c == '"':
		return p.parseStringOperand()
	case c == '{':
		return p.parseBracedOperand()
	case c >= '0' && c <= '9' || c == '.':
		return p.parseNumberOperand()
	case isVarNameChar(c):
		return p.parseFuncOrWord()
	default:
		return nil, fmt.Errorf("expr: unexpected character %q", c)
	}
}

func (p *exprParser) parseVarOperand() (exprNode, error) {
	sub := &parser{src: p.src, pos: p.pos, line: 1}
	seg, ok, err := sub.parseVarRef()
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("expr: lone '$'")
	}
	p.pos = sub.pos
	return &varNode{name: seg.text}, nil
}

func (p *exprParser) parseCmdOperand() (exprNode, error) {
	sub := &parser{src: p.src, pos: p.pos + 1, line: 1}
	cmds, err := sub.parseCommands(bracketEnd)
	if err != nil {
		return nil, err
	}
	body := &Script{src: p.src[p.pos:sub.pos], cmds: cmds}
	p.pos = sub.pos
	return &cmdNode{body: body}, nil
}

func (p *exprParser) parseStringOperand() (exprNode, error) {
	sub := &parser{src: p.src, pos: p.pos, line: 1}
	segs, err := sub.parseQuoted()
	if err != nil {
		return nil, err
	}
	p.pos = sub.pos
	// A quoted operand without substitutions is a constant.
	allLit := true
	for i := range segs {
		if segs[i].kind != segLiteral {
			allLit = false
			break
		}
	}
	if allLit {
		var b strings.Builder
		for i := range segs {
			b.WriteString(segs[i].text)
		}
		return &litNode{v: Str(b.String())}, nil
	}
	return &strNode{w: word{segs: segs}}, nil
}

func (p *exprParser) parseBracedOperand() (exprNode, error) {
	sub := &parser{src: p.src, pos: p.pos, line: 1}
	text, err := sub.parseBraced()
	if err != nil {
		return nil, err
	}
	p.pos = sub.pos
	return &litNode{v: Str(text)}, nil
}

func (p *exprParser) parseNumberOperand() (exprNode, error) {
	start := p.pos
	seenDot, seenExp := false, false
	if strings.HasPrefix(p.src[p.pos:], "0x") || strings.HasPrefix(p.src[p.pos:], "0X") {
		p.pos += 2
		for p.pos < len(p.src) && isHexDigit(p.src[p.pos]) {
			p.pos++
		}
		i, err := strconv.ParseInt(p.src[start:p.pos], 0, 64)
		if err != nil {
			return nil, fmt.Errorf("expr: bad hex literal %q", p.src[start:p.pos])
		}
		return &litNode{v: Int(i)}, nil
	}
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		switch {
		case c >= '0' && c <= '9':
			p.pos++
		case c == '.' && !seenDot && !seenExp:
			seenDot = true
			p.pos++
		case (c == 'e' || c == 'E') && !seenExp && p.pos > start:
			seenExp = true
			p.pos++
			if p.pos < len(p.src) && (p.src[p.pos] == '+' || p.src[p.pos] == '-') {
				p.pos++
			}
		default:
			goto done
		}
	}
done:
	text := p.src[start:p.pos]
	if !seenDot && !seenExp {
		i, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("expr: bad integer literal %q", text)
		}
		return &litNode{v: Int(i)}, nil
	}
	f, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return nil, fmt.Errorf("expr: bad float literal %q", text)
	}
	return &litNode{v: floatv(f)}, nil
}

// parseFuncOrWord handles math functions and the bareword booleans.
func (p *exprParser) parseFuncOrWord() (exprNode, error) {
	start := p.pos
	for p.pos < len(p.src) && isVarNameChar(p.src[p.pos]) {
		p.pos++
	}
	name := p.src[start:p.pos]
	p.skipSpace()
	if p.pos < len(p.src) && p.src[p.pos] == '(' {
		return p.parseFuncCall(name)
	}
	switch strings.ToLower(name) {
	case "true", "yes", "on":
		return &litNode{v: boolv(true)}, nil
	case "false", "no", "off":
		return &litNode{v: boolv(false)}, nil
	}
	return nil, fmt.Errorf("expr: unknown operand %q", name)
}

func (p *exprParser) parseFuncCall(name string) (exprNode, error) {
	if _, known := knownFuncs[name]; !known {
		return nil, fmt.Errorf("expr: unknown function %q", name)
	}
	p.pos++ // consume '('
	var args []exprNode
	p.skipSpace()
	if p.pos < len(p.src) && p.src[p.pos] == ')' {
		p.pos++
	} else {
		for {
			n, err := p.parseTernary()
			if err != nil {
				return nil, err
			}
			args = append(args, n)
			p.skipSpace()
			if p.pos >= len(p.src) {
				return nil, fmt.Errorf("expr: missing ')' in %s()", name)
			}
			if p.src[p.pos] == ',' {
				p.pos++
				continue
			}
			if p.src[p.pos] == ')' {
				p.pos++
				break
			}
			return nil, fmt.Errorf("expr: bad character %q in %s()", p.src[p.pos], name)
		}
	}
	return &funcNode{name: name, args: args}, nil
}

// knownFuncs lists the math functions, checked at compile time so an
// unknown function errors even inside a never-taken branch.
var knownFuncs = map[string]struct{}{
	"abs": {}, "int": {}, "double": {}, "round": {}, "floor": {}, "ceil": {},
	"sqrt": {}, "exp": {}, "log": {}, "log10": {}, "sin": {}, "cos": {},
	"tan": {}, "pow": {}, "fmod": {}, "atan2": {}, "hypot": {}, "min": {}, "max": {},
}

func applyFunc(name string, args []Value) (Value, error) {
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("expr: %s() takes %d argument(s), got %d", name, n, len(args))
		}
		return nil
	}
	num := func(v Value) (float64, error) {
		n, ok := v.number()
		if !ok {
			return 0, fmt.Errorf("expr: %s() requires numeric argument, got %q", name, v.s)
		}
		return n.asFloat(), nil
	}
	switch name {
	case "abs":
		if err := need(1); err != nil {
			return Value{}, err
		}
		if args[0].kind == intVal {
			if args[0].n < 0 {
				return Int(-args[0].n), nil
			}
			return args[0], nil
		}
		f, err := num(args[0])
		if err != nil {
			return Value{}, err
		}
		return floatv(math.Abs(f)), nil
	case "int":
		if err := need(1); err != nil {
			return Value{}, err
		}
		f, err := num(args[0])
		if err != nil {
			return Value{}, err
		}
		return toInt(f)
	case "double":
		if err := need(1); err != nil {
			return Value{}, err
		}
		f, err := num(args[0])
		if err != nil {
			return Value{}, err
		}
		return floatv(f), nil
	case "round":
		if err := need(1); err != nil {
			return Value{}, err
		}
		f, err := num(args[0])
		if err != nil {
			return Value{}, err
		}
		return toInt(math.Round(f))
	case "floor", "ceil", "sqrt", "exp", "log", "log10", "sin", "cos", "tan":
		if err := need(1); err != nil {
			return Value{}, err
		}
		f, err := num(args[0])
		if err != nil {
			return Value{}, err
		}
		fns := map[string]func(float64) float64{
			"floor": math.Floor, "ceil": math.Ceil, "sqrt": math.Sqrt,
			"exp": math.Exp, "log": math.Log, "log10": math.Log10,
			"sin": math.Sin, "cos": math.Cos, "tan": math.Tan,
		}
		return floatv(fns[name](f)), nil
	case "pow", "fmod", "atan2", "hypot":
		if err := need(2); err != nil {
			return Value{}, err
		}
		a, err := num(args[0])
		if err != nil {
			return Value{}, err
		}
		b, err := num(args[1])
		if err != nil {
			return Value{}, err
		}
		fns := map[string]func(float64, float64) float64{
			"pow": math.Pow, "fmod": math.Mod, "atan2": math.Atan2, "hypot": math.Hypot,
		}
		return floatv(fns[name](a, b)), nil
	case "min", "max":
		if len(args) == 0 {
			return Value{}, fmt.Errorf("expr: %s() needs at least one argument", name)
		}
		if allInts(args) { // compared as int64: a double would round above 2^53
			best := args[0].n
			for _, a := range args[1:] {
				if name == "min" && a.n < best || name == "max" && a.n > best {
					best = a.n
				}
			}
			return Int(best), nil
		}
		best, err := num(args[0])
		if err != nil {
			return Value{}, err
		}
		for _, a := range args[1:] {
			f, err := num(a)
			if err != nil {
				return Value{}, err
			}
			if name == "min" && f < best || name == "max" && f > best {
				best = f
			}
		}
		return floatv(best), nil
	default:
		return Value{}, fmt.Errorf("expr: unknown function %q", name)
	}
}

func allInts(args []Value) bool {
	for _, a := range args {
		if a.kind != intVal {
			return false
		}
	}
	return true
}

// toInt is int() and round() of a double: its integer part, or Tcl's error
// when it has none an int64 can hold (NaN, ±Inf, beyond ±2^63).
func toInt(f float64) (Value, error) {
	if !(f >= -(1<<63) && f < 1<<63) {
		return Value{}, fmt.Errorf("expr: integer value too large to represent")
	}
	return Int(int64(f)), nil
}

// Binary operator codes, shared by binNode and the VM's opVBinop family.
const (
	vbAdd int32 = iota
	vbSub
	vbMul
	vbDiv
	vbMod
	vbBitAnd
	vbBitOr
	vbBitXor
	vbShl
	vbShr
	vbEqStr
	vbNeStr
	vbEqNum
	vbNeNum
	vbLt
	vbGt
	vbLe
	vbGe
)

var binopCode = map[string]int32{
	"+": vbAdd, "-": vbSub, "*": vbMul, "/": vbDiv, "%": vbMod,
	"&": vbBitAnd, "|": vbBitOr, "^": vbBitXor, "<<": vbShl, ">>": vbShr,
	"eq": vbEqStr, "ne": vbNeStr, "==": vbEqNum, "!=": vbNeNum,
	"<": vbLt, ">": vbGt, "<=": vbLe, ">=": vbGe,
}

var binopName = [...]string{
	vbAdd: "+", vbSub: "-", vbMul: "*", vbDiv: "/", vbMod: "%",
	vbBitAnd: "&", vbBitOr: "|", vbBitXor: "^", vbShl: "<<", vbShr: ">>",
	vbEqStr: "eq", vbNeStr: "ne", vbEqNum: "==", vbNeNum: "!=",
	vbLt: "<", vbGt: ">", vbLe: "<=", vbGe: ">=",
}

// binop applies one binary operator — the one implementation the
// tree-walker's binNode and the VM both call. Two integers, which is what a
// filter's counters, header fields and moduli are, never leave intBinop;
// everything else reads its operands as numbers where it can (parsing text
// once) and falls back to text where it cannot.
func binop(code int32, a, b *Value) (Value, error) {
	if a.kind == intVal && b.kind == intVal {
		return intBinop(code, a.n, b.n)
	}
	switch code {
	case vbEqStr:
		return boolv(a.String() == b.String()), nil
	case vbNeStr:
		return boolv(a.String() != b.String()), nil
	}
	an, aok := a.number()
	bn, bok := b.number()
	switch {
	case code >= vbEqNum:
		// Ordered numerically when both sides are numbers, lexically
		// otherwise.
		var c int
		switch {
		case !aok || !bok:
			c = strings.Compare(a.String(), b.String())
		case an.kind == intVal && bn.kind == intVal:
			return intBinop(code, an.n, bn.n)
		default:
			af, bf := an.asFloat(), bn.asFloat()
			if af < bf {
				c = -1
			} else if af > bf {
				c = 1
			}
		}
		return intBinop(code, int64(c), 0)
	case code >= vbBitAnd:
		if !aok || !bok || an.kind != intVal || bn.kind != intVal {
			return Value{}, fmt.Errorf("expr: %q requires integer operands", binopName[code])
		}
		return intBinop(code, an.n, bn.n)
	}
	if !aok || !bok {
		bad := a
		if aok {
			bad = b
		}
		return Value{}, fmt.Errorf("expr: can't use %q as operand of %q", bad.String(), binopName[code])
	}
	if an.kind == intVal && bn.kind == intVal {
		return intBinop(code, an.n, bn.n)
	}
	af, bf := an.asFloat(), bn.asFloat()
	switch code {
	case vbAdd:
		return floatv(af + bf), nil
	case vbSub:
		return floatv(af - bf), nil
	case vbMul:
		return floatv(af * bf), nil
	case vbDiv:
		if bf == 0 {
			return Value{}, fmt.Errorf("expr: divide by zero")
		}
		return floatv(af / bf), nil
	}
	return Value{}, fmt.Errorf("expr: %% requires integer operands")
}

// intBinop is every binary operator over two integers, decided by opcode.
// (eq/ne compare canonical renderings, which are equal exactly when the
// integers are.)
func intBinop(code int32, x, y int64) (Value, error) {
	switch code {
	case vbAdd:
		return Int(x + y), nil
	case vbSub:
		return Int(x - y), nil
	case vbMul:
		return Int(x * y), nil
	case vbDiv:
		if y == 0 {
			return Value{}, fmt.Errorf("expr: divide by zero")
		}
		// Tcl floors integer division toward negative infinity.
		q := x / y
		if x%y != 0 && (x < 0) != (y < 0) {
			q--
		}
		return Int(q), nil
	case vbMod:
		if y == 0 {
			return Value{}, fmt.Errorf("expr: divide by zero")
		}
		r := x % y
		if r != 0 && (x < 0) != (y < 0) {
			r += y
		}
		return Int(r), nil
	case vbBitAnd:
		return Int(x & y), nil
	case vbBitOr:
		return Int(x | y), nil
	case vbBitXor:
		return Int(x ^ y), nil
	case vbShl, vbShr:
		if y < 0 || y > 63 {
			return Value{}, fmt.Errorf("expr: shift count %d out of range", y)
		}
		if code == vbShl {
			return Int(x << uint(y)), nil
		}
		return Int(x >> uint(y)), nil
	case vbEqStr, vbEqNum:
		return boolv(x == y), nil
	case vbNeStr, vbNeNum:
		return boolv(x != y), nil
	case vbLt:
		return boolv(x < y), nil
	case vbGt:
		return boolv(x > y), nil
	case vbLe:
		return boolv(x <= y), nil
	}
	return boolv(x >= y), nil
}

// unop applies one unary operator.
func unop(op byte, v *Value) (Value, error) {
	switch op {
	case '+', '-':
		n, ok := v.number()
		if !ok {
			return Value{}, fmt.Errorf("expr: unary %c on non-number %q", op, v.s)
		}
		switch {
		case op == '+':
			return n, nil
		case n.kind == intVal:
			return Int(-n.n), nil
		}
		return floatv(-n.float()), nil
	case '!':
		b, err := v.truth()
		if err != nil {
			return Value{}, err
		}
		return boolv(!b), nil
	default: // '~'
		if v.kind != intVal {
			return Value{}, fmt.Errorf("expr: ~ requires an integer")
		}
		return Int(^v.n), nil
	}
}
