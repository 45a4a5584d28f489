package script

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Value is the one representation of a script value: what a global slot,
// the VM's accumulator, every operand-stack entry and an expr operand hold,
// and what a TypedCommand returns. It is text, an integer or a float, and
// converts lazily: a number computed by incr, expr or a host command is
// rendered on the first read that wants text, and text is parsed on the
// first read that wants arithmetic. Either conversion is kept beside the
// original, so neither is repeated, and text that was spelled by a script
// (`007`, ` 5 `, `0x10`) reads back byte-identical however often it has been
// computed with.
//
// kind is what expr's typing rules see (a quoted "5" is text to `~` and
// abs(), a computed 5 is not); memo says which lazy conversion has been
// done. The zero Value is the empty string.
type Value struct {
	s    string
	n    int64 // the integer; for floats, the IEEE bits
	kind valueKind
	memo uint8
}

type valueKind uint8

const (
	strVal valueKind = iota // s is the value; n is its parse when memo says so
	intVal                  // n is the value; s its rendering when memo == memoText
	floatVal
)

const (
	memoNone   uint8 = iota
	memoInt          // strVal: s spells the integer n
	memoFloat        // strVal: s spells the float in n
	memoNotNum       // strVal: s is not a number
	memoText         // intVal, floatVal: s is the canonical rendering
)

// Int is the Value of a computed integer; nothing has rendered it yet.
func Int(n int64) Value { return Value{kind: intVal, n: n} }

// Str is the Value of a piece of text.
func Str(s string) Value { return Value{s: s} }

func floatv(f float64) Value { return Value{kind: floatVal, n: int64(math.Float64bits(f))} }
func boolv(b bool) Value {
	if b {
		return Int(1)
	}
	return Int(0)
}

func (v *Value) float() float64 { return math.Float64frombits(uint64(v.n)) }

// String renders the value in Tcl's canonical form. A computed integer
// renders exactly as strconv.FormatInt does.
func (v Value) String() string {
	switch {
	case v.kind == strVal || v.memo == memoText:
		return v.s
	case v.kind == intVal:
		return itoaFast(v.n)
	}
	s := strconv.FormatFloat(v.float(), 'g', -1, 64)
	// A float keeps a mark of being one, so its text parses back to the
	// same float: "5.0", "1e+21", "+Inf", "NaN".
	if !strings.ContainsAny(s, ".eIN") {
		s += ".0"
	}
	return s
}

// text is String for a value that stays where it is (a slot, a stack
// entry): the rendering is kept, so a second read costs nothing.
func (v *Value) text() string {
	if v.kind != strVal && v.memo != memoText {
		v.s, v.memo = v.String(), memoText
	}
	return v.s
}

// appendText appends the value's text to buf without building the string.
func (v *Value) appendText(buf []byte) []byte {
	if v.kind == intVal && v.memo != memoText {
		return strconv.AppendInt(buf, v.n, 10)
	}
	return append(buf, v.String()...)
}

// number is the value as arithmetic sees it: itself when it is a number,
// the number its text spells otherwise (parsed once, then kept), or false.
func (v *Value) number() (Value, bool) {
	if v.kind != strVal {
		return *v, true
	}
	if v.memo == memoNone {
		v.memo = memoNotNum
		if num, ok := parseNumber(v.s); ok {
			v.n, v.memo = num.n, memoInt
			if num.kind == floatVal {
				v.memo = memoFloat
			}
		}
	}
	switch v.memo {
	case memoInt:
		return Value{kind: intVal, n: v.n}, true
	case memoFloat:
		return Value{kind: floatVal, n: v.n}, true
	}
	return Value{}, false
}

// integer is number restricted to integers, the reading incr and the
// bitwise operators take.
func (v *Value) integer() (int64, bool) {
	n, ok := v.number()
	return n.n, ok && n.kind == intVal
}

// coerced is the value as an expr operand read from a variable or a
// [command]: a number when it spells one, its text otherwise.
func (v *Value) coerced() Value {
	if n, ok := v.number(); ok {
		return n
	}
	return *v
}

func (v *Value) asFloat() float64 {
	if v.kind == intVal {
		return float64(v.n)
	}
	return v.float()
}

func (v *Value) truth() (bool, error) {
	switch v.kind {
	case intVal:
		return v.n != 0, nil
	case floatVal:
		return v.float() != 0, nil
	}
	if n, ok := v.number(); ok {
		return n.truth()
	}
	switch strings.ToLower(v.s) {
	case "true", "yes", "on":
		return true, nil
	case "false", "no", "off":
		return false, nil
	}
	return false, fmt.Errorf("expected boolean value but got %q", v.s)
}

// parseInt reads s as an integer the way incr and format do: decimal, 0x
// hex, 0o/leading-0 octal or 0b binary, signed. Go's digit separator is not
// part of the script language's number grammar: `1_0` is text.
func parseInt(s string) (int64, bool) {
	if strings.IndexByte(s, '_') >= 0 {
		return 0, false
	}
	i, err := strconv.ParseInt(s, 0, 64)
	return i, err == nil
}

// parseNumber interprets s as an integer (parseInt's grammar) or float,
// ignoring surrounding white space.
//
// The first-byte prefilter matters for the per-message hot path: strconv
// allocates a *NumError on failure, and every operand read from a variable
// or a [command] comes through here once — including plainly non-numeric
// message types like "DATA". Only strings that could possibly start a
// number reach strconv. (i/I/n/N admit Inf and NaN, which ParseFloat
// accepts.)
func parseNumber(s string) (Value, bool) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Value{}, false
	}
	switch c := s[0]; {
	case c >= '0' && c <= '9', c == '+', c == '-', c == '.',
		c == 'i', c == 'I', c == 'n', c == 'N':
	default:
		return Value{}, false
	}
	if strings.IndexByte(s, '_') >= 0 {
		return Value{}, false
	}
	// A '.' anywhere rules out an integer; skip the guaranteed ParseInt
	// failure (and its error allocation) for float literals like "0.25".
	if !strings.ContainsRune(s, '.') {
		if i, err := strconv.ParseInt(s, 0, 64); err == nil {
			return Int(i), true
		}
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return floatv(f), true
	}
	return Value{}, false
}

// coerce turns a raw operand string into a typed value, preferring numbers.
func coerce(s string) Value {
	v := Str(s)
	return v.coerced()
}

// smallIntStrs caches the decimal form of small integers so rendering a
// counter doesn't allocate a fresh string per read.
var smallIntStrs = func() (a [640]string) {
	for i := range a {
		a[i] = strconv.FormatInt(int64(i-128), 10)
	}
	return
}()

// itoaFast is strconv.FormatInt(n, 10) with an allocation-free fast path
// for the small values counters actually take.
func itoaFast(n int64) string {
	if n >= -128 && n < 512 {
		return smallIntStrs[n+128]
	}
	return strconv.FormatInt(n, 10)
}
