package script

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// WrongArgs is the language's one wrong-number-of-arguments error, spelled
// as Tcl spells it: `wrong # args: should be "usage"`. Builtins, procs and
// host commands all report a bad argument count with it.
func WrongArgs(usage string) error {
	return fmt.Errorf("wrong # args: should be %q", usage)
}

// builtins is the core command set, one table for the process: built
// before main runs and never written again, so every interpreter (and every
// goroutine's) may read it. An interpreter's own table holds only what its
// host registered or removed (Interp.lookup). It is filled by init because
// the commands reach back to the table through the interpreter. Each entry
// is declared as a host's Register is, by its usage line. A bare name
// checks its own arguments: if, switch and lsort take options no count
// bounds, error ignores words its usage does not name, break and continue
// take none, and list and concat take any.
var builtins = map[string]binding{}

// stringUsage declares the string subcommands that check their count; the
// others take one argument, or two for the trims, and ignore the rest.
var stringUsage = map[string]arity{}

func init() {
	for _, b := range []struct {
		usage string
		cmd   Command
	}{
		{"set varName ?newValue?", cmdSet},
		{"unset varName ?varName ...?", cmdUnset},
		{"incr varName ?increment?", cmdIncr},
		{"append varName ?value ...?", cmdAppend},
		{"if", cmdIf},
		{"while test command", cmdWhile},
		{"for start test next command", cmdFor},
		{"foreach varList list command", cmdForeach},
		{"switch", cmdSwitch},
		{"proc name args body", cmdProc},
		{"return ?value?", cmdReturn},
		{"break", cmdBreak},
		{"continue", cmdContinue},
		{"expr arg ?arg ...?", cmdExpr},
		{"eval arg ?arg ...?", cmdEval},
		{"catch command ?varName?", cmdCatch},
		{"error", cmdError},
		{"global varName ?varName ...?", cmdGlobal},
		{"puts ?-nonewline? string", cmdPuts},
		{"list", cmdList},
		{"lindex list index", cmdLindex},
		{"llength list", cmdLlength},
		{"lappend varName ?value ...?", cmdLappend},
		{"lrange list first last", cmdLrange},
		{"linsert list index element ?element ...?", cmdLinsert},
		{"lsearch ?mode? list pattern", cmdLsearch},
		{"lsort", cmdLsort},
		{"lreverse list", cmdLreverse},
		{"lreplace list first last ?element ...?", cmdLreplace},
		{"lassign list varName ?varName ...?", cmdLassign},
		{"concat", cmdConcat},
		{"join list ?joinString?", cmdJoin},
		{"split string ?splitChars?", cmdSplit},
		{"string option arg ?arg ...?", cmdString},
		{"format formatString ?arg ...?", cmdFormat},
		{"info option ?arg ...?", cmdInfo},
	} {
		name, a := declare(b.usage)
		builtins[name] = binding{cmd: b.cmd, arity: a}
	}
	for _, usage := range []string{
		"string index string charIndex",
		"string range string first last",
		"string first needle haystack",
		"string last needle haystack",
		"string match pattern string",
		"string compare string1 string2",
		"string equal string1 string2",
		"string repeat string count",
		"string map {key value ...} string",
	} {
		op, a := declare(strings.TrimPrefix(usage, "string "))
		a.usage = usage
		stringUsage[op] = a
	}
}

func cmdSet(in *Interp, args []string) (string, error) {
	if len(args) == 2 {
		in.SetVar(args[0], args[1])
		return args[1], nil
	}
	v, ok := in.Var(args[0])
	if !ok {
		return "", fmt.Errorf("can't read %q: no such variable", args[0])
	}
	return v, nil
}

func cmdUnset(in *Interp, args []string) (string, error) {
	for _, name := range args {
		in.UnsetVar(name)
	}
	return "", nil
}

func cmdIncr(in *Interp, args []string) (string, error) {
	delta := int64(1)
	if len(args) == 2 {
		d, ok := parseInt(args[1])
		if !ok {
			return "", fmt.Errorf("expected integer but got %q", args[1])
		}
		delta = d
	}
	cur := int64(0)
	if v, ok := in.Var(args[0]); ok {
		if cur, ok = parseInt(strings.TrimSpace(v)); !ok {
			return "", fmt.Errorf("expected integer but got %q", v)
		}
	}
	res := strconv.FormatInt(cur+delta, 10)
	in.SetVar(args[0], res)
	return res, nil
}

func cmdAppend(in *Interp, args []string) (string, error) {
	cur, _ := in.Var(args[0])
	cur += strings.Join(args[1:], "")
	in.SetVar(args[0], cur)
	return cur, nil
}

func cmdIf(in *Interp, args []string) (string, error) {
	i := 0
	for {
		if i >= len(args) {
			return "", WrongArgs("if cond ?then? body ?elseif cond body ...? ?else body?")
		}
		cond := args[i]
		i++
		if i < len(args) && args[i] == "then" {
			i++
		}
		if i >= len(args) {
			return "", fmt.Errorf("wrong # args: no script following %q argument", cond)
		}
		body := args[i]
		i++
		ok, err := in.EvalExprBool(cond)
		if err != nil {
			return "", err
		}
		if ok {
			return in.evalBody(body)
		}
		if i >= len(args) {
			return "", nil
		}
		switch args[i] {
		case "elseif":
			i++
			continue
		case "else":
			i++
			if i != len(args)-1 {
				return "", errors.New("wrong # args: extra arguments after \"else\" body")
			}
			return in.evalBody(args[i])
		default:
			// Implicit else body.
			if i != len(args)-1 {
				return "", fmt.Errorf("invalid argument %q after if body", args[i])
			}
			return in.evalBody(args[i])
		}
	}
}

// evalBody evaluates a body in the current frame, parsing its text once.
func (in *Interp) evalBody(body string) (string, error) {
	s, err := in.compile(body)
	if err != nil {
		return "", err
	}
	return in.runAny(s)
}

func cmdWhile(in *Interp, args []string) (string, error) {
	for {
		if in.overBudget() {
			in.limitHit = true
			return "", fmt.Errorf("step limit %d exceeded in while loop", in.maxSteps)
		}
		ok, err := in.EvalExprBool(args[0])
		if err != nil {
			return "", err
		}
		if !ok {
			return "", nil
		}
		_, err = in.evalBody(args[1])
		if err != nil {
			var fl *flow
			if errors.As(err, &fl) {
				if fl.code == flowBreak {
					return "", nil
				}
				if fl.code == flowContinue {
					continue
				}
			}
			return "", err
		}
	}
}

func cmdFor(in *Interp, args []string) (string, error) {
	if _, err := in.evalBody(args[0]); err != nil {
		return "", err
	}
	for {
		if in.overBudget() {
			in.limitHit = true
			return "", fmt.Errorf("step limit %d exceeded in for loop", in.maxSteps)
		}
		ok, err := in.EvalExprBool(args[1])
		if err != nil {
			return "", err
		}
		if !ok {
			return "", nil
		}
		_, err = in.evalBody(args[3])
		if err != nil {
			var fl *flow
			if errors.As(err, &fl) {
				if fl.code == flowBreak {
					return "", nil
				}
				if fl.code != flowContinue {
					return "", err
				}
			} else {
				return "", err
			}
		}
		if _, err := in.evalBody(args[2]); err != nil {
			return "", err
		}
	}
}

func cmdForeach(in *Interp, args []string) (string, error) {
	vars, err := ListSplit(args[0])
	if err != nil {
		return "", err
	}
	if len(vars) == 0 {
		return "", errors.New("foreach: empty variable list")
	}
	items, err := ListSplit(args[1])
	if err != nil {
		return "", err
	}
	for i := 0; i < len(items); i += len(vars) {
		for j, v := range vars {
			if i+j < len(items) {
				in.SetVar(v, items[i+j])
			} else {
				in.SetVar(v, "")
			}
		}
		_, err := in.evalBody(args[2])
		if err != nil {
			var fl *flow
			if errors.As(err, &fl) {
				if fl.code == flowBreak {
					return "", nil
				}
				if fl.code == flowContinue {
					continue
				}
			}
			return "", err
		}
	}
	return "", nil
}

func cmdSwitch(in *Interp, args []string) (string, error) {
	useGlob := false
	i := 0
	for i < len(args) {
		if args[i] == "-glob" {
			useGlob = true
			i++
		} else if args[i] == "-exact" {
			useGlob = false
			i++
		} else if args[i] == "--" {
			i++
			break
		} else {
			break
		}
	}
	if i >= len(args) {
		return "", WrongArgs("switch ?options? string pattern body ?pattern body ...?")
	}
	subject := args[i]
	i++
	var pairs []string
	if len(args)-i == 1 {
		var err error
		pairs, err = ListSplit(args[i])
		if err != nil {
			return "", err
		}
	} else {
		pairs = args[i:]
	}
	if len(pairs)%2 != 0 {
		return "", errors.New("switch: extra pattern with no body")
	}
	for j := 0; j < len(pairs); j += 2 {
		pat, body := pairs[j], pairs[j+1]
		match := pat == "default" && j == len(pairs)-2
		if !match {
			if useGlob {
				match = MatchGlob(pat, subject)
			} else {
				match = pat == subject
			}
		}
		if match {
			// "-" chains to the next body.
			for body == "-" && j+3 < len(pairs) {
				j += 2
				body = pairs[j+1]
			}
			if body == "-" {
				return "", errors.New("switch: no body specified for terminal pattern")
			}
			return in.evalBody(body)
		}
	}
	return "", nil
}

func cmdProc(in *Interp, args []string) (string, error) {
	name := args[0]
	if isSpecialForm(name) {
		return "", fmt.Errorf("can't redefine special form %q", name)
	}
	paramList, err := ListSplit(args[1])
	if err != nil {
		return "", err
	}
	pr := &proc{name: name}
	for i, p := range paramList {
		spec, err := ListSplit(p)
		if err != nil {
			return "", err
		}
		switch len(spec) {
		case 1:
			if spec[0] == "args" && i == len(paramList)-1 {
				pr.varargs = true
			}
			pr.params = append(pr.params, procParam{name: spec[0]})
		case 2:
			pr.params = append(pr.params, procParam{name: spec[0], defaultVal: spec[1], hasDefault: true})
		default:
			return "", fmt.Errorf("bad parameter specification %q", p)
		}
	}
	body, err := Parse(args[2])
	if err != nil {
		return "", err
	}
	pr.body = body
	in.defineProc(pr)
	return "", nil
}

func cmdReturn(in *Interp, args []string) (string, error) {
	val := ""
	if len(args) == 1 {
		val = args[0]
	}
	return "", &flow{code: flowReturn, value: val}
}

func cmdBreak(in *Interp, args []string) (string, error) {
	if len(args) != 0 {
		return "", WrongArgs("break")
	}
	return "", flowBreakErr
}

func cmdContinue(in *Interp, args []string) (string, error) {
	if len(args) != 0 {
		return "", WrongArgs("continue")
	}
	return "", flowContinueErr
}

func cmdExpr(in *Interp, args []string) (string, error) {
	return in.EvalExpr(strings.Join(args, " "))
}

func cmdEval(in *Interp, args []string) (string, error) {
	return in.evalBody(strings.Join(args, " "))
}

func cmdCatch(in *Interp, args []string) (string, error) {
	res, err := in.evalBody(args[0])
	code := 0
	if err != nil {
		var fl *flow
		if errors.As(err, &fl) {
			switch fl.code {
			case flowReturn:
				code, res = 2, fl.value
			case flowBreak:
				code = 3
			case flowContinue:
				code = 4
			}
		} else {
			code = 1
			// Tcl's catch stores the bare error message; the "while
			// executing" context lives in errorInfo, which we don't model.
			var ev *EvalError
			if errors.As(err, &ev) {
				res = ev.Msg
			} else {
				res = err.Error()
			}
		}
	}
	if len(args) == 2 {
		in.SetVar(args[1], res)
	}
	return strconv.Itoa(code), nil
}

func cmdError(in *Interp, args []string) (string, error) {
	if len(args) < 1 {
		return "", WrongArgs("error message")
	}
	return "", errors.New(args[0])
}

func cmdGlobal(in *Interp, args []string) (string, error) {
	f := in.curFrame()
	if f == nil {
		return "", nil // no-op at global scope
	}
	if f.globals == nil {
		f.globals = make(map[string]bool)
	}
	for _, name := range args {
		f.globals[name] = true
	}
	return "", nil
}

func cmdPuts(in *Interp, args []string) (string, error) {
	newline := true
	if len(args) > 0 && args[0] == "-nonewline" {
		newline = false
		args = args[1:]
	}
	if len(args) != 1 {
		return "", WrongArgs("puts ?-nonewline? string")
	}
	if newline {
		fmt.Fprintln(in.out, args[0])
	} else {
		fmt.Fprint(in.out, args[0])
	}
	return "", nil
}

func cmdList(in *Interp, args []string) (string, error) {
	return ListJoin(args), nil
}

// listIndex resolves an index term: integer, "end", or "end-N".
func listIndex(term string, length int) (int, error) {
	if term == "end" {
		return length - 1, nil
	}
	if strings.HasPrefix(term, "end-") {
		n, err := strconv.Atoi(term[4:])
		if err != nil {
			return 0, fmt.Errorf("bad index %q", term)
		}
		return length - 1 - n, nil
	}
	n, err := strconv.Atoi(term)
	if err != nil {
		return 0, fmt.Errorf("bad index %q: must be integer or end?-integer?", term)
	}
	return n, nil
}

func cmdLindex(in *Interp, args []string) (string, error) {
	elems, err := ListSplit(args[0])
	if err != nil {
		return "", err
	}
	idx, err := listIndex(args[1], len(elems))
	if err != nil {
		return "", err
	}
	if idx < 0 || idx >= len(elems) {
		return "", nil
	}
	return elems[idx], nil
}

func cmdLlength(in *Interp, args []string) (string, error) {
	elems, err := ListSplit(args[0])
	if err != nil {
		return "", err
	}
	return strconv.Itoa(len(elems)), nil
}

func cmdLappend(in *Interp, args []string) (string, error) {
	cur, _ := in.Var(args[0])
	for _, v := range args[1:] {
		if cur == "" {
			cur = quoteElem(v)
		} else {
			cur += " " + quoteElem(v)
		}
	}
	in.SetVar(args[0], cur)
	return cur, nil
}

func cmdLrange(in *Interp, args []string) (string, error) {
	elems, err := ListSplit(args[0])
	if err != nil {
		return "", err
	}
	first, err := listIndex(args[1], len(elems))
	if err != nil {
		return "", err
	}
	last, err := listIndex(args[2], len(elems))
	if err != nil {
		return "", err
	}
	if first < 0 {
		first = 0
	}
	if last >= len(elems) {
		last = len(elems) - 1
	}
	if first > last {
		return "", nil
	}
	return ListJoin(elems[first : last+1]), nil
}

func cmdLinsert(in *Interp, args []string) (string, error) {
	elems, err := ListSplit(args[0])
	if err != nil {
		return "", err
	}
	idx, err := listIndex(args[1], len(elems)+1)
	if err != nil {
		return "", err
	}
	if args[1] == "end" {
		idx = len(elems)
	}
	if idx < 0 {
		idx = 0
	}
	if idx > len(elems) {
		idx = len(elems)
	}
	out := make([]string, 0, len(elems)+len(args)-2)
	out = append(out, elems[:idx]...)
	out = append(out, args[2:]...)
	out = append(out, elems[idx:]...)
	return ListJoin(out), nil
}

func cmdLsearch(in *Interp, args []string) (string, error) {
	useGlob := true
	if len(args) == 3 {
		switch args[0] {
		case "-exact":
			useGlob = false
		case "-glob":
		default:
			return "", fmt.Errorf("bad option %q: must be -exact or -glob", args[0])
		}
		args = args[1:]
	}
	elems, err := ListSplit(args[0])
	if err != nil {
		return "", err
	}
	for i, e := range elems {
		if useGlob && MatchGlob(args[1], e) || !useGlob && e == args[1] {
			return strconv.Itoa(i), nil
		}
	}
	return "-1", nil
}

func cmdLsort(in *Interp, args []string) (string, error) {
	numeric := false
	decreasing := false
	for len(args) > 1 {
		switch args[0] {
		case "-integer", "-real":
			numeric = true
		case "-decreasing":
			decreasing = true
		case "-increasing":
			decreasing = false
		case "-ascii":
			numeric = false
		default:
			return "", fmt.Errorf("bad lsort option %q", args[0])
		}
		args = args[1:]
	}
	if len(args) != 1 {
		return "", WrongArgs("lsort ?options? list")
	}
	elems, err := ListSplit(args[0])
	if err != nil {
		return "", err
	}
	var sortErr error
	sort.SliceStable(elems, func(i, j int) bool {
		var less bool
		if numeric {
			a, errA := strconv.ParseFloat(elems[i], 64)
			b, errB := strconv.ParseFloat(elems[j], 64)
			if errA != nil || errB != nil {
				sortErr = errors.New("lsort: expected number")
			}
			less = a < b
		} else {
			less = elems[i] < elems[j]
		}
		if decreasing {
			return !less && elems[i] != elems[j]
		}
		return less
	})
	if sortErr != nil {
		return "", sortErr
	}
	return ListJoin(elems), nil
}

func cmdLreplace(in *Interp, args []string) (string, error) {
	elems, err := ListSplit(args[0])
	if err != nil {
		return "", err
	}
	first, err := listIndex(args[1], len(elems))
	if err != nil {
		return "", err
	}
	last, err := listIndex(args[2], len(elems))
	if err != nil {
		return "", err
	}
	if first < 0 {
		first = 0
	}
	if first > len(elems) {
		first = len(elems)
	}
	if last >= len(elems) {
		last = len(elems) - 1
	}
	out := make([]string, 0, len(elems)+len(args)-3)
	out = append(out, elems[:first]...)
	out = append(out, args[3:]...)
	if last+1 >= first && last+1 <= len(elems) {
		out = append(out, elems[last+1:]...)
	} else if last < first {
		out = append(out, elems[first:]...)
	}
	return ListJoin(out), nil
}

func cmdLassign(in *Interp, args []string) (string, error) {
	elems, err := ListSplit(args[0])
	if err != nil {
		return "", err
	}
	for i, name := range args[1:] {
		if i < len(elems) {
			in.SetVar(name, elems[i])
		} else {
			in.SetVar(name, "")
		}
	}
	if len(elems) > len(args)-1 {
		return ListJoin(elems[len(args)-1:]), nil
	}
	return "", nil
}

func cmdLreverse(in *Interp, args []string) (string, error) {
	elems, err := ListSplit(args[0])
	if err != nil {
		return "", err
	}
	for i, j := 0, len(elems)-1; i < j; i, j = i+1, j-1 {
		elems[i], elems[j] = elems[j], elems[i]
	}
	return ListJoin(elems), nil
}

func cmdConcat(in *Interp, args []string) (string, error) {
	parts := make([]string, 0, len(args))
	for _, a := range args {
		t := strings.TrimSpace(a)
		if t != "" {
			parts = append(parts, t)
		}
	}
	return strings.Join(parts, " "), nil
}

func cmdJoin(in *Interp, args []string) (string, error) {
	sep := " "
	if len(args) == 2 {
		sep = args[1]
	}
	elems, err := ListSplit(args[0])
	if err != nil {
		return "", err
	}
	return strings.Join(elems, sep), nil
}

func cmdSplit(in *Interp, args []string) (string, error) {
	s := args[0]
	chars := " \t\n\r"
	if len(args) == 2 {
		chars = args[1]
	}
	if chars == "" {
		parts := make([]string, 0, len(s))
		for _, r := range s {
			parts = append(parts, string(r))
		}
		return ListJoin(parts), nil
	}
	// Tcl split keeps empty fields, unlike strings.FieldsFunc.
	return ListJoin(splitKeepEmpty(s, chars)), nil
}

func splitKeepEmpty(s, chars string) []string {
	var parts []string
	start := 0
	for i, r := range s {
		if strings.ContainsRune(chars, r) {
			parts = append(parts, s[start:i])
			start = i + len(string(r))
		}
	}
	parts = append(parts, s[start:])
	return parts
}

// maxRepeatBytes bounds string repeat's result, refused before allocating:
// one hostile count would otherwise end the process out of memory, which
// harden cannot contain. It is the bound tcp_send puts on one send.
const maxRepeatBytes = 1 << 20

func cmdString(in *Interp, args []string) (string, error) {
	op := args[0]
	rest := args[1:]
	if a := stringUsage[op]; !a.takes(len(rest)) {
		return "", WrongArgs(a.usage)
	}
	switch op {
	case "length":
		return strconv.Itoa(len(rest[0])), nil
	case "tolower":
		return strings.ToLower(rest[0]), nil
	case "toupper":
		return strings.ToUpper(rest[0]), nil
	case "trim":
		if len(rest) == 2 {
			return strings.Trim(rest[0], rest[1]), nil
		}
		return strings.TrimSpace(rest[0]), nil
	case "trimleft":
		if len(rest) == 2 {
			return strings.TrimLeft(rest[0], rest[1]), nil
		}
		return strings.TrimLeft(rest[0], " \t\n\r"), nil
	case "trimright":
		if len(rest) == 2 {
			return strings.TrimRight(rest[0], rest[1]), nil
		}
		return strings.TrimRight(rest[0], " \t\n\r"), nil
	case "index":
		idx, err := listIndex(rest[1], len(rest[0]))
		if err != nil {
			return "", err
		}
		if idx < 0 || idx >= len(rest[0]) {
			return "", nil
		}
		return string(rest[0][idx]), nil
	case "range":
		s := rest[0]
		first, err := listIndex(rest[1], len(s))
		if err != nil {
			return "", err
		}
		last, err := listIndex(rest[2], len(s))
		if err != nil {
			return "", err
		}
		if first < 0 {
			first = 0
		}
		if last >= len(s) {
			last = len(s) - 1
		}
		if first > last {
			return "", nil
		}
		return s[first : last+1], nil
	case "first":
		return strconv.Itoa(strings.Index(rest[1], rest[0])), nil
	case "last":
		return strconv.Itoa(strings.LastIndex(rest[1], rest[0])), nil
	case "match":
		return boolStr(MatchGlob(rest[0], rest[1])), nil
	case "compare":
		return strconv.Itoa(strings.Compare(rest[0], rest[1])), nil
	case "equal":
		return boolStr(rest[0] == rest[1]), nil
	case "repeat":
		n, err := strconv.Atoi(rest[1])
		if err != nil || n < 0 {
			return "", fmt.Errorf("bad repeat count %q", rest[1])
		}
		if len(rest[0]) > 0 && n > maxRepeatBytes/len(rest[0]) {
			return "", fmt.Errorf("string repeat: result would exceed %d bytes", maxRepeatBytes)
		}
		return strings.Repeat(rest[0], n), nil
	case "map":
		pairs, err := ListSplit(rest[0])
		if err != nil {
			return "", err
		}
		if len(pairs)%2 != 0 {
			return "", fmt.Errorf("string map: char map must have an even number of elements")
		}
		return strings.NewReplacer(pairs...).Replace(rest[1]), nil
	default:
		return "", fmt.Errorf("bad string option %q", op)
	}
}

func boolStr(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

// maxFormatField bounds a width or precision, literal or *: Go's fmt
// refuses one past a million with error text in the result.
const maxFormatField = 1_000_000

func notDigit(r rune) bool { return r < '0' || r > '9' }

// cmdFormat implements a C-printf-style format, mapping Tcl verbs onto
// Go's fmt. Supported verbs: d i u x X o c s f e g % with flags and
// width/precision (either may be *).
func cmdFormat(in *Interp, args []string) (string, error) {
	spec := args[0]
	vals := args[1:]
	var b strings.Builder
	vi := 0
	i := 0
	for i < len(spec) {
		c := spec[i]
		if c != '%' {
			b.WriteByte(c)
			i++
			continue
		}
		j := i + 1
		for j < len(spec) && strings.ContainsRune("-+ #0123456789.*", rune(spec[j])) {
			j++
		}
		if j >= len(spec) {
			return "", errors.New("format string ended in middle of field specifier")
		}
		verb := spec[j]
		flags := spec[i+1 : j]
		i = j + 1
		if verb == '%' {
			b.WriteByte('%')
			continue
		}
		for _, digits := range strings.FieldsFunc(flags, notDigit) {
			digits = strings.TrimLeft(digits, "0")
			if n, err := strconv.Atoi(digits); digits != "" && err != nil || n > maxFormatField {
				return "", fmt.Errorf("field size %s out of range", digits)
			}
		}
		// A * width or precision takes the next argument, as in Tcl: a
		// negative width left-justifies, a negative precision is 0.
		stars := strings.Count(flags, "*")
		if vi+stars >= len(vals) {
			return "", errors.New("not enough arguments for all format specifiers")
		}
		fargs := make([]any, 0, stars+1)
		for k := 0; k < len(flags); k++ {
			if flags[k] != '*' {
				continue
			}
			n, ok := parseInt(strings.TrimSpace(vals[vi]))
			if !ok {
				return "", fmt.Errorf("expected integer but got %q", vals[vi])
			}
			if n > maxFormatField || n < -maxFormatField {
				return "", fmt.Errorf("field size %d out of range", n)
			}
			if k > 0 && flags[k-1] == '.' {
				n = max(n, 0)
			}
			fargs = append(fargs, int(n))
			vi++
		}
		arg := vals[vi]
		vi++
		switch verb {
		case 'd', 'i':
			n, ok := parseInt(strings.TrimSpace(arg))
			if !ok {
				return "", fmt.Errorf("expected integer but got %q", arg)
			}
			fmt.Fprintf(&b, "%"+flags+"d", append(fargs, n)...)
		case 'u':
			n, err := strconv.ParseUint(strings.TrimSpace(arg), 0, 64)
			if err != nil {
				return "", fmt.Errorf("expected unsigned integer but got %q", arg)
			}
			fmt.Fprintf(&b, "%"+flags+"d", append(fargs, n)...)
		case 'x', 'X', 'o':
			n, ok := parseInt(strings.TrimSpace(arg))
			if !ok {
				return "", fmt.Errorf("expected integer but got %q", arg)
			}
			fmt.Fprintf(&b, "%"+flags+string(verb), append(fargs, n)...)
		case 'c':
			n, err := strconv.ParseInt(strings.TrimSpace(arg), 0, 32)
			if err != nil {
				return "", fmt.Errorf("expected integer but got %q", arg)
			}
			fmt.Fprintf(&b, "%"+flags+"c", append(fargs, rune(n))...)
		case 's':
			fmt.Fprintf(&b, "%"+flags+"s", append(fargs, arg)...)
		case 'f', 'e', 'E', 'g', 'G':
			f, err := strconv.ParseFloat(strings.TrimSpace(arg), 64)
			if err != nil {
				return "", fmt.Errorf("expected float but got %q", arg)
			}
			fmt.Fprintf(&b, "%"+flags+string(verb), append(fargs, f)...)
		default:
			return "", fmt.Errorf("bad field specifier %%%c", verb)
		}
	}
	return b.String(), nil
}

func cmdInfo(in *Interp, args []string) (string, error) {
	switch args[0] {
	case "exists":
		if len(args) != 2 {
			return "", WrongArgs("info exists varName")
		}
		_, ok := in.Var(args[1])
		return boolStr(ok), nil
	case "commands":
		names := in.CommandNames()
		sort.Strings(names)
		if len(args) == 2 {
			var matched []string
			for _, n := range names {
				if MatchGlob(args[1], n) {
					matched = append(matched, n)
				}
			}
			names = matched
		}
		return ListJoin(names), nil
	case "procs":
		names := make([]string, 0, len(in.procs))
		for n := range in.procs {
			names = append(names, n)
		}
		sort.Strings(names)
		return ListJoin(names), nil
	case "level":
		return strconv.Itoa(len(in.frames)), nil
	default:
		return "", fmt.Errorf("bad info option %q", args[0])
	}
}

// MatchGlob implements Tcl's `string match` globbing: '*' any run, '?' any
// single byte, '[a-z]' character classes, '\x' literal escape.
func MatchGlob(pattern, s string) bool {
	return matchGlob(pattern, s)
}

func matchGlob(p, s string) bool {
	pi, si := 0, 0
	starP, starS := -1, -1
	for si < len(s) {
		if pi < len(p) {
			switch p[pi] {
			case '*':
				starP, starS = pi, si
				pi++
				continue
			case '?':
				pi++
				si++
				continue
			case '[':
				if end, ok := matchClass(p, pi, s[si]); ok {
					pi = end
					si++
					continue
				}
			case '\\':
				if pi+1 < len(p) && p[pi+1] == s[si] {
					pi += 2
					si++
					continue
				}
			default:
				if p[pi] == s[si] {
					pi++
					si++
					continue
				}
			}
		}
		if starP >= 0 {
			starS++
			pi, si = starP+1, starS
			continue
		}
		return false
	}
	for pi < len(p) && p[pi] == '*' {
		pi++
	}
	return pi == len(p)
}

// matchClass matches s against the class starting at p[start]=='['.
// It returns the index just past ']' and whether c matched.
func matchClass(p string, start int, c byte) (int, bool) {
	i := start + 1
	matched := false
	negate := false
	if i < len(p) && (p[i] == '^' || p[i] == '!') {
		negate = true
		i++
	}
	first := true
	for i < len(p) && (p[i] != ']' || first) {
		first = false
		lo := p[i]
		hi := lo
		if i+2 < len(p) && p[i+1] == '-' && p[i+2] != ']' {
			hi = p[i+2]
			i += 3
		} else {
			i++
		}
		if lo <= c && c <= hi {
			matched = true
		}
	}
	if i >= len(p) {
		return 0, false // unterminated class: no match
	}
	i++ // consume ']'
	if negate {
		matched = !matched
	}
	return i, matched
}
