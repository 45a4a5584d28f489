package script

import (
	"errors"
	"fmt"
	"io"
	"strings"
)

// Command is a host (Go-native) command callable from scripts — the
// equivalent of a C-coded Tcl extension in the original PFI tool. args
// excludes the command name itself. The returned string is the command's
// result (Tcl semantics: every command returns a string).
type Command func(in *Interp, args []string) (string, error)

// TypedCommand is a Command whose result need not be text: a command that
// computed an integer (a header field, a length, a counter) returns Int(n)
// and the digits are rendered only if something reads the result as text.
// A script cannot tell the two apart.
type TypedCommand func(in *Interp, args []string) (Value, error)

// binding is what a command name resolves to on the host side. The zero
// binding is "no such command".
type binding struct {
	cmd   Command
	typed TypedCommand
}

// flow carries Tcl's non-error result codes (return/break/continue) through
// Go's error plumbing. It never escapes Eval's public API.
type flow struct {
	code  flowCode
	value string
}

type flowCode int

const (
	flowReturn flowCode = iota + 1
	flowBreak
	flowContinue
)

func (f *flow) Error() string {
	switch f.code {
	case flowReturn:
		return "invoked \"return\" outside of a proc"
	case flowBreak:
		return "invoked \"break\" outside of a loop"
	default:
		return "invoked \"continue\" outside of a loop"
	}
}

// break and continue carry no payload, so every loop iteration can share
// one immutable instance instead of allocating.
var (
	flowBreakErr    = &flow{code: flowBreak}
	flowContinueErr = &flow{code: flowContinue}
)

// EvalError is a script runtime error, annotated with the failing command.
type EvalError struct {
	Cmd  string // command name that raised the error
	Line int
	Msg  string
}

func (e *EvalError) Error() string {
	if e.Cmd == "" {
		return e.Msg
	}
	return fmt.Sprintf("%s (while executing %q near line %d)", e.Msg, e.Cmd, e.Line)
}

// frame is one proc call's variable scope. The global scope is not a frame:
// it lives in the interpreter's slot table (see gslot) so the compiler can
// resolve global variable names to integer indices.
type frame struct {
	vars    map[string]string
	globals map[string]bool // names linked to the global frame via `global`
}

func newFrame() *frame {
	return &frame{vars: make(map[string]string)}
}

// proc is a script-defined procedure.
type proc struct {
	name    string
	params  []procParam
	body    *Script
	varargs bool // last param is `args`
}

type procParam struct {
	name       string
	defaultVal string
	hasDefault bool
}

// gslot is one global variable. Globals live in a flat slot table rather
// than a map so the compiler can resolve a literal variable name to an
// integer index once; the Value in it keeps whichever of text and number
// has been asked for since the last write.
type gslot struct {
	v   Value
	set bool
}

// maxGlobalSlots caps the name-interning table. Scripts that synthesize
// unbounded variable names fall through to the overflow map, keeping the
// slot table (which is never shrunk) bounded.
const maxGlobalSlots = 8192

// Interp is a Tcl-subset interpreter. State (variables, procs) persists
// across Eval calls, which is what lets a PFI filter script keep counters
// and phase flags between messages. Interp is not safe for concurrent use;
// the simulation is single-threaded by design.
type Interp struct {
	gslots    []gslot
	gslotOf   map[string]int     // global name -> slot index
	goverflow map[string]string  // globals past the intern cap
	frames    []*frame           // proc call stack (empty at top level)
	commands  map[string]binding // host commands and overridden builtins; see lookup
	procs     map[string]*proc
	bodies    map[string]*body // what each source text compiled to; nil until first use
	wordBufs  [][]string       // scratch buffers for expandCommand
	out       io.Writer        // destination for puts
	tree      bool             // tests only: runAny tree-walks (the reference leg of FuzzCompiledParity and TestEngineDiff*)
	lowerOnly bool             // tests only: compileProgram skips fuse (the unfused leg of TestOptimizeDiff*)
	steps     int              // commands executed since limit reset
	maxSteps  int              // 0 = unlimited
	limitHit  bool             // last top-level Eval/Run died on the step limit
	depth     int              // proc/eval recursion depth

	// cmdEpoch invalidates the VM's per-call-site command caches; it bumps
	// whenever the name->command/proc mapping changes.
	cmdEpoch uint64

	// VM scratch stacks, shared across nested exec calls (each call
	// operates above its saved base indices).
	vmStack []Value
	vmFes   []feState
	vmBuf   []byte // concat scratch
}

const maxDepth = 200

// New returns an interpreter with the core command set installed.
// Output from puts is discarded unless SetOutput is called.
func New() *Interp {
	return &Interp{
		gslotOf:  make(map[string]int),
		commands: make(map[string]binding),
		procs:    make(map[string]*proc),
		out:      io.Discard,
		maxSteps: 5_000_000,
		cmdEpoch: 1, // 0 marks a call site that never resolved
	}
}

// SetOutput directs puts output to w.
func (in *Interp) SetOutput(w io.Writer) {
	if w == nil {
		w = io.Discard
	}
	in.out = w
}

// SetStepLimit bounds the number of commands a single top-level Eval may
// execute (0 disables the bound). It guards experiments against runaway
// scripts such as `while {1} {}`.
func (in *Interp) SetStepLimit(n int) { in.maxSteps = n }

// StepLimitHit reports whether the most recent top-level Eval/Run failed
// because the step limit was exhausted — letting callers classify the
// error as a resource-budget trip rather than a script bug without
// matching on error text.
func (in *Interp) StepLimitHit() bool { return in.limitHit }

// Steps reports the commands executed by the most recent top-level
// Eval/Run. Snapshot-based evaluation uses it to charge a scenario's
// shared prefix against the suffix's step budget, so the limit trips at
// the same command whether a run replays the whole scenario or resumes
// from a snapshot.
func (in *Interp) Steps() int { return in.steps }

// interpState is the script-visible mutable state of an interpreter:
// global variables and script-defined procs. Host commands, the table of
// compiled bodies, and scratch space are excluded — commands are installed
// by the host once, and the table is semantically transparent.
type interpState struct {
	slots    []gslot
	overflow map[string]string
	procs    map[string]*proc
}

// SnapshotState captures global variables and proc definitions for the
// snapshot registry.
func (in *Interp) SnapshotState() any {
	st := &interpState{
		slots: append([]gslot(nil), in.gslots...),
		procs: make(map[string]*proc, len(in.procs)),
	}
	if in.goverflow != nil {
		st.overflow = make(map[string]string, len(in.goverflow))
		for k, v := range in.goverflow {
			st.overflow[k] = v
		}
	}
	for k, v := range in.procs {
		st.procs[k] = v
	}
	return st
}

// RestoreState rewinds globals and procs to a captured state. The slot
// table is never shrunk — compiled VM programs hold slot indices — so
// slots interned after the capture are cleared rather than removed; an
// interned-but-unset slot reads exactly like a never-mentioned variable.
func (in *Interp) RestoreState(state any) {
	st := state.(*interpState)
	clear(in.gslots[copy(in.gslots, st.slots):])
	if st.overflow == nil {
		in.goverflow = nil
	} else {
		in.goverflow = make(map[string]string, len(st.overflow))
		for k, v := range st.overflow {
			in.goverflow[k] = v
		}
	}
	in.procs = make(map[string]*proc, len(st.procs))
	for k, v := range st.procs {
		in.procs[k] = v
	}
	in.cmdEpoch++
}

// Register installs (or replaces) a host command. It panics on a nil
// command and on a special form's name, which no host may rebind.
func (in *Interp) Register(name string, cmd Command) {
	if cmd == nil {
		panic("script: nil command for " + name)
	}
	in.bind(name, binding{cmd: cmd})
}

// RegisterTyped installs (or replaces) a host command whose result is a
// Value. It panics where Register does.
func (in *Interp) RegisterTyped(name string, cmd TypedCommand) {
	if cmd == nil {
		panic("script: nil command for " + name)
	}
	in.bind(name, binding{typed: cmd})
}

func (in *Interp) bind(name string, b binding) {
	mustNotBeSpecialForm(name)
	in.commands[name] = b
	in.cmdEpoch++
}

// lookup resolves a host command name: what this interpreter registered
// first, the process-wide builtin table otherwise. The builtins are
// never copied into an interpreter — a world builds hundreds, and filling
// a map with the same thirty-six entries each time was the largest map
// cost a fuzz round had left.
func (in *Interp) lookup(name string) binding {
	if b, ok := in.commands[name]; ok {
		return b
	}
	return binding{cmd: builtins[name]}
}

// defineProc installs a script-defined procedure. Procs shadow host
// commands, so the epoch must track definitions.
func (in *Interp) defineProc(pr *proc) {
	in.procs[pr.name] = pr
	in.cmdEpoch++
}

// isSpecialForm reports whether name is one the compiler inlines. These
// names are keywords: proc refuses them and Register panics, so a
// compiled special form always means the builtin and needs no guard.
func isSpecialForm(name string) bool {
	switch name {
	case "if", "while", "foreach", "set", "incr", "expr", "return", "break", "continue":
		return true
	}
	return false
}

func mustNotBeSpecialForm(name string) {
	if isSpecialForm(name) {
		panic(fmt.Sprintf("script: can't redefine special form %q", name))
	}
}

// CommandNames lists registered host commands and procs (unsorted).
func (in *Interp) CommandNames() []string {
	names := make([]string, 0, len(builtins)+len(in.commands)+len(in.procs))
	for n := range builtins {
		if _, own := in.commands[n]; !own {
			names = append(names, n)
		}
	}
	for n := range in.commands {
		names = append(names, n)
	}
	for n := range in.procs {
		names = append(names, n)
	}
	return names
}

// SetVar sets a variable in the current frame (the global frame between
// Eval calls). It is how host code passes values like `cur_msg` to scripts.
func (in *Interp) SetVar(name, value string) {
	if f := in.curFrame(); f != nil && !f.globals[name] {
		f.vars[name] = value
		return
	}
	in.gset(name, value)
}

// SetGlobal sets a variable in the global frame regardless of call depth.
func (in *Interp) SetGlobal(name, value string) {
	in.gset(name, value)
}

// Var reads a variable from the current frame (following `global` links).
func (in *Interp) Var(name string) (string, bool) {
	if f := in.curFrame(); f != nil && !f.globals[name] {
		v, ok := f.vars[name]
		return v, ok
	}
	return in.gget(name)
}

// Global reads a variable from the global frame.
func (in *Interp) Global(name string) (string, bool) {
	return in.gget(name)
}

// UnsetVar removes a variable from the current frame.
func (in *Interp) UnsetVar(name string) {
	if f := in.curFrame(); f != nil && !f.globals[name] {
		delete(f.vars, name)
		return
	}
	in.gunset(name)
}

// curFrame returns the innermost proc frame, or nil at global scope.
func (in *Interp) curFrame() *frame {
	if n := len(in.frames); n > 0 {
		return in.frames[n-1]
	}
	return nil
}

// gslotIndex interns name in the global slot table, returning -1 when the
// table is full (the caller then uses the overflow map).
func (in *Interp) gslotIndex(name string) int {
	if i, ok := in.gslotOf[name]; ok {
		return i
	}
	if len(in.gslots) >= maxGlobalSlots {
		return -1
	}
	i := len(in.gslots)
	in.gslots = append(in.gslots, gslot{})
	in.gslotOf[name] = i
	return i
}

func (in *Interp) gset(name, value string) {
	if i := in.gslotIndex(name); i >= 0 {
		in.gslots[i] = gslot{v: Str(value), set: true}
		return
	}
	if in.goverflow == nil {
		in.goverflow = make(map[string]string)
	}
	in.goverflow[name] = value
}

// gget reads a global as text, which a slot holding a computed number
// renders here, once.
func (in *Interp) gget(name string) (string, bool) {
	if i, ok := in.gslotOf[name]; ok {
		s := &in.gslots[i]
		return s.v.text(), s.set
	}
	v, ok := in.goverflow[name]
	return v, ok
}

func (in *Interp) gunset(name string) {
	if i, ok := in.gslotOf[name]; ok {
		in.gslots[i] = gslot{}
		return
	}
	delete(in.goverflow, name)
}

// Eval parses (once per text) and runs src at the top level, resetting the
// step budget. It returns the result of the last command.
func (in *Interp) Eval(src string) (string, error) {
	in.steps = 0
	in.limitHit = false
	s, err := in.compile(src)
	if err != nil {
		return "", err
	}
	return in.Run(s)
}

// topLevel ends a top-level evaluation: a return is permitted there, a
// break or continue with no loop around it is an error.
func topLevel(res string, err error) (string, error) {
	if err == nil {
		return res, nil
	}
	var fl *flow
	if errors.As(err, &fl) {
		if fl.code == flowReturn {
			return fl.value, nil
		}
		return "", &EvalError{Msg: fl.Error()}
	}
	return res, err
}

// Run executes a pre-parsed script at the top level.
func (in *Interp) Run(s *Script) (string, error) {
	in.steps = 0
	in.limitHit = false
	return topLevel(in.runAny(s))
}

// runAny executes a parsed script in the current frame on the VM, or on the
// tree-walker when a test set tree. Every internal evaluation site
// (control-flow bodies, proc bodies, eval, [command] operands and
// substitutions in expr) funnels through here, so the one flag flips the
// whole interpreter, and no shipped binary ever tree-walks a command.
func (in *Interp) runAny(s *Script) (string, error) {
	if in.tree {
		return in.run(s)
	}
	v, err := in.exec(in.program(s))
	return v.String(), err
}

// body is what one source text compiled to, each part filled the first
// time it is asked for: its parse, its program per frame mode (a global
// run resolves variables to slots, a proc run to frame maps), and its
// expr tree.
type body struct {
	script *Script
	progs  [2]*Program // by progMode
	expr   exprNode
}

// maxBodies bounds the table, which a script that evaluates texts it builds
// would otherwise grow without end. At the bound the table starts over
// empty; what it handed out (a proc's script, a Prepared program) stays.
const maxBodies = 4096

// bodyOf returns src's body, entering an empty one if the table has none.
func (in *Interp) bodyOf(src string) *body {
	b := in.bodies[src]
	if b == nil {
		if in.bodies == nil || len(in.bodies) >= maxBodies {
			in.bodies = make(map[string]*body)
		}
		b = &body{}
		in.bodies[src] = b
	}
	return b
}

// program returns the VM program for s in the current frame's mode.
func (in *Interp) program(s *Script) *Program {
	if len(in.frames) > 0 {
		return in.programFor(s, modeProc)
	}
	return in.programFor(s, modeGlobal)
}

// programFor returns s's program for mode, compiling it the first time
// s's text runs in that mode. A Program never needs revalidating: what can
// change after compilation (command bindings) is checked at run time by
// its inline caches, and the special forms it inlined cannot be rebound.
func (in *Interp) programFor(s *Script, mode progMode) *Program {
	b := in.bodyOf(s.src)
	if b.progs[mode] == nil {
		statCompiles.Add(1)
		b.progs[mode] = compileProgram(in, s, mode)
	}
	return b.progs[mode]
}

// Prepared binds a parsed script to its compiled program so per-message
// execution looks nothing up.
type Prepared struct {
	in *Interp
	s  *Script
	p  *Program
}

// Prepare compiles s for the global scope and returns a handle whose Run
// is equivalent to Run(s).
func (in *Interp) Prepare(s *Script) *Prepared {
	return &Prepared{in: in, s: s, p: in.programFor(s, modeGlobal)}
}

// Run executes the prepared script at the top level, like Interp.Run, but
// hands the result over as it stands: a filter run discards it, and a
// script that ends in `incr n` should not pay for the digits.
func (pr *Prepared) Run() (Value, error) {
	in := pr.in
	if in.tree {
		res, err := in.Run(pr.s)
		return Str(res), err
	}
	in.steps = 0
	in.limitHit = false
	v, err := in.exec(pr.p)
	if err != nil {
		res, err := topLevel("", err)
		return Str(res), err
	}
	return v, nil
}

// compile parses src the first time it is asked for, so a body that a
// command the VM does not inline (`for`, `eval`) runs again and again
// parses once. A text that fails to parse is not kept.
func (in *Interp) compile(src string) (*Script, error) {
	if b := in.bodies[src]; b != nil && b.script != nil {
		return b.script, nil
	}
	s, err := Parse(src)
	if err == nil {
		in.bodyOf(src).script = s
	}
	return s, err
}

// run tree-walks a parsed script in the current frame: the reference
// semantics the VM is diffed against, reached only through runAny.
func (in *Interp) run(s *Script) (string, error) {
	var result string
	for i := range s.cmds {
		cmd := &s.cmds[i]
		if in.overBudget() {
			return "", in.stepLimitErr(int32(cmd.line))
		}
		words, err := in.expandCommand(cmd)
		if err != nil {
			return "", err
		}
		if len(words) == 0 {
			in.putWords(words)
			continue
		}
		result, err = in.invoke(words, cmd.line)
		in.putWords(words)
		if err != nil {
			return "", err
		}
	}
	return result, nil
}

// expandCommand substitutes each word of cmd into its final string form.
// The returned slice comes from the interpreter's scratch pool; run returns
// it via putWords after invoke. Commands must not retain it past the call —
// the Command contract already says args are only valid for the call.
func (in *Interp) expandCommand(cmd *command) ([]string, error) {
	words := in.getWords(len(cmd.words))
	for i := range cmd.words {
		w, err := in.expandWord(&cmd.words[i])
		if err != nil {
			in.putWords(words)
			return nil, err
		}
		words = append(words, w)
	}
	return words, nil
}

// getWords pops a scratch buffer from the pool (or allocates one). Nested
// evaluation ([cmd] substitution, proc bodies) pops deeper buffers while
// outer ones are in use, so stack discipline keeps reuse safe.
func (in *Interp) getWords(capHint int) []string {
	if n := len(in.wordBufs); n > 0 {
		buf := in.wordBufs[n-1]
		in.wordBufs = in.wordBufs[:n-1]
		return buf[:0]
	}
	if capHint < 8 {
		capHint = 8
	}
	return make([]string, 0, capHint)
}

func (in *Interp) putWords(buf []string) {
	if cap(buf) == 0 || len(in.wordBufs) >= 32 {
		return
	}
	clear(buf) // release string references; a pooled buffer is empty past its length
	in.wordBufs = append(in.wordBufs, buf[:0])
}

func (in *Interp) expandWord(w *word) (string, error) {
	if len(w.segs) == 1 {
		seg := &w.segs[0]
		if seg.kind == segLiteral {
			return seg.text, nil
		}
	}
	var b strings.Builder
	for i := range w.segs {
		seg := &w.segs[i]
		switch seg.kind {
		case segLiteral:
			b.WriteString(seg.text)
		case segVar:
			v, ok := in.Var(seg.text)
			if !ok {
				return "", &EvalError{Msg: fmt.Sprintf("can't read %q: no such variable", seg.text), Line: w.line}
			}
			b.WriteString(v)
		case segCmd:
			in.depth++
			if in.depth > maxDepth {
				in.depth--
				return "", &EvalError{Msg: "too many nested evaluations", Line: w.line}
			}
			res, err := in.runAny(seg.body)
			in.depth--
			if err != nil {
				return "", err
			}
			b.WriteString(res)
		}
	}
	return b.String(), nil
}

// invoke dispatches an expanded command by name — the tree-walker's call,
// which sees the result as text.
func (in *Interp) invoke(words []string, line int) (string, error) {
	name := words[0]
	v, err := in.call(name, in.procs[name], in.lookup(name), words[1:], line)
	return v.String(), err
}

// call runs what a command name resolved to — procs first, then host
// commands — and is the only place either is invoked: the tree-walker, the
// VM's cached and dynamic call sites all come through here, so a result is
// typed, and an error wrapped, the same way whoever asked.
func (in *Interp) call(name string, pr *proc, b binding, args []string, line int) (Value, error) {
	if pr != nil {
		res, err := in.callProc(pr, args, line)
		return Str(res), err
	}
	var v Value
	var err error
	switch {
	case b.typed != nil:
		v, err = b.typed(in, args)
	case b.cmd != nil:
		var res string
		res, err = b.cmd(in, args)
		v = Str(res)
	default:
		err = fmt.Errorf("invalid command name %q", name)
	}
	if err != nil {
		return Value{}, wrapCmdErr(err, name, line)
	}
	return v, nil
}

// wrapCmdErr attributes a host command's error to the command: flow and
// already-annotated errors pass through, anything else becomes an EvalError
// naming it.
func wrapCmdErr(err error, name string, line int) error {
	var fl *flow
	var ev *EvalError
	var pe *ParseError
	if errors.As(err, &fl) || errors.As(err, &ev) || errors.As(err, &pe) {
		return err
	}
	return &EvalError{Cmd: name, Line: line, Msg: err.Error()}
}

// callProc binds arguments and runs the proc body in a fresh frame.
func (in *Interp) callProc(pr *proc, args []string, line int) (string, error) {
	in.depth++
	defer func() { in.depth-- }()
	if in.depth > maxDepth {
		return "", &EvalError{Cmd: pr.name, Line: line, Msg: "too many nested procedure calls"}
	}
	f := newFrame()
	nFixed := len(pr.params)
	if pr.varargs {
		nFixed--
	}
	for i, p := range pr.params[:nFixed] {
		switch {
		case i < len(args):
			f.vars[p.name] = args[i]
		case p.hasDefault:
			f.vars[p.name] = p.defaultVal
		default:
			return "", &EvalError{Cmd: pr.name, Line: line, Msg: WrongArgs(procUsage(pr)).Error()}
		}
	}
	if pr.varargs {
		f.vars["args"] = ListJoin(args[min(nFixed, len(args)):])
	} else if len(args) > len(pr.params) {
		return "", &EvalError{Cmd: pr.name, Line: line, Msg: WrongArgs(procUsage(pr)).Error()}
	}
	in.frames = append(in.frames, f)
	defer func() { in.frames = in.frames[:len(in.frames)-1] }()
	res, err := in.runAny(pr.body)
	var fl *flow
	if errors.As(err, &fl) && fl.code == flowReturn {
		return fl.value, nil
	}
	return res, err
}

func procUsage(pr *proc) string {
	parts := []string{pr.name}
	for _, p := range pr.params {
		if p.hasDefault {
			parts = append(parts, "?"+p.name+"?")
		} else {
			parts = append(parts, p.name)
		}
	}
	return strings.Join(parts, " ")
}
