package script

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
)

// This file is the register VM: the instruction set, the compiled Program
// representation, and the exec loop. compile.go lowers parsed scripts into
// Programs; the tree-walker in interp.go remains the reference
// implementation the VM is differentially tested against.
//
// Execution model: an accumulator holds the last command result (the
// tree-walker's `result`) and one operand stack builds command words and
// evaluates expr operands; both hold Values, as the global slots do, so a
// number moves between a header field, a variable and an operator without
// being rendered or parsed on the way (value.go). Control flow
// (if/while/foreach and expr's &&/||/?:) is jumps. Command
// dispatch sites carry inline caches validated against the interpreter's
// cmdEpoch; compiled special forms need no check, since their names are
// keywords nothing can rebind.

type opcode uint8

const (
	// Statement plumbing.
	opStep      opcode = iota // count one command against the step budget; line = command line
	opStepWhile               // count one while-loop iteration; c = wrap
	opClearAcc                // acc = ""
	opJump                    // pc = a

	// Command-word assembly.
	opPushConst    // push consts[a]
	opPushSlot     // push global slot a (b = name const, for the error); line = word line
	opPushVarNamed // push in.Var(consts[a]); line = word line
	opConcat       // run concat plan a over the top b dynamic parts
	opEnterClear   // enter an inlined [command] block: in.depth++ with limit check, acc = ""; line = word line
	opLeavePush    // leave it: in.depth--, push acc (its result)

	// Dispatch.
	opInvoke    // call invoke site a with the top argc stack entries
	opInvokeDyn // like opInvoke but the name is on the stack below a args

	// Variables (set/incr special forms).
	opSetSlot      // pop value into global slot a; acc = value
	opGetSlot      // acc = global slot a (b = name const, c = wrap)
	opSetNamed     // pop value into in.SetVar(consts[a]); acc = value
	opGetNamed     // acc = in.Var(consts[a]) (c = wrap)
	opIncrSlot     // slot a += deltas[b]; c = wrap
	opIncrSlotDyn  // slot a += pop(); c = wrap
	opIncrNamed    // var consts[a] += deltas[b]; c = wrap
	opIncrNamedDyn // var consts[a] += pop(); c = wrap

	// Control flow.
	opBranchFalse    // pop value; if !truth jump a; c = wrap for truth errors
	opReturnNil      // raise flowReturn ""
	opReturnVal      // raise flowReturn pop()
	opFlowBreak      // raise break (no statically known enclosing loop)
	opFlowContinue   // raise continue
	opForeachInit    // pop items list, split, push iterator state; a = fe index, c = wrap
	opForeachInitPre // push iterator over fes[a].preSplit
	opForeachStep    // assign vars and advance, or jump b when exhausted; a = fe index
	opForeachDone    // pop iterator state; acc = ""

	// Expr operands and operators.
	opVConst     // push vconsts[a]
	opVSlot      // push global slot a coerced (b = name const, c = wrap)
	opVNamed     // push coerce(in.Var(consts[a])) (c = wrap)
	opVFromAcc   // push coerce(acc)  — [command] operand result
	opVFromStack // retag the top entry as text — "quoted" operand
	opVBinop     // binary operator a over top two values; c = wrap
	opVUnary     // unary operator a over top value; c = wrap
	opVTruth     // replace top with boolv(truth(top)); c = wrap — the right operand of &&/||, unless a comparison
	opVAnd       // pop l; if !truth push 0 and jump a; c = wrap
	opVOr        // pop l; if truth push 1 and jump a; c = wrap
	opVCondJump  // pop cond; if !truth jump a; c = wrap
	opVCall      // math function call site a; c = wrap
	opVResult    // acc = pop()  — result of a compiled expr command

	// The seven superinstructions, emitted only by the fusion pass
	// (optimize.go) — lowering never produces them. Each is an exact
	// macro-expansion of the unfused sequence it replaces: identical stack
	// states, step accounting, and errors at every observable point, so the
	// parity harness covers them through the ordinary differential tests.
	opStepInvoke   // [opClearAcc]+opStep+pushes+opInvoke[+opVFromAcc]: a = fused index
	opConstBinop   // opVConst+opVBinop: pop x, push binop b(x, vconsts[a]); c = wrap
	opCmpConstBr   // opVConst+opVBinop+opBranchFalse: a = fused index, c = wrap
	opSlotBinop    // opVSlot+opVConst+opVBinop: a = fused index, c = wrap
	opStepIncrSlot // [opClearAcc]+opStep+opIncrSlot: a = fused index, c = wrap
	opNotBr        // opVUnary(!)+opBranchFalse: pop x, jump a when x truthy; c = wrap

	// A second-order superinstruction: an invoke fused with the comparison
	// consuming it.
	opInvokeCmpBr // opStepInvoke+eq/ne vconst+opBranchFalse: a = fused index
)

// Fused-argument source kinds for opStepInvoke.
const (
	argConst uint8 = iota // consts[a]
	argSlot               // global slot a (b = name const for the error)
	argNamed              // in.Var(consts[a])
)

// Fused-op flags.
const (
	fuseClearAcc   uint8 = 1 << 0 // acc = "" before the step (cmdNode shape)
	fusePushCoerce uint8 = 1 << 1 // push coerce(acc) after the invoke (cmdNode shape)
	// opInvokeCmpBr: cstr is canonical (coerce(cstr).String() == cstr), so
	// raw equality of the invoke result against cstr proves the coerced
	// comparison true without parsing — the hot-path shortcut for
	// `if {[msg_type m] eq "TYPE"}`.
	fuseRawEq uint8 = 1 << 2
	// opStepInvoke: the site is `info exists <literal>` — when the site
	// still binds the builtin info command, the VM answers from the
	// variable table directly (slot when interned) instead of pushing
	// arguments and dispatching.
	fuseInfoExists uint8 = 1 << 3
)

// argSrc is one fused argument push for opStepInvoke.
type argSrc struct {
	kind uint8
	a, b int32
	line int32
}

// fusedOp is the operand record for superinstructions whose unfused
// sequence carries more operands than one instr can hold. Indexed by
// instr.a.
type fusedOp struct {
	site   int32    // opStepInvoke: invoke site index
	args   []argSrc // opStepInvoke: argument pushes, in order
	flags  uint8
	slot   int32 // opSlotBinop/opStepIncrSlot: global slot
	nameC  int32 // name const for the unset-variable error
	vconst int32 // opConstBinop family: vconsts index of the fused operand
	binop  int32
	target int32  // branch target (remapped by later passes)
	delta  int64  // opStepIncrSlot: literal increment
	cstr   string // opInvokeCmpBr: vconsts[vconst].String(), precomputed
}

// instr is one VM instruction. Operand meaning is per-opcode; by
// convention a holds the main operand or jump target, b a secondary
// operand, and c the wrap index (prog.wraps) applied to raw errors.
type instr struct {
	op      opcode
	a, b, c int32
	line    int32
}

// wrapCtx reproduces invoke's error wrapping for errors raised inside
// compiled special forms: raw errors become EvalError{Cmd, Line} exactly
// as if the builtin command had returned them.
type wrapCtx struct {
	name string
	line int32
}

// invokeSite is a command call site with a monomorphic inline cache. The
// cache (pr/cmd) is valid while epoch matches the interpreter's cmdEpoch;
// any Register/Unregister/proc definition invalidates every site at once.
type invokeSite struct {
	name   string
	argc   int32
	epoch  uint64 // 0 = never resolved (cmdEpoch starts above 0)
	pr     *proc
	b      binding
	isInfo bool // b is the builtin info command (fuseInfoExists fast path)
}

// infoBuiltinPtr identifies the builtin info command by code pointer;
// revalidate compares against it so a shadowing Register("info", ...) or
// proc turns the fuseInfoExists fast path off at the site.
var infoBuiltinPtr = reflect.ValueOf(Command(cmdInfo)).Pointer()

// revalidate refreshes the site's monomorphic cache after a command-epoch
// change, retagging whether the site still binds the builtin info command.
func (site *invokeSite) revalidate(in *Interp) {
	site.pr = in.procs[site.name]
	site.b = binding{}
	site.isInfo = false
	if site.pr == nil {
		site.b = in.lookup(site.name)
		if site.b.cmd != nil && site.name == "info" {
			site.isInfo = reflect.ValueOf(site.b.cmd).Pointer() == infoBuiltinPtr
		}
	}
	site.epoch = in.cmdEpoch
}

// feInfo is the static half of a foreach loop: the loop variables (global
// slots when all intern, names otherwise) and, for literal lists, the
// pre-split items.
type feInfo struct {
	slots    []int32 // nil → use names
	names    []string
	preSplit []Value // non-nil for opForeachInitPre; numbers already parsed
	nvars    int32
}

// feState is the runtime half: the items being iterated and the cursor.
type feState struct {
	items []Value
	pos   int
}

// concatPlan rebuilds a multi-segment word: literal parts interleaved with
// dynamic parts popped from the stack.
type concatPlan struct {
	parts []concatPart
}

type concatPart struct {
	lit string // literal text when dyn is false
	dyn bool
}

// callSite is an expr math-function call site.
type callSite struct {
	name string
	argc int32
}

// loopScope lets the VM route a dynamically raised break/continue (from a
// proc body, eval, or [command] operand) to the innermost enclosing
// compiled loop, restoring the stacks to their loop-entry depths first —
// the jump equivalent of the error unwinding the tree-walker gets for
// free from Go's call stack.
type loopScope struct {
	start, end      int32 // pc range of the loop body
	breakPC, contPC int32
	depth           int32 // stack depth at loop entry, relative to exec base
	feDepth         int32
	nestDepth       int32 // in.depth relative to exec entry
}

// Program is a compiled script plus its side tables. Programs are owned by
// one interpreter (inline caches mutate at runtime), which keeps each in
// its text's body, one per frame mode (Interp.bodies).
type Program struct {
	ins     []instr
	consts  []string
	vconsts []Value
	plans   []concatPlan
	invokes []invokeSite
	wraps   []wrapCtx
	fes     []feInfo
	deltas  []int64
	calls   []callSite
	loops   []loopScope
	fused   []fusedOp // superinstruction operands

	// Static bounds on how far above its entry bases a run reaches into the
	// shared stacks.
	maxStack, maxFes int32
}

// loopAt returns the innermost loop whose body covers pc, or nil.
func (p *Program) loopAt(pc int32) *loopScope {
	var best *loopScope
	for i := range p.loops {
		lp := &p.loops[i]
		if lp.start <= pc && pc < lp.end {
			if best == nil || lp.end-lp.start < best.end-best.start {
				best = lp
			}
		}
	}
	return best
}

// overBudget counts one step and reports whether it was one too many.
func (in *Interp) overBudget() bool {
	if in.maxSteps <= 0 {
		return false
	}
	in.steps++
	return in.steps > in.maxSteps
}

func (in *Interp) stepLimitErr(line int32) error {
	in.limitHit = true
	return &EvalError{Msg: fmt.Sprintf("step limit %d exceeded", in.maxSteps), Line: int(line)}
}

func unsetMsg(name string) string {
	return fmt.Sprintf("can't read %q: no such variable", name)
}

// invokeStack calls a command with the top argc stack entries, rendered,
// as its arguments, and pops them.
func (in *Interp) invokeStack(name string, pr *proc, b binding, argc int, line int32) (Value, error) {
	base := len(in.vmStack) - argc
	words := in.getWords(argc)
	for k := base; k < base+argc; k++ {
		words = append(words, in.vmStack[k].text())
	}
	in.vmStack = in.vmStack[:base]
	v, err := in.call(name, pr, b, words, int(line))
	in.putWords(words)
	return v, err
}

// exec runs a compiled program in the current frame. It is reentrant:
// nested evaluations (proc bodies, eval, control-flow fallbacks) run their
// own exec above this one's saved stack bases.
func (in *Interp) exec(p *Program) (Value, error) {
	base := len(in.vmStack)
	feBase := len(in.vmFes)
	depthBase := in.depth
	defer func() {
		// Zero what this run reached above the entry bases — including
		// entries beyond the truncated length that transiently held values
		// — so the shared stacks never retain script strings.
		clear(in.vmStack[base:min(base+int(p.maxStack), cap(in.vmStack))])
		in.vmStack = in.vmStack[:base]
		clear(in.vmFes[feBase:min(feBase+int(p.maxFes), cap(in.vmFes))])
		in.vmFes = in.vmFes[:feBase]
		in.depth = depthBase
	}()

	ins := p.ins
	var acc Value
	var pc int32
	for int(pc) < len(ins) {
		i := &ins[pc]
		var err error
		switch i.op {
		case opStep:
			if in.overBudget() {
				err = in.stepLimitErr(i.line)
			}

		case opStepWhile:
			if in.overBudget() {
				in.limitHit = true
				err = fmt.Errorf("step limit %d exceeded in while loop", in.maxSteps)
			}

		case opClearAcc:
			acc = Value{}

		case opJump:
			pc = i.a
			continue

		case opPushConst:
			in.vmStack = append(in.vmStack, Str(p.consts[i.a]))

		case opPushSlot:
			s := &in.gslots[i.a]
			if !s.set {
				err = &EvalError{Msg: unsetMsg(p.consts[i.b]), Line: int(i.line)}
				break
			}
			in.vmStack = append(in.vmStack, s.v)

		case opPushVarNamed:
			v, ok := in.Var(p.consts[i.a])
			if !ok {
				err = &EvalError{Msg: unsetMsg(p.consts[i.a]), Line: int(i.line)}
				break
			}
			in.vmStack = append(in.vmStack, Str(v))

		case opConcat:
			base := len(in.vmStack) - int(i.b)
			dyn := in.vmStack[base:]
			buf := in.vmBuf[:0]
			di := 0
			for _, part := range p.plans[i.a].parts {
				if part.dyn {
					buf = dyn[di].appendText(buf)
					di++
				} else {
					buf = append(buf, part.lit...)
				}
			}
			s := string(buf)
			in.vmBuf = buf[:0]
			in.vmStack = append(in.vmStack[:base], Str(s))

		case opEnterClear:
			in.depth++
			if in.depth > maxDepth {
				in.depth--
				err = &EvalError{Msg: "too many nested evaluations", Line: int(i.line)}
				break
			}
			acc = Value{}

		case opLeavePush:
			in.depth--
			in.vmStack = append(in.vmStack, acc)

		case opInvoke:
			site := &p.invokes[i.a]
			if site.epoch != in.cmdEpoch {
				site.revalidate(in)
			}
			acc, err = in.invokeStack(site.name, site.pr, site.b, int(site.argc), i.line)

		case opInvokeDyn:
			n := len(in.vmStack) - int(i.a) - 1
			name := in.vmStack[n].text()
			acc, err = in.invokeStack(name, in.procs[name], in.lookup(name), int(i.a), i.line)
			in.vmStack = in.vmStack[:n]

		case opSetSlot:
			n := len(in.vmStack) - 1
			acc = in.vmStack[n]
			in.vmStack = in.vmStack[:n]
			in.gslots[i.a] = gslot{v: acc, set: true}

		case opGetSlot:
			s := &in.gslots[i.a]
			if !s.set {
				err = errors.New(unsetMsg(p.consts[i.b]))
				break
			}
			acc = s.v

		case opSetNamed:
			n := len(in.vmStack) - 1
			acc = in.vmStack[n]
			in.vmStack = in.vmStack[:n]
			in.SetVar(p.consts[i.a], acc.text())

		case opGetNamed:
			v, ok := in.Var(p.consts[i.a])
			if !ok {
				err = errors.New(unsetMsg(p.consts[i.a]))
				break
			}
			acc = Str(v)

		case opIncrSlot:
			acc, err = in.incrSlot(i.a, p.deltas[i.b])

		case opIncrNamed:
			acc, err = in.incrNamed(p.consts[i.a], p.deltas[i.b])

		case opIncrSlotDyn, opIncrNamedDyn:
			n := len(in.vmStack) - 1
			d, ok := in.vmStack[n].n, in.vmStack[n].kind == intVal
			if !ok {
				// cmdIncr's reading of its increment: no surrounding space.
				t := in.vmStack[n].text()
				if d, ok = parseInt(t); !ok {
					err = fmt.Errorf("expected integer but got %q", t)
				}
			}
			in.vmStack = in.vmStack[:n]
			switch {
			case err != nil:
			case i.op == opIncrSlotDyn:
				acc, err = in.incrSlot(i.a, d)
			default:
				acc, err = in.incrNamed(p.consts[i.a], d)
			}

		case opBranchFalse, opVCondJump:
			n := len(in.vmStack) - 1
			var b bool
			b, err = in.vmStack[n].truth()
			in.vmStack = in.vmStack[:n]
			if err != nil {
				break
			}
			if !b {
				pc = i.a
				continue
			}

		case opReturnNil:
			err = &flow{code: flowReturn}

		case opReturnVal:
			n := len(in.vmStack) - 1
			err = &flow{code: flowReturn, value: in.vmStack[n].text()}
			in.vmStack = in.vmStack[:n]

		case opFlowBreak:
			err = flowBreakErr

		case opFlowContinue:
			err = flowContinueErr

		case opForeachInit:
			n := len(in.vmStack) - 1
			var elems []string
			elems, err = ListSplit(in.vmStack[n].text())
			in.vmStack = in.vmStack[:n]
			if err != nil {
				break
			}
			in.vmFes = append(in.vmFes, feState{items: strValues(elems)})

		case opForeachInitPre:
			in.vmFes = append(in.vmFes, feState{items: p.fes[i.a].preSplit})

		case opForeachStep:
			fe := &in.vmFes[len(in.vmFes)-1]
			if fe.pos >= len(fe.items) {
				pc = i.b
				continue
			}
			inf := &p.fes[i.a]
			for j := 0; j < int(inf.nvars); j++ {
				var v Value
				if fe.pos+j < len(fe.items) {
					v = fe.items[fe.pos+j]
				}
				if inf.slots != nil {
					in.gslots[inf.slots[j]] = gslot{v: v, set: true}
				} else {
					in.SetVar(inf.names[j], v.s)
				}
			}
			fe.pos += int(inf.nvars)

		case opForeachDone:
			n := len(in.vmFes) - 1
			in.vmFes[n] = feState{}
			in.vmFes = in.vmFes[:n]
			acc = Value{}

		case opStepInvoke, opInvokeCmpBr:
			f := &p.fused[i.a]
			if f.flags&fuseClearAcc != 0 {
				acc = Value{}
			}
			if in.overBudget() {
				err = in.stepLimitErr(i.line)
				break
			}
			site := &p.invokes[f.site]
			if site.epoch != in.cmdEpoch {
				site.revalidate(in)
			}
			if f.flags&fuseInfoExists != 0 && site.isInfo {
				// `info exists <literal>` on the builtin: both arguments
				// are constants and the command cannot error, so skip the
				// dispatch and answer from the variable table — the
				// interned slot when the script runs at global scope.
				name := p.consts[f.nameC]
				var ok bool
				if in.curFrame() != nil {
					_, ok = in.Var(name)
				} else if f.slot >= 0 {
					ok = in.gslots[f.slot].set
				} else {
					_, ok = in.gget(name)
				}
				acc = boolv(ok)
			} else {
				// The arguments are constants and variables: they go
				// straight into the command's word list, never onto the
				// stack. A slot holding a computed number is rendered in
				// place, so the next call finds the text.
				words := in.getWords(len(f.args))
				for k := range f.args {
					as := &f.args[k]
					switch as.kind {
					case argConst:
						words = append(words, p.consts[as.a])
						continue
					case argSlot:
						if s := &in.gslots[as.a]; s.set {
							words = append(words, s.v.text())
							continue
						}
						err = &EvalError{Msg: unsetMsg(p.consts[as.b]), Line: int(as.line)}
					case argNamed:
						if v, ok := in.Var(p.consts[as.a]); ok {
							words = append(words, v)
							continue
						}
						err = &EvalError{Msg: unsetMsg(p.consts[as.a]), Line: int(as.line)}
					}
					break
				}
				if err == nil {
					acc, err = in.call(site.name, site.pr, site.b, words, int(i.line))
				}
				in.putWords(words)
				if err != nil {
					break
				}
			}
			if i.op == opInvokeCmpBr {
				// eq/ne against a canonical constant: raw equality proves
				// the coerced comparison; only a raw mismatch needs the
				// numeric-normalizing parse.
				eq := f.flags&fuseRawEq != 0 && acc.kind == strVal && acc.s == f.cstr
				if !eq {
					c := acc.coerced()
					eq = c.String() == f.cstr
				}
				if eq == (f.binop == vbNeStr) {
					pc = f.target
					continue
				}
			} else if f.flags&fusePushCoerce != 0 {
				in.vmStack = append(in.vmStack, acc.coerced())
			}

		case opConstBinop:
			x := &in.vmStack[len(in.vmStack)-1]
			*x, err = binop(i.b, x, &p.vconsts[i.a])

		case opVBinop:
			n := len(in.vmStack) - 2
			in.vmStack[n], err = binop(i.a, &in.vmStack[n], &in.vmStack[n+1])
			in.vmStack = in.vmStack[:n+1]

		case opCmpConstBr:
			f := &p.fused[i.a]
			n := len(in.vmStack) - 1
			var v Value
			v, err = binop(f.binop, &in.vmStack[n], &p.vconsts[f.vconst])
			in.vmStack = in.vmStack[:n]
			if err != nil {
				break
			}
			var b bool
			if b, err = v.truth(); err != nil {
				break
			}
			if !b {
				pc = f.target
				continue
			}

		case opSlotBinop:
			f := &p.fused[i.a]
			s := &in.gslots[f.slot]
			if !s.set {
				err = errors.New(unsetMsg(p.consts[f.nameC]))
				break
			}
			av := s.v.coerced()
			var v Value
			if v, err = binop(f.binop, &av, &p.vconsts[f.vconst]); err == nil {
				in.vmStack = append(in.vmStack, v)
			}

		case opStepIncrSlot:
			f := &p.fused[i.a]
			if f.flags&fuseClearAcc != 0 {
				acc = Value{}
			}
			if in.overBudget() {
				err = in.stepLimitErr(i.line)
				break
			}
			acc, err = in.incrSlot(f.slot, f.delta)

		case opNotBr:
			n := len(in.vmStack) - 1
			var b bool
			b, err = in.vmStack[n].truth()
			in.vmStack = in.vmStack[:n]
			if err != nil {
				break
			}
			if b {
				pc = i.a
				continue
			}

		case opVConst:
			in.vmStack = append(in.vmStack, p.vconsts[i.a])

		case opVSlot:
			s := &in.gslots[i.a]
			if !s.set {
				err = errors.New(unsetMsg(p.consts[i.b]))
				break
			}
			in.vmStack = append(in.vmStack, s.v.coerced())

		case opVNamed:
			v, ok := in.Var(p.consts[i.a])
			if !ok {
				err = errors.New(unsetMsg(p.consts[i.a]))
				break
			}
			in.vmStack = append(in.vmStack, coerce(v))

		case opVFromAcc:
			in.vmStack = append(in.vmStack, acc.coerced())

		case opVFromStack:
			top := &in.vmStack[len(in.vmStack)-1]
			*top = Str(top.text())

		case opVUnary:
			x := &in.vmStack[len(in.vmStack)-1]
			*x, err = unop(byte(i.a), x)

		case opVTruth:
			x := &in.vmStack[len(in.vmStack)-1]
			var b bool
			if b, err = x.truth(); err == nil {
				*x = boolv(b)
			}

		case opVAnd, opVOr:
			n := len(in.vmStack) - 1
			var b bool
			if b, err = in.vmStack[n].truth(); err != nil {
				break
			}
			if b == (i.op == opVOr) {
				// Decided by the left side: it becomes the result.
				in.vmStack[n] = boolv(b)
				pc = i.a
				continue
			}
			in.vmStack = in.vmStack[:n]

		case opVCall:
			cs := &p.calls[i.a]
			n := len(in.vmStack) - int(cs.argc)
			var v Value
			v, err = applyFunc(cs.name, in.vmStack[n:])
			in.vmStack = append(in.vmStack[:n], v)

		case opVResult:
			n := len(in.vmStack) - 1
			acc = in.vmStack[n]
			in.vmStack = in.vmStack[:n]
		}

		if err != nil {
			var fl *flow
			if errors.As(err, &fl) {
				if fl.code != flowReturn {
					if lp := p.loopAt(pc); lp != nil {
						in.vmStack = in.vmStack[:base+int(lp.depth)]
						in.vmFes = in.vmFes[:feBase+int(lp.feDepth)]
						in.depth = depthBase + int(lp.nestDepth)
						if fl.code == flowBreak {
							pc = lp.breakPC
						} else {
							pc = lp.contPC
						}
						continue
					}
				}
				return Value{}, err
			}
			if i.c != 0 {
				w := &p.wraps[i.c]
				err = wrapCmdErr(err, w.name, int(w.line))
			}
			return Value{}, err
		}
		pc++
	}
	return acc, nil
}

// strValues is a list's elements as Values.
func strValues(elems []string) []Value {
	vals := make([]Value, len(elems))
	for k, e := range elems {
		vals[k] = Str(e)
	}
	return vals
}

// incrSlot is the compiled `incr` over an interned global slot, with
// cmdIncr's reading of the variable (an integer, surrounding space
// ignored). The sum stays a number: nothing is rendered until something
// reads the variable as text.
func (in *Interp) incrSlot(idx int32, delta int64) (Value, error) {
	s := &in.gslots[idx]
	var cur int64
	if s.set {
		var ok bool
		if cur, ok = s.v.integer(); !ok {
			return Value{}, fmt.Errorf("expected integer but got %q", s.v.text())
		}
	}
	*s = gslot{v: Int(cur + delta), set: true}
	return s.v, nil
}

// incrNamed is the compiled `incr` for proc frames and non-interned names,
// whose variables are text.
func (in *Interp) incrNamed(name string, delta int64) (Value, error) {
	var cur int64
	if v, ok := in.Var(name); ok {
		if cur, ok = parseInt(strings.TrimSpace(v)); !ok {
			return Value{}, fmt.Errorf("expected integer but got %q", v)
		}
	}
	res := itoaFast(cur + delta)
	in.SetVar(name, res)
	return Str(res), nil
}
