package script

import (
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"
)

// This file is the register VM: the instruction set, the compiled Program
// representation, and the exec loop. compile.go lowers parsed scripts into
// Programs; the tree-walker in interp.go remains the reference
// implementation the VM is differentially tested against.
//
// Execution model: a string accumulator holds the last command result (the
// tree-walker's `result`), an argument stack of strings builds command
// words, and a value stack of typed values evaluates expr operands.
// Control flow (if/while/foreach and expr's &&/||/?:) is jumps. Command
// dispatch sites carry inline caches validated against the interpreter's
// cmdEpoch, and compiled special forms are protected by shadow guards that
// deoptimize to the tree-walker for the one command when a script or host
// rebinds a special-form name.

type opcode uint8

const (
	opNop opcode = iota

	// Statement plumbing.
	opStep      // count one command against the step budget; line = command line
	opStepWhile // count one while-loop iteration; c = wrap
	opClearAcc  // acc = ""
	opJump      // pc = a
	opGuard     // a = guard index, b = jump target on deopt

	// Argument-stack ops (command word assembly).
	opPushConst    // push consts[a]
	opPushSlot     // push global slot a (b = name const, for the error); line = word line
	opPushVarNamed // push in.Var(consts[a]); line = word line
	opPushAcc      // push acc (result of an inlined [command] block)
	opConcat       // run concat plan a over the top b dynamic parts
	opEnterNest    // in.depth++ with limit check; line = word line
	opLeaveNest    // in.depth--

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

	// Value-stack ops (expr).
	opVConst     // push vconsts[a]
	opVSlot      // push global slot a coerced, memoized (b = name const, c = wrap)
	opVNamed     // push coerce(in.Var(consts[a])) (c = wrap)
	opVFromAcc   // push coerce(acc)  — [command] operand result
	opVFromStack // pop arg stack, push as string value — "quoted" operand
	opVBinop     // binary operator a over top two values; c = wrap
	opVUnary     // unary operator a over top value; c = wrap
	opVTruth     // replace top with boolv(truth(top)); c = wrap
	opVAnd       // pop l; if !truth push 0 and jump a; c = wrap
	opVOr        // pop l; if truth push 1 and jump a; c = wrap
	opVCondJump  // pop cond; if !truth jump a; c = wrap
	opVCall      // math function call site a; c = wrap
	opVResult    // acc = pop().String()  — result of a compiled expr command

	// Superinstructions, emitted only by the fusion pass (optimize.go) —
	// lowering never produces them. Each is an exact macro-expansion
	// of the unfused sequence it replaces: identical stack states, step
	// accounting, and errors at every observable point, so the parity
	// harness covers them through the ordinary differential tests.
	opStepGuard    // opStep+opGuard: a = guard index, b = deopt jump target
	opStepInvoke   // [opClearAcc]+opStep+pushes+opInvoke[+opVFromAcc]: a = fused index
	opConstBinop   // opVConst+opVBinop: pop x, push binop b(x, vconsts[a]); c = wrap
	opCmpConstBr   // opVConst+opVBinop+opBranchFalse: a = fused index, c = wrap
	opSlotBinop    // opVSlot+opVConst+opVBinop: a = fused index, c = wrap
	opSlotCmpBr    // opVSlot+opVConst+opVBinop+opBranchFalse: a = fused index, c = wrap
	opStepIncrSlot // opStep+opGuard+opIncrSlot: a = fused index, c = wrap
	opNotBr        // opVUnary(!)+opBranchFalse: pop x, jump a when x truthy; c = wrap
	opEnterClear   // opEnterNest+opClearAcc; line = word line
	opLeavePush    // opLeaveNest+opPushAcc
	opSetSlotConst // opPushConst+opSetSlot: slot a = consts[b]; acc = it

	// Second-order superinstructions: fusions across an invoke and the
	// comparison consuming it, and branch-target landing pads.
	opInvokeCmpBr    // opStepInvoke+eq/ne vconst+opBranchFalse: a = fused index
	opClearStepGuard // opClearAcc+opStep+opGuard: a = guard index, b = deopt target
	opClearJump      // opClearAcc+opJump: acc = ""; jump a
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
	slot   int32 // opSlotBinop/opSlotCmpBr/opStepIncrSlot: global slot
	nameC  int32 // name const for the unset-variable error
	vconst int32 // opConstBinop family: vconsts index of the folded operand
	binop  int32
	target int32  // branch/deopt target (remapped by later passes)
	guard  int32  // opStepIncrSlot: guard index
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
	cmd    Command
	isInfo bool // cmd is the builtin info command (fuseInfoExists fast path)
}

// infoBuiltinPtr identifies the builtin info command by code pointer;
// revalidate compares against it so a shadowing Register("info", ...) or
// proc turns the fuseInfoExists fast path off at the site.
var infoBuiltinPtr = reflect.ValueOf(Command(cmdInfo)).Pointer()

// revalidate refreshes the site's monomorphic cache after a command-epoch
// change, retagging whether the site still binds the builtin info command.
func (site *invokeSite) revalidate(in *Interp) {
	site.pr = in.procs[site.name]
	site.cmd = nil
	site.isInfo = false
	if site.pr == nil {
		site.cmd = in.commands[site.name]
		if site.cmd != nil && site.name == "info" {
			site.isInfo = reflect.ValueOf(site.cmd).Pointer() == infoBuiltinPtr
		}
	}
	site.epoch = in.cmdEpoch
}

// guardInfo backs an opGuard: if any special form named by mask has been
// shadowed, the VM abandons the inlined code and tree-walks the original
// command AST instead.
type guardInfo struct {
	cmd  *command
	mask uint32
}

// feInfo is the static half of a foreach loop: the loop variables (global
// slots when all intern, names otherwise) and, for literal lists, the
// pre-split items.
type feInfo struct {
	slots    []int32 // nil → use names
	names    []string
	preSplit []string // non-nil for opForeachInitPre
	nvars    int32
}

// feState is the runtime half: the items being iterated and the cursor.
type feState struct {
	items []string
	pos   int
}

// concatPlan rebuilds a multi-segment word: literal parts interleaved with
// dynamic parts popped from the argument stack.
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
	start, end       int32 // pc range of the loop body
	breakPC, contPC  int32
	argDepth, vDepth int32 // stack depths at loop entry, relative to exec base
	feDepth          int32
	nestDepth        int32 // in.depth relative to exec entry
}

// Program is a compiled script plus its side tables. Programs are owned by
// one interpreter (inline caches mutate at runtime) and cached in
// Interp.progs/procProgs keyed by source text.
type Program struct {
	ins     []instr
	consts  []string
	vconsts []value
	plans   []concatPlan
	invokes []invokeSite
	guards  []guardInfo
	wraps   []wrapCtx
	fes     []feInfo
	deltas  []int64
	calls   []callSite
	loops   []loopScope
	fused   []fusedOp // superinstruction operands
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

// wrapCmdErr applies invoke's wrapping rules to an error raised inside a
// compiled special form: flow and already-annotated errors pass through,
// anything else becomes an EvalError attributed to the builtin.
func wrapCmdErr(err error, name string, line int) error {
	var fl *flow
	var ev *EvalError
	var pe *ParseError
	if errors.As(err, &fl) || errors.As(err, &ev) || errors.As(err, &pe) {
		return err
	}
	return &EvalError{Cmd: name, Line: line, Msg: err.Error()}
}

// evalCmdTree executes one command AST via the tree-walker — the deopt
// path behind opGuard. The step was already counted by opStep.
func (in *Interp) evalCmdTree(cmd *command) (string, error) {
	words, err := in.expandCommand(cmd)
	if err != nil {
		return "", err
	}
	if len(words) == 0 {
		in.putWords(words)
		return "", nil
	}
	res, err := in.invoke(words, cmd.line)
	in.putWords(words)
	return res, err
}

// gsetSlot writes a global slot directly, invalidating the numeric memo.
func (in *Interp) gsetSlot(i int32, v string) {
	s := &in.gslots[i]
	s.val, s.set, s.numState = v, true, numUnknown
	s.num = valueZero
}

// slotNumber memoizes parseNumber over a slot's current value.
func (in *Interp) slotNumber(s *gslot) (value, bool) {
	if s.numState == numUnknown {
		if n, ok := parseNumber(s.val); ok {
			s.num, s.numState = n, numIs
		} else {
			s.numState = numNot
		}
	}
	return s.num, s.numState == numIs
}

// exec runs a compiled program in the current frame. It is reentrant:
// nested evaluations (proc bodies, eval, control-flow fallbacks) run their
// own exec above this one's saved stack bases.
func (in *Interp) exec(p *Program) (string, error) {
	argBase := len(in.vmArgs)
	vBase := len(in.vmVals)
	feBase := len(in.vmFes)
	depthBase := in.depth
	defer func() {
		// Zero everything at or above the entry bases — including slots
		// beyond the truncated length that transiently held values — so
		// the shared stacks never retain script strings.
		args := in.vmArgs[argBase:cap(in.vmArgs)]
		for k := range args {
			args[k] = ""
		}
		in.vmArgs = in.vmArgs[:argBase]
		vals := in.vmVals[vBase:cap(in.vmVals)]
		for k := range vals {
			vals[k] = value{}
		}
		in.vmVals = in.vmVals[:vBase]
		fes := in.vmFes[feBase:cap(in.vmFes)]
		for k := range fes {
			fes[k] = feState{}
		}
		in.vmFes = in.vmFes[:feBase]
		in.depth = depthBase
	}()

	ins := p.ins
	acc := ""
	var pc int32
	for int(pc) < len(ins) {
		i := &ins[pc]
		var err error
		switch i.op {
		case opNop:

		case opStep:
			if in.maxSteps > 0 {
				in.steps++
				if in.steps > in.maxSteps {
					in.limitHit = true
					err = &EvalError{Msg: fmt.Sprintf("step limit %d exceeded", in.maxSteps), Line: int(i.line)}
				}
			}

		case opStepWhile:
			if in.maxSteps > 0 {
				in.steps++
				if in.steps > in.maxSteps {
					in.limitHit = true
					err = fmt.Errorf("step limit %d exceeded in while loop", in.maxSteps)
				}
			}

		case opClearAcc:
			acc = ""

		case opJump:
			pc = i.a
			continue

		case opGuard:
			g := &p.guards[i.a]
			if in.shadowMask&g.mask != 0 {
				res, derr := in.evalCmdTree(g.cmd)
				if derr != nil {
					err = derr
					break
				}
				acc = res
				pc = i.b
				continue
			}

		case opPushConst:
			in.vmArgs = append(in.vmArgs, p.consts[i.a])

		case opPushSlot:
			s := &in.gslots[i.a]
			if !s.set {
				err = &EvalError{Msg: fmt.Sprintf("can't read %q: no such variable", p.consts[i.b]), Line: int(i.line)}
				break
			}
			in.vmArgs = append(in.vmArgs, s.val)

		case opPushVarNamed:
			v, ok := in.Var(p.consts[i.a])
			if !ok {
				err = &EvalError{Msg: fmt.Sprintf("can't read %q: no such variable", p.consts[i.a]), Line: int(i.line)}
				break
			}
			in.vmArgs = append(in.vmArgs, v)

		case opPushAcc:
			in.vmArgs = append(in.vmArgs, acc)

		case opConcat:
			n := int(i.b)
			base := len(in.vmArgs) - n
			dyn := in.vmArgs[base:]
			buf := in.vmBuf[:0]
			di := 0
			for _, part := range p.plans[i.a].parts {
				if part.dyn {
					buf = append(buf, dyn[di]...)
					di++
				} else {
					buf = append(buf, part.lit...)
				}
			}
			s := string(buf)
			in.vmBuf = buf[:0]
			in.vmArgs = append(in.vmArgs[:base], s)

		case opEnterNest:
			in.depth++
			if in.depth > maxDepth {
				in.depth--
				err = &EvalError{Msg: "too many nested evaluations", Line: int(i.line)}
			}

		case opLeaveNest:
			in.depth--

		case opInvoke:
			site := &p.invokes[i.a]
			base := len(in.vmArgs) - int(site.argc)
			args := in.vmArgs[base:]
			if site.epoch != in.cmdEpoch {
				site.revalidate(in)
			}
			var res string
			switch {
			case site.pr != nil:
				res, err = in.callProc(site.pr, args, int(i.line))
			case site.cmd != nil:
				res, err = site.cmd(in, args)
				if err != nil {
					err = wrapCmdErr(err, site.name, int(i.line))
				}
			default:
				err = &EvalError{Cmd: site.name, Line: int(i.line),
					Msg: fmt.Sprintf("invalid command name %q", site.name)}
			}
			in.vmArgs = in.vmArgs[:base]
			if err != nil {
				break
			}
			acc = res

		case opInvokeDyn:
			base := len(in.vmArgs) - int(i.a) - 1
			name := in.vmArgs[base]
			args := in.vmArgs[base+1:]
			var res string
			if pr, ok := in.procs[name]; ok {
				res, err = in.callProc(pr, args, int(i.line))
			} else if cmd, ok := in.commands[name]; ok {
				res, err = cmd(in, args)
				if err != nil {
					err = wrapCmdErr(err, name, int(i.line))
				}
			} else {
				err = &EvalError{Cmd: name, Line: int(i.line),
					Msg: fmt.Sprintf("invalid command name %q", name)}
			}
			in.vmArgs = in.vmArgs[:base]
			if err != nil {
				break
			}
			acc = res

		case opSetSlot:
			n := len(in.vmArgs) - 1
			v := in.vmArgs[n]
			in.vmArgs = in.vmArgs[:n]
			in.gsetSlot(i.a, v)
			acc = v

		case opGetSlot:
			s := &in.gslots[i.a]
			if !s.set {
				err = fmt.Errorf("can't read %q: no such variable", p.consts[i.b])
				break
			}
			acc = s.val

		case opSetNamed:
			n := len(in.vmArgs) - 1
			v := in.vmArgs[n]
			in.vmArgs = in.vmArgs[:n]
			in.SetVar(p.consts[i.a], v)
			acc = v

		case opGetNamed:
			v, ok := in.Var(p.consts[i.a])
			if !ok {
				err = fmt.Errorf("can't read %q: no such variable", p.consts[i.a])
				break
			}
			acc = v

		case opIncrSlot:
			acc, err = in.incrSlot(i.a, p.deltas[i.b])

		case opIncrSlotDyn:
			n := len(in.vmArgs) - 1
			ds := in.vmArgs[n]
			in.vmArgs = in.vmArgs[:n]
			var d int64
			d, err = parseIncrDelta(ds)
			if err == nil {
				acc, err = in.incrSlot(i.a, d)
			}

		case opIncrNamed:
			acc, err = in.incrNamed(p.consts[i.a], p.deltas[i.b])

		case opIncrNamedDyn:
			n := len(in.vmArgs) - 1
			ds := in.vmArgs[n]
			in.vmArgs = in.vmArgs[:n]
			var d int64
			d, err = parseIncrDelta(ds)
			if err == nil {
				acc, err = in.incrNamed(p.consts[i.a], d)
			}

		case opBranchFalse:
			n := len(in.vmVals) - 1
			v := in.vmVals[n]
			in.vmVals = in.vmVals[:n]
			var b bool
			b, err = v.truth()
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
			n := len(in.vmArgs) - 1
			v := in.vmArgs[n]
			in.vmArgs = in.vmArgs[:n]
			err = &flow{code: flowReturn, value: v}

		case opFlowBreak:
			err = flowBreakErr

		case opFlowContinue:
			err = flowContinueErr

		case opForeachInit:
			n := len(in.vmArgs) - 1
			list := in.vmArgs[n]
			in.vmArgs = in.vmArgs[:n]
			var items []string
			items, err = ListSplit(list)
			if err != nil {
				break
			}
			in.vmFes = append(in.vmFes, feState{items: items})

		case opForeachInitPre:
			in.vmFes = append(in.vmFes, feState{items: p.fes[i.a].preSplit})

		case opForeachStep:
			fe := &in.vmFes[len(in.vmFes)-1]
			if fe.pos >= len(fe.items) {
				pc = i.b
				continue
			}
			inf := &p.fes[i.a]
			if inf.slots != nil {
				for j, sl := range inf.slots {
					if fe.pos+j < len(fe.items) {
						in.gsetSlot(sl, fe.items[fe.pos+j])
					} else {
						in.gsetSlot(sl, "")
					}
				}
			} else {
				for j, nm := range inf.names {
					if fe.pos+j < len(fe.items) {
						in.SetVar(nm, fe.items[fe.pos+j])
					} else {
						in.SetVar(nm, "")
					}
				}
			}
			fe.pos += int(inf.nvars)

		case opForeachDone:
			n := len(in.vmFes) - 1
			in.vmFes[n] = feState{}
			in.vmFes = in.vmFes[:n]
			acc = ""

		case opStepGuard:
			if in.maxSteps > 0 {
				in.steps++
				if in.steps > in.maxSteps {
					in.limitHit = true
					err = &EvalError{Msg: fmt.Sprintf("step limit %d exceeded", in.maxSteps), Line: int(i.line)}
					break
				}
			}
			g := &p.guards[i.a]
			if in.shadowMask&g.mask != 0 {
				res, derr := in.evalCmdTree(g.cmd)
				if derr != nil {
					err = derr
					break
				}
				acc = res
				pc = i.b
				continue
			}

		case opStepInvoke, opInvokeCmpBr:
			f := &p.fused[i.a]
			if f.flags&fuseClearAcc != 0 {
				acc = ""
			}
			if in.maxSteps > 0 {
				in.steps++
				if in.steps > in.maxSteps {
					in.limitHit = true
					err = &EvalError{Msg: fmt.Sprintf("step limit %d exceeded", in.maxSteps), Line: int(i.line)}
					break
				}
			}
			site := &p.invokes[f.site]
			if site.epoch != in.cmdEpoch {
				site.revalidate(in)
			}
			var res string
			if f.flags&fuseInfoExists != 0 && site.isInfo {
				// `info exists <literal>` on the builtin: both arguments
				// are constants and the command cannot error, so skip the
				// pushes and dispatch and answer from the variable table —
				// the interned slot when the script runs at global scope.
				name := p.consts[f.nameC]
				var ok bool
				if in.curFrame() != nil {
					_, ok = in.Var(name)
				} else if f.slot >= 0 {
					ok = in.gslots[f.slot].set
				} else {
					_, ok = in.gget(name)
				}
				res = boolStr(ok)
			} else {
				for k := 0; k < len(f.args) && err == nil; k++ {
					as := &f.args[k]
					switch as.kind {
					case argConst:
						in.vmArgs = append(in.vmArgs, p.consts[as.a])
					case argSlot:
						s := &in.gslots[as.a]
						if !s.set {
							err = &EvalError{Msg: fmt.Sprintf("can't read %q: no such variable", p.consts[as.b]), Line: int(as.line)}
						} else {
							in.vmArgs = append(in.vmArgs, s.val)
						}
					case argNamed:
						v, ok := in.Var(p.consts[as.a])
						if !ok {
							err = &EvalError{Msg: fmt.Sprintf("can't read %q: no such variable", p.consts[as.a]), Line: int(as.line)}
						} else {
							in.vmArgs = append(in.vmArgs, v)
						}
					}
				}
				if err != nil {
					break
				}
				base := len(in.vmArgs) - int(site.argc)
				args := in.vmArgs[base:]
				switch {
				case site.pr != nil:
					res, err = in.callProc(site.pr, args, int(i.line))
				case site.cmd != nil:
					res, err = site.cmd(in, args)
					if err != nil {
						err = wrapCmdErr(err, site.name, int(i.line))
					}
				default:
					err = &EvalError{Cmd: site.name, Line: int(i.line),
						Msg: fmt.Sprintf("invalid command name %q", site.name)}
				}
				in.vmArgs = in.vmArgs[:base]
				if err != nil {
					break
				}
			}
			acc = res
			if i.op == opInvokeCmpBr {
				// eq/ne against a canonical constant: raw equality proves
				// the coerced comparison; only a raw mismatch needs the
				// numeric-normalizing parse.
				eq := f.flags&fuseRawEq != 0 && acc == f.cstr
				if !eq {
					eq = coerce(acc).String() == f.cstr
				}
				if eq == (f.binop == vbNeStr) {
					pc = f.target
					continue
				}
				pc++
				continue
			}
			if f.flags&fusePushCoerce != 0 {
				in.vmVals = append(in.vmVals, coerce(acc))
			}

		case opClearStepGuard:
			acc = ""
			if in.maxSteps > 0 {
				in.steps++
				if in.steps > in.maxSteps {
					in.limitHit = true
					err = &EvalError{Msg: fmt.Sprintf("step limit %d exceeded", in.maxSteps), Line: int(i.line)}
					break
				}
			}
			g := &p.guards[i.a]
			if in.shadowMask&g.mask != 0 {
				res, derr := in.evalCmdTree(g.cmd)
				if derr != nil {
					err = derr
					break
				}
				acc = res
				pc = i.b
				continue
			}

		case opClearJump:
			acc = ""
			pc = i.a
			continue

		case opConstBinop:
			n := len(in.vmVals) - 1
			x := in.vmVals[n]
			in.vmVals = in.vmVals[:n]
			var v value
			v, err = evalBinop(i.b, x, p.vconsts[i.a])
			if err != nil {
				break
			}
			in.vmVals = append(in.vmVals, v)

		case opCmpConstBr:
			f := &p.fused[i.a]
			n := len(in.vmVals) - 1
			x := in.vmVals[n]
			in.vmVals = in.vmVals[:n]
			var v value
			v, err = evalBinop(f.binop, x, p.vconsts[f.vconst])
			if err != nil {
				break
			}
			var b bool
			b, err = v.truth()
			if err != nil {
				break
			}
			if !b {
				pc = f.target
				continue
			}

		case opSlotBinop, opSlotCmpBr:
			f := &p.fused[i.a]
			s := &in.gslots[f.slot]
			if !s.set {
				err = fmt.Errorf("can't read %q: no such variable", p.consts[f.nameC])
				break
			}
			var av value
			if n, ok := in.slotNumber(s); ok {
				av = n
			} else {
				av = strv(s.val)
			}
			var v value
			v, err = evalBinop(f.binop, av, p.vconsts[f.vconst])
			if err != nil {
				break
			}
			if i.op == opSlotBinop {
				in.vmVals = append(in.vmVals, v)
				break
			}
			var b bool
			b, err = v.truth()
			if err != nil {
				break
			}
			if !b {
				pc = f.target
				continue
			}

		case opStepIncrSlot:
			f := &p.fused[i.a]
			if f.flags&fuseClearAcc != 0 {
				acc = ""
			}
			if in.maxSteps > 0 {
				in.steps++
				if in.steps > in.maxSteps {
					in.limitHit = true
					err = &EvalError{Msg: fmt.Sprintf("step limit %d exceeded", in.maxSteps), Line: int(i.line)}
					break
				}
			}
			if g := &p.guards[f.guard]; in.shadowMask&g.mask != 0 {
				res, derr := in.evalCmdTree(g.cmd)
				if derr != nil {
					err = derr
					break
				}
				acc = res
				pc = f.target
				continue
			}
			acc, err = in.incrSlot(f.slot, f.delta)

		case opNotBr:
			n := len(in.vmVals) - 1
			v := in.vmVals[n]
			in.vmVals = in.vmVals[:n]
			var b bool
			b, err = v.truth()
			if err != nil {
				break
			}
			if b {
				pc = i.a
				continue
			}

		case opEnterClear:
			in.depth++
			if in.depth > maxDepth {
				in.depth--
				err = &EvalError{Msg: "too many nested evaluations", Line: int(i.line)}
				break
			}
			acc = ""

		case opLeavePush:
			in.depth--
			in.vmArgs = append(in.vmArgs, acc)

		case opSetSlotConst:
			v := p.consts[i.b]
			in.gsetSlot(i.a, v)
			acc = v

		case opVConst:
			in.vmVals = append(in.vmVals, p.vconsts[i.a])

		case opVSlot:
			s := &in.gslots[i.a]
			if !s.set {
				err = fmt.Errorf("can't read %q: no such variable", p.consts[i.b])
				break
			}
			if n, ok := in.slotNumber(s); ok {
				in.vmVals = append(in.vmVals, n)
			} else {
				in.vmVals = append(in.vmVals, strv(s.val))
			}

		case opVNamed:
			v, ok := in.Var(p.consts[i.a])
			if !ok {
				err = fmt.Errorf("can't read %q: no such variable", p.consts[i.a])
				break
			}
			in.vmVals = append(in.vmVals, coerce(v))

		case opVFromAcc:
			in.vmVals = append(in.vmVals, coerce(acc))

		case opVFromStack:
			n := len(in.vmArgs) - 1
			s := in.vmArgs[n]
			in.vmArgs = in.vmArgs[:n]
			in.vmVals = append(in.vmVals, strv(s))

		case opVBinop:
			n := len(in.vmVals) - 2
			a, b := in.vmVals[n], in.vmVals[n+1]
			in.vmVals = in.vmVals[:n]
			var v value
			v, err = evalBinop(i.a, a, b)
			if err != nil {
				break
			}
			in.vmVals = append(in.vmVals, v)

		case opVUnary:
			n := len(in.vmVals) - 1
			x := in.vmVals[n]
			in.vmVals = in.vmVals[:n]
			var v value
			v, err = evalUnary(byte(i.a), x)
			if err != nil {
				break
			}
			in.vmVals = append(in.vmVals, v)

		case opVTruth:
			n := len(in.vmVals) - 1
			var b bool
			b, err = in.vmVals[n].truth()
			if err != nil {
				break
			}
			in.vmVals[n] = boolv(b)

		case opVAnd:
			n := len(in.vmVals) - 1
			v := in.vmVals[n]
			in.vmVals = in.vmVals[:n]
			var b bool
			b, err = v.truth()
			if err != nil {
				break
			}
			if !b {
				in.vmVals = append(in.vmVals, boolv(false))
				pc = i.a
				continue
			}

		case opVOr:
			n := len(in.vmVals) - 1
			v := in.vmVals[n]
			in.vmVals = in.vmVals[:n]
			var b bool
			b, err = v.truth()
			if err != nil {
				break
			}
			if b {
				in.vmVals = append(in.vmVals, boolv(true))
				pc = i.a
				continue
			}

		case opVCondJump:
			n := len(in.vmVals) - 1
			v := in.vmVals[n]
			in.vmVals = in.vmVals[:n]
			var b bool
			b, err = v.truth()
			if err != nil {
				break
			}
			if !b {
				pc = i.a
				continue
			}

		case opVCall:
			cs := &p.calls[i.a]
			base := len(in.vmVals) - int(cs.argc)
			var v value
			v, err = applyFunc(cs.name, in.vmVals[base:])
			in.vmVals = in.vmVals[:base]
			if err != nil {
				break
			}
			in.vmVals = append(in.vmVals, v)

		case opVResult:
			n := len(in.vmVals) - 1
			acc = in.vmVals[n].String()
			in.vmVals = in.vmVals[:n]
		}

		if err != nil {
			var fl *flow
			if errors.As(err, &fl) {
				if fl.code != flowReturn {
					if lp := p.loopAt(pc); lp != nil {
						in.vmArgs = in.vmArgs[:argBase+int(lp.argDepth)]
						in.vmVals = in.vmVals[:vBase+int(lp.vDepth)]
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
				return "", err
			}
			if i.c != 0 {
				w := &p.wraps[i.c]
				err = wrapCmdErr(err, w.name, int(w.line))
			}
			return "", err
		}
		pc++
	}
	return acc, nil
}

// parseIncrDelta parses a dynamic increment argument with cmdIncr's exact
// semantics and error.
func parseIncrDelta(s string) (int64, error) {
	d, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		return 0, fmt.Errorf("expected integer but got %q", s)
	}
	return d, nil
}

// smallIntStrs caches the decimal form of small integers so counter
// bookkeeping (incr, expr results) doesn't allocate a fresh string per
// message on the hot path.
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

// incrSlot is the compiled `incr` over an interned global slot, with
// cmdIncr's parse semantics (ParseInt of the trimmed value, base 0) and
// the numeric memo kept coherent.
func (in *Interp) incrSlot(idx int32, delta int64) (string, error) {
	s := &in.gslots[idx]
	var cur int64
	if s.set {
		if n, ok := in.slotNumber(s); ok && n.kind == intVal {
			cur = n.i
		} else {
			return "", fmt.Errorf("expected integer but got %q", s.val)
		}
	}
	next := cur + delta
	res := itoaFast(next)
	s.val, s.set = res, true
	s.num, s.numState = intv(next), numIs
	return res, nil
}

// incrNamed is the compiled `incr` for proc frames and non-interned names.
func (in *Interp) incrNamed(name string, delta int64) (string, error) {
	var cur int64
	if v, ok := in.Var(name); ok {
		c, err := strconv.ParseInt(strings.TrimSpace(v), 0, 64)
		if err != nil {
			return "", fmt.Errorf("expected integer but got %q", v)
		}
		cur = c
	}
	res := itoaFast(cur + delta)
	in.SetVar(name, res)
	return res, nil
}

// Binary operator codes for opVBinop, mirroring binNode.eval's dispatch.
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

// evalBinop applies one binary operator, delegating to the same helpers
// the tree-walker's binNode uses so results and errors stay identical.
func evalBinop(code int32, a, b value) (value, error) {
	switch code {
	case vbAdd, vbSub, vbMul, vbDiv, vbMod:
		return arith(binopName[code], a, b)
	case vbBitAnd, vbBitOr, vbBitXor, vbShl, vbShr:
		return intBinop(binopName[code], a, b)
	case vbEqStr:
		return boolv(a.String() == b.String()), nil
	case vbNeStr:
		return boolv(a.String() != b.String()), nil
	case vbEqNum:
		return boolv(compare(a, b) == 0), nil
	case vbNeNum:
		return boolv(compare(a, b) != 0), nil
	case vbLt:
		return boolv(compare(a, b) < 0), nil
	case vbGt:
		return boolv(compare(a, b) > 0), nil
	case vbLe:
		return boolv(compare(a, b) <= 0), nil
	default:
		return boolv(compare(a, b) >= 0), nil
	}
}

// evalUnary mirrors unaryNode.eval.
func evalUnary(op byte, v value) (value, error) {
	switch op {
	case '+':
		if !v.isNumeric() {
			if num, ok := parseNumber(v.s); ok {
				return num, nil
			}
			return value{}, fmt.Errorf("expr: unary + on non-number %q", v.s)
		}
		return v, nil
	case '-':
		switch v.kind {
		case intVal:
			return intv(-v.i), nil
		case floatVal:
			return floatv(-v.f), nil
		default:
			if num, ok := parseNumber(v.s); ok {
				if num.kind == intVal {
					return intv(-num.i), nil
				}
				return floatv(-num.f), nil
			}
			return value{}, fmt.Errorf("expr: unary - on non-number %q", v.s)
		}
	case '!':
		b, err := v.truth()
		if err != nil {
			return value{}, err
		}
		return boolv(!b), nil
	default: // '~'
		if v.kind != intVal {
			return value{}, fmt.Errorf("expr: ~ requires an integer")
		}
		return intv(^v.i), nil
	}
}
