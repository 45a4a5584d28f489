package script

import "strings"

// This file lowers a parsed *Script into a Program for the VM in vm.go.
//
// The compiler is conservative by construction: a command compiles to an
// inlined special form only when its shape is fully static and well-formed
// (literal words where the builtin expects scripts or names, parseable
// expressions and bodies, canonical argument counts). Anything else falls
// back to a generic dispatch instruction that calls the same Command
// functions the tree-walker does, so behavior — including every error
// message and the order effects happen in — is identical by construction
// rather than by re-implementation. The inlined names are keywords (see
// isSpecialForm): nothing can rebind them after compilation, so an inlined
// form needs no guard.

type progMode int

const (
	modeGlobal progMode = iota // top-level: variables are interned global slots
	modeProc                   // proc frame: variables go through the frame maps
)

type compiler struct {
	in   *Interp
	mode progMode
	p    *Program

	constOf map[string]int32

	// Static stack depths at the current emission point, used to register
	// loop scopes and to decide when break/continue can be plain jumps.
	depth, feDepth, nestDepth int32

	loops []cloop
}

// cloop is an open (still being compiled) loop.
type cloop struct {
	contPC                    int32
	breakPatches              []int32
	depth, feDepth, nestDepth int32
}

// compileProgram is the whole pipeline from a parsed script to the one
// Program that runs it in the given frame mode: lower, then fuse in place
// (optimize.go). It never fails: uncompilable constructs lower to generic
// dispatch and surface their errors at runtime exactly as the tree-walker
// would.
func compileProgram(in *Interp, s *Script, mode progMode) *Program {
	c := &compiler{
		in:      in,
		mode:    mode,
		p:       &Program{},
		constOf: make(map[string]int32),
	}
	c.p.wraps = append(c.p.wraps, wrapCtx{}) // index 0 = no wrap
	c.script(s)
	c.noteDepths()
	if in.lowerOnly {
		return c.p
	}
	fuse(in, c.p)
	return c.p
}

func (c *compiler) emit(i instr) int32 {
	c.noteDepths()
	idx := int32(len(c.p.ins))
	c.p.ins = append(c.p.ins, i)
	return idx
}

// noteDepths keeps the program's stack bounds: the depth an instruction
// leaves is seen when the next one is emitted, and once more at the end.
func (c *compiler) noteDepths() {
	c.p.maxStack = max(c.p.maxStack, c.depth)
	c.p.maxFes = max(c.p.maxFes, c.feDepth)
}

// patchTo points the jump target of the instruction at idx to the next
// instruction to be emitted.
func (c *compiler) patchTo(idx int32) {
	target := int32(len(c.p.ins))
	ins := &c.p.ins[idx]
	if ins.op == opForeachStep {
		ins.b = target
	} else {
		ins.a = target
	}
}

func (c *compiler) constIdx(s string) int32 {
	if i, ok := c.constOf[s]; ok {
		return i
	}
	i := int32(len(c.p.consts))
	c.p.consts = append(c.p.consts, s)
	c.constOf[s] = i
	return i
}

func (c *compiler) vconstIdx(v Value) int32 {
	v.number() // a quoted "5" is parsed here, not on every comparison
	i := int32(len(c.p.vconsts))
	c.p.vconsts = append(c.p.vconsts, v)
	return i
}

func (c *compiler) wrapIdx(name string, line int) int32 {
	i := int32(len(c.p.wraps))
	c.p.wraps = append(c.p.wraps, wrapCtx{name: name, line: int32(line)})
	return i
}

// literalText returns the fully static expansion of w, if it has one.
// Every word whose segments are all literals expands to the same string on
// every evaluation; that is exactly the set the compiler may push as a
// constant.
func literalText(w *word) (string, bool) {
	if len(w.segs) == 1 {
		seg := &w.segs[0]
		if seg.kind == segLiteral {
			return seg.text, true
		}
		return "", false
	}
	for i := range w.segs {
		if w.segs[i].kind != segLiteral {
			return "", false
		}
	}
	var b strings.Builder
	for i := range w.segs {
		b.WriteString(w.segs[i].text)
	}
	return b.String(), true
}

func (c *compiler) script(s *Script) {
	for i := range s.cmds {
		c.command(&s.cmds[i])
	}
}

func (c *compiler) command(cmd *command) {
	c.emit(instr{op: opStep, line: int32(cmd.line)})
	if name, ok := literalText(&cmd.words[0]); ok {
		compiled := false
		switch name {
		case "if":
			compiled = c.ifForm(cmd)
		case "while":
			compiled = c.whileForm(cmd)
		case "foreach":
			compiled = c.foreachForm(cmd)
		case "set":
			compiled = c.setForm(cmd)
		case "incr":
			compiled = c.incrForm(cmd)
		case "expr":
			compiled = c.exprForm(cmd)
		case "return":
			compiled = c.returnForm(cmd)
		case "break":
			compiled = c.flowForm(cmd, flowBreak)
		case "continue":
			compiled = c.flowForm(cmd, flowContinue)
		}
		if compiled {
			return
		}
	}
	c.generic(cmd)
}

// generic lowers a command to plain dispatch: expand each argument word
// onto the stack, then invoke by name — the compiled twin of the
// tree-walker's expandCommand+invoke.
func (c *compiler) generic(cmd *command) {
	name, staticName := literalText(&cmd.words[0])
	if !staticName {
		c.wordPush(&cmd.words[0])
	}
	for i := 1; i < len(cmd.words); i++ {
		c.wordPush(&cmd.words[i])
	}
	argc := int32(len(cmd.words) - 1)
	if staticName {
		si := int32(len(c.p.invokes))
		c.p.invokes = append(c.p.invokes, invokeSite{name: name, argc: argc})
		c.emit(instr{op: opInvoke, a: si, line: int32(cmd.line)})
		c.depth -= argc
	} else {
		c.emit(instr{op: opInvokeDyn, a: argc, line: int32(cmd.line)})
		c.depth -= argc + 1
	}
}

// wordPush emits instructions that leave w's expansion on the stack.
func (c *compiler) wordPush(w *word) {
	if t, ok := literalText(w); ok {
		c.emit(instr{op: opPushConst, a: c.constIdx(t)})
		c.depth++
		return
	}
	if len(w.segs) == 1 {
		seg := &w.segs[0]
		switch seg.kind {
		case segVar:
			c.pushVar(seg.text, w.line)
		case segCmd:
			c.inlineNested(seg.body, w.line)
			c.depth++
		}
		return
	}
	// Multi-segment word: push the dynamic parts in order, then run the
	// concat plan over them.
	plan := concatPlan{}
	nDyn := int32(0)
	for i := range w.segs {
		seg := &w.segs[i]
		switch seg.kind {
		case segLiteral:
			plan.parts = append(plan.parts, concatPart{lit: seg.text})
		case segVar:
			c.pushVar(seg.text, w.line)
			plan.parts = append(plan.parts, concatPart{dyn: true})
			nDyn++
		case segCmd:
			c.inlineNested(seg.body, w.line)
			c.depth++
			plan.parts = append(plan.parts, concatPart{dyn: true})
			nDyn++
		}
	}
	pi := int32(len(c.p.plans))
	c.p.plans = append(c.p.plans, plan)
	c.emit(instr{op: opConcat, a: pi, b: nDyn})
	c.depth -= nDyn - 1
}

func (c *compiler) pushVar(name string, line int) {
	if c.mode == modeGlobal {
		if sl := c.in.gslotIndex(name); sl >= 0 {
			c.emit(instr{op: opPushSlot, a: int32(sl), b: c.constIdx(name), line: int32(line)})
			c.depth++
			return
		}
	}
	c.emit(instr{op: opPushVarNamed, a: c.constIdx(name), line: int32(line)})
	c.depth++
}

// inlineNested compiles a [command] substitution: a nested script run with
// the depth limit the tree-walker's expandWord enforces, whose result it
// pushes.
func (c *compiler) inlineNested(body *Script, line int) {
	c.emit(instr{op: opEnterClear, line: int32(line)})
	c.nestDepth++
	c.script(body)
	c.emit(instr{op: opLeavePush})
	c.nestDepth--
}

// literalArgs extracts the static expansions of every argument word, or
// reports that some word is dynamic.
func literalArgs(cmd *command) ([]string, bool) {
	args := make([]string, 0, len(cmd.words)-1)
	for i := 1; i < len(cmd.words); i++ {
		t, ok := literalText(&cmd.words[i])
		if !ok {
			return nil, false
		}
		args = append(args, t)
	}
	return args, true
}

// ifForm compiles if/elseif/else chains whose conditions, keywords, and
// bodies are all static and well-formed. The argument walk mirrors cmdIf;
// any shape it would reject at runtime falls back to generic dispatch so
// the runtime error (which depends on which branch is taken) is produced
// by cmdIf itself.
func (c *compiler) ifForm(cmd *command) bool {
	args, ok := literalArgs(cmd)
	if !ok {
		return false
	}
	type clause struct {
		cond exprNode
		body *Script
	}
	var clauses []clause
	var elseBody *Script
	i := 0
	for {
		if i >= len(args) {
			return false
		}
		condText := args[i]
		i++
		if i < len(args) && args[i] == "then" {
			i++
		}
		if i >= len(args) {
			return false
		}
		bodyText := args[i]
		i++
		cond, err := c.in.compileExpr(condText)
		if err != nil {
			return false
		}
		body, err := Parse(bodyText)
		if err != nil {
			return false
		}
		clauses = append(clauses, clause{cond: cond, body: body})
		if i >= len(args) {
			break // no else
		}
		if args[i] == "elseif" {
			i++
			continue
		}
		if args[i] == "else" {
			i++
		}
		if i != len(args)-1 {
			return false
		}
		eb, err := Parse(args[i])
		if err != nil {
			return false
		}
		elseBody = eb
		break
	}

	wrap := c.wrapIdx("if", cmd.line)
	var endJumps []int32
	for _, cl := range clauses {
		c.exprOps(cl.cond, wrap)
		bf := c.emit(instr{op: opBranchFalse, c: wrap})
		c.depth--
		c.emit(instr{op: opClearAcc})
		c.script(cl.body)
		endJumps = append(endJumps, c.emit(instr{op: opJump}))
		c.patchTo(bf)
	}
	c.emit(instr{op: opClearAcc})
	if elseBody != nil {
		c.script(elseBody)
	}
	for _, j := range endJumps {
		c.patchTo(j)
	}
	return true
}

func (c *compiler) whileForm(cmd *command) bool {
	args, ok := literalArgs(cmd)
	if !ok || len(args) != 2 {
		return false
	}
	cond, err := c.in.compileExpr(args[0])
	if err != nil {
		return false
	}
	body, err := Parse(args[1])
	if err != nil {
		return false
	}

	wrap := c.wrapIdx("while", cmd.line)
	head := c.emit(instr{op: opStepWhile, c: wrap})
	c.exprOps(cond, wrap)
	bf := c.emit(instr{op: opBranchFalse, c: wrap})
	c.depth--
	c.openLoop(head)
	bodyStart := int32(len(c.p.ins))
	c.script(body)
	c.emit(instr{op: opJump, a: head})
	lend := int32(len(c.p.ins))
	c.patchTo(bf) // cond false → Lend
	c.closeLoop(bodyStart, lend, lend)
	c.emit(instr{op: opClearAcc}) // while returns ""
	return true
}

func (c *compiler) foreachForm(cmd *command) bool {
	if len(cmd.words) != 4 {
		return false
	}
	varList, ok := literalText(&cmd.words[1])
	if !ok {
		return false
	}
	bodyText, ok := literalText(&cmd.words[3])
	if !ok {
		return false
	}
	vars, err := ListSplit(varList)
	if err != nil || len(vars) == 0 {
		return false
	}
	body, err := Parse(bodyText)
	if err != nil {
		return false
	}
	inf := feInfo{nvars: int32(len(vars))}
	if c.mode == modeGlobal {
		slots := make([]int32, 0, len(vars))
		for _, v := range vars {
			sl := c.in.gslotIndex(v)
			if sl < 0 {
				slots = nil
				break
			}
			slots = append(slots, int32(sl))
		}
		inf.slots = slots
	}
	if inf.slots == nil {
		inf.names = vars
	}
	itemsLit, itemsStatic := literalText(&cmd.words[2])
	if itemsStatic {
		items, err := ListSplit(itemsLit)
		if err != nil {
			// The tree-walker raises the split error each execution;
			// keep that behavior via generic dispatch.
			return false
		}
		inf.preSplit = strValues(items)
		for k := range inf.preSplit {
			inf.preSplit[k].number()
		}
	}
	fi := int32(len(c.p.fes))
	c.p.fes = append(c.p.fes, inf)

	wrap := c.wrapIdx("foreach", cmd.line)
	if itemsStatic {
		c.emit(instr{op: opForeachInitPre, a: fi})
	} else {
		c.wordPush(&cmd.words[2])
		c.emit(instr{op: opForeachInit, a: fi, c: wrap})
		c.depth--
	}
	c.feDepth++
	head := c.emit(instr{op: opForeachStep, a: fi})
	c.openLoop(head)
	bodyStart := int32(len(c.p.ins))
	c.script(body)
	c.emit(instr{op: opJump, a: head})
	ld := int32(len(c.p.ins))
	c.patchTo(head) // exhausted → LD
	c.closeLoop(bodyStart, ld, ld)
	c.emit(instr{op: opForeachDone})
	c.feDepth--
	return true
}

// openLoop registers a loop at the current static depths. Must be called
// after the iterator/condition setup so the depths describe the state a
// break/continue should restore.
func (c *compiler) openLoop(contPC int32) {
	c.loops = append(c.loops, cloop{
		contPC:    contPC,
		depth:     c.depth,
		feDepth:   c.feDepth,
		nestDepth: c.nestDepth,
	})
}

// closeLoop pops the innermost open loop, resolves its pending static
// break jumps to breakPC, and records the runtime loop scope.
func (c *compiler) closeLoop(start, end, breakPC int32) {
	lp := c.loops[len(c.loops)-1]
	c.loops = c.loops[:len(c.loops)-1]
	for _, j := range lp.breakPatches {
		c.p.ins[j].a = breakPC
	}
	c.p.loops = append(c.p.loops, loopScope{
		start:     start,
		end:       end,
		breakPC:   breakPC,
		contPC:    lp.contPC,
		depth:     lp.depth,
		feDepth:   lp.feDepth,
		nestDepth: lp.nestDepth,
	})
}

func (c *compiler) setForm(cmd *command) bool {
	if len(cmd.words) != 2 && len(cmd.words) != 3 {
		return false
	}
	name, ok := literalText(&cmd.words[1])
	if !ok {
		return false
	}
	slot := int32(-1)
	if c.mode == modeGlobal {
		slot = int32(c.in.gslotIndex(name))
	}
	if len(cmd.words) == 3 {
		c.wordPush(&cmd.words[2])
		if slot >= 0 {
			c.emit(instr{op: opSetSlot, a: slot})
		} else {
			c.emit(instr{op: opSetNamed, a: c.constIdx(name)})
		}
		c.depth--
	} else {
		wrap := c.wrapIdx("set", cmd.line)
		if slot >= 0 {
			c.emit(instr{op: opGetSlot, a: slot, b: c.constIdx(name), c: wrap})
		} else {
			c.emit(instr{op: opGetNamed, a: c.constIdx(name), c: wrap})
		}
	}
	return true
}

func (c *compiler) incrForm(cmd *command) bool {
	if len(cmd.words) != 2 && len(cmd.words) != 3 {
		return false
	}
	name, ok := literalText(&cmd.words[1])
	if !ok {
		return false
	}
	delta := int64(1)
	dynDelta := false
	if len(cmd.words) == 3 {
		if t, ok := literalText(&cmd.words[2]); ok {
			d, ok := parseInt(t)
			if !ok {
				return false // runtime "expected integer" via cmdIncr
			}
			delta = d
		} else {
			dynDelta = true
		}
	}
	slot := int32(-1)
	if c.mode == modeGlobal {
		slot = int32(c.in.gslotIndex(name))
	}
	wrap := c.wrapIdx("incr", cmd.line)
	if dynDelta {
		c.wordPush(&cmd.words[2])
		if slot >= 0 {
			c.emit(instr{op: opIncrSlotDyn, a: slot, c: wrap})
		} else {
			c.emit(instr{op: opIncrNamedDyn, a: c.constIdx(name), c: wrap})
		}
		c.depth--
	} else {
		di := int32(len(c.p.deltas))
		c.p.deltas = append(c.p.deltas, delta)
		if slot >= 0 {
			c.emit(instr{op: opIncrSlot, a: slot, b: di, c: wrap})
		} else {
			c.emit(instr{op: opIncrNamed, a: c.constIdx(name), b: di, c: wrap})
		}
	}
	return true
}

func (c *compiler) exprForm(cmd *command) bool {
	args, ok := literalArgs(cmd)
	if !ok || len(args) == 0 {
		return false
	}
	n, err := c.in.compileExpr(strings.Join(args, " "))
	if err != nil {
		return false
	}
	wrap := c.wrapIdx("expr", cmd.line)
	c.exprOps(n, wrap)
	c.emit(instr{op: opVResult})
	c.depth--
	return true
}

func (c *compiler) returnForm(cmd *command) bool {
	if len(cmd.words) > 2 {
		return false
	}
	if len(cmd.words) == 2 {
		c.wordPush(&cmd.words[1])
		c.emit(instr{op: opReturnVal})
		c.depth--
	} else {
		c.emit(instr{op: opReturnNil})
	}
	return true
}

// flowForm compiles break/continue. When the statement sits directly in a
// compiled loop body — same static stack depths as the loop entry — it is
// a plain jump; otherwise it raises the flow error and the VM's loop table
// (or an outer interpreter level) routes it.
func (c *compiler) flowForm(cmd *command, code flowCode) bool {
	if len(cmd.words) != 1 {
		return false
	}
	if n := len(c.loops); n > 0 {
		lp := &c.loops[n-1]
		if lp.depth == c.depth && lp.feDepth == c.feDepth && lp.nestDepth == c.nestDepth {
			if code == flowBreak {
				j := c.emit(instr{op: opJump})
				lp.breakPatches = append(lp.breakPatches, j)
			} else {
				c.emit(instr{op: opJump, a: lp.contPC})
			}
			return true
		}
	}
	if code == flowBreak {
		c.emit(instr{op: opFlowBreak})
	} else {
		c.emit(instr{op: opFlowContinue})
	}
	return true
}

// exprOps lowers an expression tree to value-stack instructions, one
// result value on the stack. Lazy &&/||/?: become jumps, so untaken
// subtrees are never executed — same semantics as the tree evaluator.
func (c *compiler) exprOps(n exprNode, wrap int32) {
	switch n := n.(type) {
	case *litNode:
		c.emit(instr{op: opVConst, a: c.vconstIdx(n.v)})
		c.depth++
	case *varNode:
		if c.mode == modeGlobal {
			if sl := c.in.gslotIndex(n.name); sl >= 0 {
				c.emit(instr{op: opVSlot, a: int32(sl), b: c.constIdx(n.name), c: wrap})
				c.depth++
				return
			}
		}
		c.emit(instr{op: opVNamed, a: c.constIdx(n.name), c: wrap})
		c.depth++
	case *cmdNode:
		// cmdNode runs the body without the word-substitution depth
		// bump (matching cmdNode.eval), so no opEnterClear here.
		c.emit(instr{op: opClearAcc})
		c.script(n.body)
		c.emit(instr{op: opVFromAcc})
		c.depth++
	case *strNode:
		c.wordPush(&n.w)
		c.emit(instr{op: opVFromStack})
	case *ternNode:
		c.exprOps(n.cond, wrap)
		cj := c.emit(instr{op: opVCondJump, c: wrap})
		c.depth--
		branchDepth := c.depth
		c.exprOps(n.thenN, wrap)
		ej := c.emit(instr{op: opJump})
		c.patchTo(cj)
		c.depth = branchDepth // else branch starts below the then result
		c.exprOps(n.elseN, wrap)
		c.patchTo(ej)
	case *andNode:
		c.exprOps(n.l, wrap)
		aj := c.emit(instr{op: opVAnd, c: wrap})
		c.depth--
		c.truthOps(n.r, wrap)
		c.patchTo(aj)
	case *orNode:
		c.exprOps(n.l, wrap)
		oj := c.emit(instr{op: opVOr, c: wrap})
		c.depth--
		c.truthOps(n.r, wrap)
		c.patchTo(oj)
	case *binNode:
		c.exprOps(n.l, wrap)
		c.exprOps(n.r, wrap)
		c.emit(instr{op: opVBinop, a: n.op, c: wrap})
		c.depth--
	case *unaryNode:
		c.exprOps(n.x, wrap)
		c.emit(instr{op: opVUnary, a: int32(n.op), c: wrap})
	case *funcNode:
		for _, a := range n.args {
			c.exprOps(a, wrap)
		}
		ci := int32(len(c.p.calls))
		c.p.calls = append(c.p.calls, callSite{name: n.name, argc: int32(len(n.args))})
		c.emit(instr{op: opVCall, a: ci, c: wrap})
		c.depth -= int32(len(n.args)) - 1
	}
}

// truthOps compiles the right operand of && or ||, whose value is its
// truth as a canonical boolean. A comparison already yields one, so only
// other operands get an opVTruth.
func (c *compiler) truthOps(n exprNode, wrap int32) {
	c.exprOps(n, wrap)
	if b, ok := n.(*binNode); !ok || b.op < vbEqStr {
		c.emit(instr{op: opVTruth, c: wrap})
	}
}
