package script

import (
	"fmt"
	"io"
	"strings"
)

// This file is the Program disassembler: a readable rendering of the
// compiled instruction stream, used by the -dump-prog CLI flags to debug
// fused programs.

var opNames = [...]string{
	opStep:           "step",
	opStepWhile:      "step.while",
	opClearAcc:       "clear",
	opJump:           "jump",
	opPushConst:      "push.const",
	opPushSlot:       "push.slot",
	opPushVarNamed:   "push.named",
	opConcat:         "concat",
	opEnterClear:     "nest.enter.clear",
	opLeavePush:      "nest.leave.push",
	opInvoke:         "invoke",
	opInvokeDyn:      "invoke.dyn",
	opSetSlot:        "set.slot",
	opGetSlot:        "get.slot",
	opSetNamed:       "set.named",
	opGetNamed:       "get.named",
	opIncrSlot:       "incr.slot",
	opIncrSlotDyn:    "incr.slot.dyn",
	opIncrNamed:      "incr.named",
	opIncrNamedDyn:   "incr.named.dyn",
	opBranchFalse:    "br.false",
	opReturnNil:      "return",
	opReturnVal:      "return.val",
	opFlowBreak:      "flow.break",
	opFlowContinue:   "flow.continue",
	opForeachInit:    "fe.init",
	opForeachInitPre: "fe.init.pre",
	opForeachStep:    "fe.step",
	opForeachDone:    "fe.done",
	opVConst:         "v.const",
	opVSlot:          "v.slot",
	opVNamed:         "v.named",
	opVFromAcc:       "v.acc",
	opVFromStack:     "v.stack",
	opVBinop:         "v.binop",
	opVUnary:         "v.unary",
	opVTruth:         "v.truth",
	opVAnd:           "v.and",
	opVOr:            "v.or",
	opVCondJump:      "v.condjump",
	opVCall:          "v.call",
	opVResult:        "v.result",
	opStepInvoke:     "step.invoke",
	opConstBinop:     "const.binop",
	opCmpConstBr:     "cmp.const.br",
	opSlotBinop:      "slot.binop",
	opStepIncrSlot:   "step.incr.slot",
	opNotBr:          "not.br",
	opInvokeCmpBr:    "invoke.cmp.br",
}

func qconst(s string) string {
	if len(s) > 24 {
		s = s[:21] + "..."
	}
	return fmt.Sprintf("%q", s)
}

// Disassemble renders p's instruction stream, one instruction per line,
// with operands decoded against the side tables.
func Disassemble(p *Program) string {
	var b strings.Builder
	for k := range p.ins {
		i := &p.ins[k]
		name := "?"
		if int(i.op) < len(opNames) && opNames[i.op] != "" {
			name = opNames[i.op]
		}
		fmt.Fprintf(&b, "%4d  %-17s", k, name)
		switch i.op {
		case opJump, opBranchFalse, opVAnd, opVOr, opVCondJump, opNotBr:
			fmt.Fprintf(&b, "-> %d", i.a)
		case opPushConst:
			fmt.Fprintf(&b, "%s", qconst(p.consts[i.a]))
		case opPushSlot:
			fmt.Fprintf(&b, "slot %d (%s)", i.a, qconst(p.consts[i.b]))
		case opPushVarNamed, opGetNamed, opSetNamed, opVNamed:
			fmt.Fprintf(&b, "%s", qconst(p.consts[i.a]))
		case opConcat:
			fmt.Fprintf(&b, "plan %d over %d parts", i.a, i.b)
		case opInvoke:
			site := &p.invokes[i.a]
			fmt.Fprintf(&b, "%s/%d", site.name, site.argc)
		case opInvokeDyn:
			fmt.Fprintf(&b, "argc=%d", i.a)
		case opSetSlot, opGetSlot, opIncrSlotDyn:
			fmt.Fprintf(&b, "slot %d", i.a)
		case opIncrSlot:
			fmt.Fprintf(&b, "slot %d += %d", i.a, p.deltas[i.b])
		case opIncrNamed:
			fmt.Fprintf(&b, "%s += %d", qconst(p.consts[i.a]), p.deltas[i.b])
		case opIncrNamedDyn:
			fmt.Fprintf(&b, "%s", qconst(p.consts[i.a]))
		case opForeachInit, opForeachInitPre, opForeachStep:
			inf := &p.fes[i.a]
			fmt.Fprintf(&b, "fe %d nvars=%d", i.a, inf.nvars)
			if i.op == opForeachStep {
				fmt.Fprintf(&b, " done -> %d", i.b)
			}
		case opVConst:
			fmt.Fprintf(&b, "%s", qconst(p.vconsts[i.a].String()))
		case opVSlot:
			fmt.Fprintf(&b, "slot %d (%s)", i.a, qconst(p.consts[i.b]))
		case opVBinop:
			fmt.Fprintf(&b, "%s", binopName[i.a])
		case opVUnary:
			fmt.Fprintf(&b, "%c", byte(i.a))
		case opVCall:
			cs := &p.calls[i.a]
			fmt.Fprintf(&b, "%s/%d", cs.name, cs.argc)
		case opStepInvoke, opInvokeCmpBr:
			f := &p.fused[i.a]
			site := &p.invokes[f.site]
			fmt.Fprintf(&b, "%s/%d", site.name, site.argc)
			for _, as := range f.args {
				switch as.kind {
				case argConst:
					fmt.Fprintf(&b, " %s", qconst(p.consts[as.a]))
				case argSlot:
					fmt.Fprintf(&b, " slot%d", as.a)
				case argNamed:
					fmt.Fprintf(&b, " $%s", p.consts[as.a])
				}
			}
			if f.flags&fuseClearAcc != 0 {
				b.WriteString(" [clear]")
			}
			if f.flags&fusePushCoerce != 0 {
				b.WriteString(" [coerce-push]")
			}
			if f.flags&fuseInfoExists != 0 {
				if f.slot >= 0 {
					fmt.Fprintf(&b, " [info-exists slot%d]", f.slot)
				} else {
					b.WriteString(" [info-exists]")
				}
			}
			if i.op == opInvokeCmpBr {
				fmt.Fprintf(&b, " %s %s false -> %d", binopName[f.binop], qconst(f.cstr), f.target)
				if f.flags&fuseRawEq != 0 {
					b.WriteString(" [raw-eq]")
				}
			}
		case opConstBinop:
			fmt.Fprintf(&b, "%s %s", binopName[i.b], qconst(p.vconsts[i.a].String()))
		case opCmpConstBr:
			f := &p.fused[i.a]
			fmt.Fprintf(&b, "%s %s false -> %d", binopName[f.binop], qconst(p.vconsts[f.vconst].String()), f.target)
		case opSlotBinop:
			f := &p.fused[i.a]
			fmt.Fprintf(&b, "slot %d %s %s", f.slot, binopName[f.binop], qconst(p.vconsts[f.vconst].String()))
		case opStepIncrSlot:
			f := &p.fused[i.a]
			fmt.Fprintf(&b, "slot %d += %d", f.slot, f.delta)
		}
		if i.line > 0 {
			fmt.Fprintf(&b, "  ; line %d", i.line)
		}
		b.WriteByte('\n')
	}
	if len(p.loops) > 0 {
		for k := range p.loops {
			lp := &p.loops[k]
			fmt.Fprintf(&b, "loop  [%d,%d) break -> %d continue -> %d\n", lp.start, lp.end, lp.breakPC, lp.contPC)
		}
	}
	return b.String()
}

// DumpProgram compiles src in in's global scope and writes the listing to
// w — the -dump-prog rendering.
func (in *Interp) DumpProgram(w io.Writer, title, src string) error {
	s, err := Parse(src)
	if err != nil {
		return err
	}
	p := compileProgram(in, s, modeGlobal)
	fmt.Fprintf(w, "=== %s: %d instructions, %d fused sites\n", title, len(p.ins), len(p.fused))
	io.WriteString(w, Disassemble(p))
	return nil
}
