package script

import "sync/atomic"

// This file is the second half of compileProgram: the one pass that
// rewrites the lowered instruction stream, in place, before a Program is
// ever run. Superinstruction fusion collapses the common instruction pairs
// and triples of the filter corpus (load+compare+branch, step+incr,
// command dispatch with static args) into single opcodes.
//
// The pass is an exact program transformation that depends only on the
// program text: fused opcodes reproduce the unfused sequence's stack
// states, step accounting, and errors at every observable point, and what
// can change after compilation (command bindings) is still checked at run
// time by the inline caches the lowering emitted. A Program is therefore
// compiled once and never revalidated. The differential parity harness
// (FuzzCompiledParity, TestEngineDiff*, TestOptimizeDiff*) enforces
// byte-identical behavior versus the tree-walker.

// Compiler statistics, process-wide. Counters are atomic so the fleet
// /metrics endpoint can read them while campaign workers run.
var (
	statCompiles atomic.Uint64 // programs compiled from source
	statFusedOps atomic.Uint64 // superinstructions emitted
)

// OptStats is a snapshot of the compiler counters.
type OptStats struct {
	Compiles uint64
	FusedOps uint64
}

// Stats returns the process-wide compiler counters.
func Stats() OptStats {
	return OptStats{Compiles: statCompiles.Load(), FusedOps: statFusedOps.Load()}
}

// leaders returns the set of instruction indices that are jump targets or
// loop boundaries — positions no fusion group may swallow except as its
// head.
func leaders(p *Program) map[int32]bool {
	ld := make(map[int32]bool)
	for k := range p.ins {
		i := &p.ins[k]
		switch i.op {
		case opJump, opBranchFalse, opVAnd, opVOr, opVCondJump:
			ld[i.a] = true
		case opForeachStep:
			ld[i.b] = true
		}
	}
	for k := range p.loops {
		lp := &p.loops[k]
		ld[lp.start] = true
		ld[lp.end] = true
		ld[lp.breakPC] = true
		ld[lp.contPC] = true
	}
	return ld
}

// fuse collapses common instruction sequences of p into superinstructions,
// then remaps every jump target, loop scope and fused-op target to the new
// indices. A group's interior instructions must not be jump targets; the
// head may be. Wrap indices must agree across a group so fused errors wrap
// identically.
func fuse(in *Interp, p *Program) {
	ins := p.ins
	ld := leaders(p)
	out := make([]instr, 0, len(ins))
	// oldToNew maps each group's head, and the end of the stream, to its
	// new index; nothing targets a group's interior.
	oldToNew := make([]int32, len(ins)+1)
	emit := func(i instr, k int) {
		oldToNew[k] = int32(len(out))
		out = append(out, i)
	}
	free := func(k, n int) bool {
		if k+n > len(ins) {
			return false
		}
		for j := k + 1; j < k+n; j++ {
			if ld[int32(j)] {
				return false
			}
		}
		return true
	}
	fusedIdx := func(f fusedOp) int32 {
		p.fused = append(p.fused, f)
		return int32(len(p.fused) - 1)
	}
	// tryInvoke matches [opStep, pushes..., opInvoke] at k (the generic
	// command shape) and returns the fused op and group length.
	tryInvoke := func(k int) (instr, int, bool) {
		if ins[k].op != opStep {
			return instr{}, 0, false
		}
		j := k + 1
		var args []argSrc
		for j < len(ins) && len(args) <= 4 {
			if ld[int32(j)] {
				return instr{}, 0, false
			}
			switch ins[j].op {
			case opPushConst:
				args = append(args, argSrc{kind: argConst, a: ins[j].a, line: ins[j].line})
			case opPushSlot:
				args = append(args, argSrc{kind: argSlot, a: ins[j].a, b: ins[j].b, line: ins[j].line})
			case opPushVarNamed:
				args = append(args, argSrc{kind: argNamed, a: ins[j].a, line: ins[j].line})
			case opInvoke:
				site := &p.invokes[ins[j].a]
				if int(site.argc) != len(args) || ins[j].c != ins[k].c {
					return instr{}, 0, false
				}
				f := fusedOp{site: ins[j].a, args: args}
				if site.name == "info" && len(args) == 2 &&
					args[0].kind == argConst && args[1].kind == argConst &&
					p.consts[args[0].a] == "exists" {
					// `info exists <literal>`: pre-intern the global slot
					// so the VM answers existence from the slot table while
					// the site still binds the builtin (site.isInfo).
					f.flags |= fuseInfoExists
					f.nameC = args[1].a
					f.slot = -1
					if sl := in.gslotIndex(p.consts[args[1].a]); sl >= 0 {
						f.slot = int32(sl)
					}
				}
				return instr{op: opStepInvoke, a: fusedIdx(f), c: ins[j].c, line: ins[j].line}, j - k + 1, true
			default:
				return instr{}, 0, false
			}
			j++
		}
		return instr{}, 0, false
	}
	for k := 0; k < len(ins); {
		i := &ins[k]
		// [opClearAcc][opStep ... opInvoke][opVFromAcc]: an expr [command]
		// operand with a single generic command body. When the coerced
		// result feeds straight into an eq/ne against a constant and its
		// branch, the whole comparison fuses too (opInvokeCmpBr) — the
		// `[msg_type m] eq "TYPE"` idiom that dominates filter scripts.
		if i.op == opClearAcc && free(k, 2) {
			if fi, n, ok := tryInvoke(k + 1); ok && k+1+n < len(ins) &&
				!ld[int32(k+1+n)] && ins[k+1+n].op == opVFromAcc && free(k, n+2) {
				j := k + 1 + n // the opVFromAcc
				if free(k, n+5) && ins[j+1].op == opVConst && ins[j+2].op == opVBinop &&
					(ins[j+2].a == vbEqStr || ins[j+2].a == vbNeStr) &&
					ins[j+3].op == opBranchFalse {
					f := &p.fused[fi.a]
					f.flags |= fuseClearAcc
					f.vconst = ins[j+1].a
					f.binop = ins[j+2].a
					f.target = ins[j+3].a
					f.cstr = p.vconsts[f.vconst].String()
					if c := coerce(f.cstr); c.String() == f.cstr {
						f.flags |= fuseRawEq
					}
					emit(instr{op: opInvokeCmpBr, a: fi.a, c: fi.c, line: fi.line}, k)
					k += n + 5
					statFusedOps.Add(1)
					continue
				}
				p.fused[fi.a].flags |= fuseClearAcc | fusePushCoerce
				emit(fi, k)
				k += n + 2
				statFusedOps.Add(1)
				continue
			}
			// [opClearAcc][opStep][opIncrSlot]: an incr statement sitting
			// at a branch target.
			if free(k, 3) && ins[k+1].op == opStep && ins[k+2].op == opIncrSlot {
				f := fusedOp{flags: fuseClearAcc, slot: ins[k+2].a, delta: p.deltas[ins[k+2].b]}
				emit(instr{op: opStepIncrSlot, a: fusedIdx(f), c: ins[k+2].c, line: ins[k+1].line}, k)
				k += 3
				statFusedOps.Add(1)
				continue
			}
		}
		if i.op == opStep {
			// [opStep][opIncrSlot]: the classic `incr counter` statement.
			if free(k, 2) && ins[k+1].op == opIncrSlot {
				f := fusedOp{slot: ins[k+1].a, delta: p.deltas[ins[k+1].b]}
				emit(instr{op: opStepIncrSlot, a: fusedIdx(f), c: ins[k+1].c, line: i.line}, k)
				k += 2
				statFusedOps.Add(1)
				continue
			}
			if fi, n, ok := tryInvoke(k); ok {
				emit(fi, k)
				k += n
				statFusedOps.Add(1)
				continue
			}
		}
		// opVConst carries no wrap index (it cannot error), so only the
		// instructions that can fail need matching wraps.
		if i.op == opVSlot && free(k, 3) &&
			ins[k+1].op == opVConst && ins[k+2].op == opVBinop &&
			ins[k+2].c == i.c {
			f := fusedOp{slot: i.a, nameC: i.b, vconst: ins[k+1].a, binop: ins[k+2].a}
			emit(instr{op: opSlotBinop, a: fusedIdx(f), c: i.c, line: i.line}, k)
			k += 3
			statFusedOps.Add(1)
			continue
		}
		if i.op == opVConst && free(k, 2) && ins[k+1].op == opVBinop {
			if free(k, 3) && ins[k+2].op == opBranchFalse && ins[k+2].c == ins[k+1].c {
				f := fusedOp{vconst: i.a, binop: ins[k+1].a, target: ins[k+2].a}
				emit(instr{op: opCmpConstBr, a: fusedIdx(f), c: ins[k+1].c, line: i.line}, k)
				k += 3
				statFusedOps.Add(1)
				continue
			}
			emit(instr{op: opConstBinop, a: i.a, b: ins[k+1].a, c: ins[k+1].c, line: i.line}, k)
			k += 2
			statFusedOps.Add(1)
			continue
		}
		if i.op == opVUnary && byte(i.a) == '!' && free(k, 2) &&
			ins[k+1].op == opBranchFalse {
			emit(instr{op: opNotBr, a: ins[k+1].a, c: i.c, line: i.line}, k)
			k += 2
			statFusedOps.Add(1)
			continue
		}
		emit(*i, k)
		k++
	}
	oldToNew[len(ins)] = int32(len(out))
	p.ins = out
	for k := range p.ins {
		i := &p.ins[k]
		switch i.op {
		case opJump, opBranchFalse, opVAnd, opVOr, opVCondJump, opNotBr:
			i.a = oldToNew[i.a]
		case opForeachStep:
			i.b = oldToNew[i.b]
		case opCmpConstBr, opInvokeCmpBr:
			p.fused[i.a].target = oldToNew[p.fused[i.a].target]
		}
	}
	for k := range p.loops {
		lp := &p.loops[k]
		lp.start, lp.end = oldToNew[lp.start], oldToNew[lp.end]
		lp.breakPC, lp.contPC = oldToNew[lp.breakPC], oldToNew[lp.contPC]
	}
}
