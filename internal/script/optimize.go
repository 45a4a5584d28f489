package script

import "sync/atomic"

// This file is the second half of compileProgram: the passes that rewrite
// the lowered instruction stream, in place, before a Program is ever run.
//
//  1. constant folding — evaluate operator trees and conditions over
//     literal operands, turning constant conditionals into jumps and
//     dropping the truth-normalization after a comparison (the identity
//     that lets the compare-and-branch fusions below match);
//  2. superinstruction fusion — collapse the common instruction pairs and
//     triples of the filter corpus (load+compare+branch, step+incr,
//     command dispatch with static args) into single opcodes.
//
// Both passes are exact program transformations that depend only on the
// program text: fused opcodes reproduce the unfused sequence's stack
// states, step accounting, and errors at every observable point, and what
// can change after compilation (command bindings) is still checked at run
// time by the inline caches the lowering emitted. A Program is therefore
// compiled once and never revalidated. The differential parity harness
// (FuzzCompiledParity, TestEngineDiff*, TestOptimizeDiff*) enforces
// byte-identical behavior versus the tree-walker.

// Compiler and cache statistics, process-wide. Counters are atomic so
// the fleet /metrics endpoint can read them while campaign workers run.
var (
	statCompiles    atomic.Uint64 // programs compiled from source
	statFusedOps    atomic.Uint64 // superinstructions emitted
	statFoldedOps   atomic.Uint64 // instructions removed by constant folding
	statCacheHits   atomic.Uint64 // srcCache hits (scripts/exprs/programs)
	statCacheMisses atomic.Uint64 // srcCache misses
)

// OptStats is a snapshot of the compiler and script-cache counters.
type OptStats struct {
	Compiles    uint64
	FusedOps    uint64
	FoldedOps   uint64
	CacheHits   uint64
	CacheMisses uint64
}

// Stats returns the process-wide compiler and cache counters.
func Stats() OptStats {
	return OptStats{
		Compiles:    statCompiles.Load(),
		FusedOps:    statFusedOps.Load(),
		FoldedOps:   statFoldedOps.Load(),
		CacheHits:   statCacheHits.Load(),
		CacheMisses: statCacheMisses.Load(),
	}
}

// optimizer rewrites p's instruction stream in place.
type optimizer struct {
	in *Interp
	p  *Program
}

func (o *optimizer) vconstIdx(v Value) int32 {
	o.p.vconsts = append(o.p.vconsts, v)
	return int32(len(o.p.vconsts) - 1)
}

// leaders returns the set of instruction indices that are jump targets or
// loop boundaries — positions no fusion group may swallow except as its
// head, and the anchors the remapper must preserve.
func (o *optimizer) leaders() map[int32]bool {
	ld := make(map[int32]bool)
	for k := range o.p.ins {
		i := &o.p.ins[k]
		switch i.op {
		case opJump, opBranchFalse, opVAnd, opVOr, opVCondJump, opNotBr:
			ld[i.a] = true
		case opForeachStep:
			ld[i.b] = true
		case opCmpConstBr, opInvokeCmpBr:
			ld[o.p.fused[i.a].target] = true
		}
	}
	for k := range o.p.loops {
		lp := &o.p.loops[k]
		ld[lp.start] = true
		ld[lp.end] = true
		ld[lp.breakPC] = true
		ld[lp.contPC] = true
	}
	return ld
}

// rewrite is one structural pass: groups of old instructions are replaced
// by single new instructions (or dropped), then every target is remapped.
type rewrite struct {
	o      *optimizer
	ins    []instr
	oldLen int
	starts []int32 // per new instruction: first old index of its group
}

func (o *optimizer) newRewrite() *rewrite {
	return &rewrite{o: o, oldLen: len(o.p.ins)}
}

func (r *rewrite) emit(i instr, oldStart int32) {
	r.ins = append(r.ins, i)
	r.starts = append(r.starts, oldStart)
}

// apply replaces the program's instruction stream and remaps every jump
// target, loop scope, and fused-op target from old indices to new ones. A
// dropped old index maps to the next surviving instruction.
func (r *rewrite) apply() {
	p := r.o.p
	oldToNew := make([]int32, r.oldLen+1)
	oldToNew[r.oldLen] = int32(len(r.ins))
	ni := len(r.starts) - 1
	for oi := r.oldLen - 1; oi >= 0; oi-- {
		for ni >= 0 && r.starts[ni] > int32(oi) {
			ni--
		}
		if ni >= 0 && r.starts[ni] == int32(oi) {
			oldToNew[oi] = int32(ni)
		} else {
			oldToNew[oi] = oldToNew[oi+1]
		}
	}
	remap := func(t int32) int32 { return oldToNew[t] }
	p.ins = r.ins
	for k := range p.ins {
		i := &p.ins[k]
		switch i.op {
		case opJump, opBranchFalse, opVAnd, opVOr, opVCondJump, opNotBr:
			i.a = remap(i.a)
		case opForeachStep:
			i.b = remap(i.b)
		case opCmpConstBr, opInvokeCmpBr:
			p.fused[i.a].target = remap(p.fused[i.a].target)
		}
	}
	loops := p.loops[:0]
	for k := range p.loops {
		lp := p.loops[k]
		lp.start = remap(lp.start)
		lp.end = remap(lp.end)
		lp.breakPC = remap(lp.breakPC)
		lp.contPC = remap(lp.contPC)
		if lp.start < lp.end {
			loops = append(loops, lp)
		}
	}
	p.loops = loops
}

// fold runs one peephole constant-folding pass, reporting whether it
// changed anything. Folds only fire when the folded evaluation succeeds;
// anything that would error at runtime is left for the VM so the error
// (and its wrapping) is produced by the same code path as ever.
func (o *optimizer) fold() bool {
	ins := o.p.ins
	ld := o.leaders()
	r := o.newRewrite()
	changed := false
	at := func(k int) *instr { return &ins[k] }
	for k := 0; k < len(ins); {
		i := at(k)
		// All two/three-instruction windows below require the interior
		// instructions to not be jump targets.
		free := func(n int) bool {
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
		if i.op == opVConst && free(3) &&
			at(k+1).op == opVConst && at(k+2).op == opVBinop {
			if v, err := binop(at(k+2).a, &o.p.vconsts[i.a], &o.p.vconsts[at(k+1).a]); err == nil {
				r.emit(instr{op: opVConst, a: o.vconstIdx(v), line: i.line}, int32(k))
				k += 3
				changed = true
				statFoldedOps.Add(2)
				continue
			}
		}
		if i.op == opVConst && free(2) && at(k+1).op == opVUnary {
			if v, err := unop(byte(at(k+1).a), &o.p.vconsts[i.a]); err == nil {
				r.emit(instr{op: opVConst, a: o.vconstIdx(v), line: i.line}, int32(k))
				k += 2
				changed = true
				statFoldedOps.Add(1)
				continue
			}
		}
		if i.op == opVConst && free(2) && at(k+1).op == opVTruth {
			if b, err := o.p.vconsts[i.a].truth(); err == nil {
				r.emit(instr{op: opVConst, a: o.vconstIdx(boolv(b)), line: i.line}, int32(k))
				k += 2
				changed = true
				statFoldedOps.Add(1)
				continue
			}
		}
		if i.op == opVBinop && i.a >= vbEqStr && free(2) && at(k+1).op == opVTruth {
			// Comparison results are already canonical booleans; the
			// following truth-normalization is an identity.
			r.emit(*i, int32(k))
			r.starts[len(r.starts)-1] = int32(k)
			k += 2
			changed = true
			statFoldedOps.Add(1)
			continue
		}
		if i.op == opVConst && free(2) &&
			(at(k+1).op == opBranchFalse || at(k+1).op == opVCondJump) {
			if b, err := o.p.vconsts[i.a].truth(); err == nil {
				if b {
					// Fall through: both instructions vanish.
					r.emit(instr{op: opNop, line: i.line}, int32(k))
				} else {
					r.emit(instr{op: opJump, a: at(k + 1).a, line: i.line}, int32(k))
				}
				k += 2
				changed = true
				statFoldedOps.Add(1)
				continue
			}
		}
		if i.op == opVConst && free(2) && (at(k+1).op == opVAnd || at(k+1).op == opVOr) {
			if b, err := o.p.vconsts[i.a].truth(); err == nil {
				isAnd := at(k+1).op == opVAnd
				if (isAnd && b) || (!isAnd && !b) {
					// Short-circuit not taken: evaluation continues with
					// the right operand; the pair vanishes.
					r.emit(instr{op: opNop, line: i.line}, int32(k))
					k += 2
					changed = true
					statFoldedOps.Add(1)
					continue
				}
				// Short-circuit taken: push the canonical boolean and jump.
				r.emit(instr{op: opVConst, a: o.vconstIdx(boolv(b)), line: i.line}, int32(k))
				r.emit(instr{op: opJump, a: at(k + 1).a, line: i.line}, int32(k+1))
				k += 2
				changed = true
				continue
			}
		}
		if i.op == opNop {
			// Nops from earlier folds: drop once nothing targets them.
			k++
			changed = true
			continue
		}
		r.emit(*i, int32(k))
		k++
	}
	if changed {
		r.apply()
	}
	return changed
}

// fuse collapses common instruction sequences into superinstructions. A
// group's interior instructions must not be jump targets; the head may be.
// Wrap indices must agree across a group so fused errors wrap identically.
func (o *optimizer) fuse() {
	ins := o.p.ins
	ld := o.leaders()
	r := o.newRewrite()
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
		o.p.fused = append(o.p.fused, f)
		return int32(len(o.p.fused) - 1)
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
				site := &o.p.invokes[ins[j].a]
				if int(site.argc) != len(args) || ins[j].c != ins[k].c {
					return instr{}, 0, false
				}
				f := fusedOp{site: ins[j].a, args: args}
				if site.name == "info" && len(args) == 2 &&
					args[0].kind == argConst && args[1].kind == argConst &&
					o.p.consts[args[0].a] == "exists" {
					// `info exists <literal>`: pre-intern the global slot
					// so the VM answers existence from the slot table while
					// the site still binds the builtin (site.isInfo).
					f.flags |= fuseInfoExists
					f.nameC = args[1].a
					f.slot = -1
					if sl := o.in.gslotIndex(o.p.consts[args[1].a]); sl >= 0 {
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
					f := &o.p.fused[fi.a]
					f.flags |= fuseClearAcc
					f.vconst = ins[j+1].a
					f.binop = ins[j+2].a
					f.target = ins[j+3].a
					f.cstr = o.p.vconsts[f.vconst].String()
					if c := coerce(f.cstr); c.String() == f.cstr {
						f.flags |= fuseRawEq
					}
					r.emit(instr{op: opInvokeCmpBr, a: fi.a, c: fi.c, line: fi.line}, int32(k))
					k += n + 5
					statFusedOps.Add(1)
					continue
				}
				o.p.fused[fi.a].flags |= fuseClearAcc | fusePushCoerce
				r.emit(fi, int32(k))
				k += n + 2
				statFusedOps.Add(1)
				continue
			}
			// [opClearAcc][opStep][opIncrSlot]: an incr statement sitting
			// at a branch target.
			if free(k, 3) && ins[k+1].op == opStep && ins[k+2].op == opIncrSlot {
				f := fusedOp{flags: fuseClearAcc, slot: ins[k+2].a, delta: o.p.deltas[ins[k+2].b]}
				r.emit(instr{op: opStepIncrSlot, a: fusedIdx(f), c: ins[k+2].c, line: ins[k+1].line}, int32(k))
				k += 3
				statFusedOps.Add(1)
				continue
			}
		}
		if i.op == opStep {
			// [opStep][opIncrSlot]: the classic `incr counter` statement.
			if free(k, 2) && ins[k+1].op == opIncrSlot {
				f := fusedOp{slot: ins[k+1].a, delta: o.p.deltas[ins[k+1].b]}
				r.emit(instr{op: opStepIncrSlot, a: fusedIdx(f), c: ins[k+1].c, line: i.line}, int32(k))
				k += 2
				statFusedOps.Add(1)
				continue
			}
			if fi, n, ok := tryInvoke(k); ok {
				r.emit(fi, int32(k))
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
			r.emit(instr{op: opSlotBinop, a: fusedIdx(f), c: i.c, line: i.line}, int32(k))
			k += 3
			statFusedOps.Add(1)
			continue
		}
		if i.op == opVConst && free(k, 2) && ins[k+1].op == opVBinop {
			if free(k, 3) && ins[k+2].op == opBranchFalse && ins[k+2].c == ins[k+1].c {
				f := fusedOp{vconst: i.a, binop: ins[k+1].a, target: ins[k+2].a}
				r.emit(instr{op: opCmpConstBr, a: fusedIdx(f), c: ins[k+1].c, line: i.line}, int32(k))
				k += 3
				statFusedOps.Add(1)
				continue
			}
			r.emit(instr{op: opConstBinop, a: i.a, b: ins[k+1].a, c: ins[k+1].c, line: i.line}, int32(k))
			k += 2
			statFusedOps.Add(1)
			continue
		}
		if i.op == opVUnary && byte(i.a) == '!' && free(k, 2) &&
			ins[k+1].op == opBranchFalse {
			r.emit(instr{op: opNotBr, a: ins[k+1].a, c: i.c, line: i.line}, int32(k))
			k += 2
			statFusedOps.Add(1)
			continue
		}
		if i.op == opEnterNest && free(k, 2) && ins[k+1].op == opClearAcc {
			r.emit(instr{op: opEnterClear, line: i.line}, int32(k))
			k += 2
			statFusedOps.Add(1)
			continue
		}
		if i.op == opLeaveNest && free(k, 2) && ins[k+1].op == opPushAcc {
			r.emit(instr{op: opLeavePush, line: i.line}, int32(k))
			k += 2
			statFusedOps.Add(1)
			continue
		}
		r.emit(*i, int32(k))
		k++
	}
	r.apply()
}
