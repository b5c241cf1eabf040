package passes

import (
	"repro/internal/ir"
	"repro/internal/telemetry"
)

// inlineCalls replaces direct calls to small, non-recursive functions
// with a copy of the callee body. Must-not-alias intrinsics in the callee
// are cloned along with the rest (the paper counts these as extra "final
// predicates"). The perlbench case study (§4.2.2) hinges on inlining: a
// shorter optimized callee fits the threshold and gets inlined
// everywhere, which is also why the cost model carries an icache penalty
// for oversized functions.
//
// Callee bodies come from the live module. The scheduler runs the call
// graph's SCCs bottom-up, so a callee outside f's SCC has already been
// optimized and no worker mutates it any more; a callee inside f's SCC
// runs on the same worker as f.
func inlineCalls(mod *ir.Module, f *ir.Func, threshold int, tel *telemetry.Session) int {
	if mod == nil {
		return 0
	}
	inlined := 0
	for bi := 0; bi < len(f.Blocks); bi++ {
		b := f.Blocks[bi]
		for i := 0; i < len(b.Instrs); i++ {
			in := b.Instrs[i]
			if in.Op != ir.OpCall || in.Callee == "" || in.Callee == f.Name {
				continue
			}
			callee := mod.FindFunc(in.Callee)
			if callee == nil || len(callee.Blocks) == 0 {
				continue
			}
			if callee.NumInstrs() > threshold || isRecursive(callee) {
				continue
			}
			if inlineOne(f, b, i, in, callee) {
				inlined++
				emitRemark(tel, nil, "inline", "CallInlined:"+callee.Name, f.Name, b.Name)
				// The block was split; restart scanning from the next
				// block to avoid revisiting cloned instructions twice.
				break
			}
		}
	}
	return inlined
}

func isRecursive(f *ir.Func) bool {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpCall && in.Callee == f.Name {
				return true
			}
		}
	}
	return false
}

// inlineOne splices callee's body in place of the call at b.Instrs[idx].
func inlineOne(f *ir.Func, b *ir.Block, idx int, call *ir.Instr, callee *ir.Func) bool {
	// Split b at the call: tail goes to a continuation block.
	cont := f.NewBlock("inline.cont")
	tail := make([]*ir.Instr, len(b.Instrs[idx+1:]))
	copy(tail, b.Instrs[idx+1:])
	for _, in := range tail {
		ir.SetBlock(in, cont)
	}
	cont.Instrs = tail
	b.Instrs = b.Instrs[:idx] // drop the call and the tail

	// Result slot for the return value.
	var resSlot *ir.Instr
	if call.Cls != ir.Void {
		resSlot = &ir.Instr{Op: ir.OpAlloca, Cls: ir.Ptr, Name: "inline.ret", AllocSz: call.Cls.Size(), Span: call.Span}
		f.Entry().InsertBefore(0, resSlot)
	}

	// Clone callee blocks.
	remap := map[ir.Value]ir.Value{}
	blockMap := map[*ir.Block]*ir.Block{}
	for _, cb := range callee.Blocks {
		nb := f.NewBlock("inl." + callee.Name)
		blockMap[cb] = nb
	}
	for pi, p := range callee.Params {
		if pi < len(call.Args) {
			remap[p] = call.Args[pi]
		} else {
			remap[p] = ir.ConstInt(p.Cls, 0)
		}
	}
	for _, cb := range callee.Blocks {
		nb := blockMap[cb]
		for _, in := range cb.Instrs {
			cl := &ir.Instr{
				Op: in.Op, Cls: in.Cls, Name: in.Name, AllocSz: in.AllocSz,
				Scale: in.Scale, Off: in.Off, Pred: in.Pred, Callee: in.Callee,
				Width: in.Width, VecOp: in.VecOp, Unsigned: in.Unsigned, Meta: in.Meta,
				Volatile: in.Volatile, Span: in.Span,
			}
			if in.Op == ir.OpRet {
				// Store result and branch to the continuation.
				if len(in.Args) > 0 && resSlot != nil {
					v := in.Args[0]
					if r, ok := remap[v]; ok {
						v = r
					}
					st := &ir.Instr{Op: ir.OpStore, Cls: ir.Void, Args: []ir.Value{resSlot, v}, Span: in.Span}
					nb.Append(st)
				}
				nb.Append(&ir.Instr{Op: ir.OpBr, Cls: ir.Void, Target: cont, Span: in.Span})
				continue
			}
			cl.Args = make([]ir.Value, len(in.Args))
			for ai, a := range in.Args {
				if r, ok := remap[a]; ok {
					cl.Args[ai] = r
				} else {
					cl.Args[ai] = a
				}
			}
			if in.Target != nil {
				cl.Target = blockMap[in.Target]
			}
			if in.Then != nil {
				cl.Then = blockMap[in.Then]
			}
			if in.Else != nil {
				cl.Else = blockMap[in.Else]
			}
			nb.Append(cl)
			remap[in] = cl
		}
	}

	// b falls through to the inlined entry.
	b.Append(&ir.Instr{Op: ir.OpBr, Cls: ir.Void, Target: blockMap[callee.Entry()], Span: call.Span})

	// Replace the call's value with a load of the result slot at the top
	// of the continuation.
	if resSlot != nil {
		ld := &ir.Instr{Op: ir.OpLoad, Cls: call.Cls, Args: []ir.Value{resSlot}, Span: call.Span}
		cont.InsertBefore(0, ld)
		replaceUses(f, call, ld)
	}
	return true
}
