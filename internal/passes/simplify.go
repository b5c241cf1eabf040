package passes

import (
	"repro/internal/ir"
)

// simplifyCFG removes unreachable blocks, folds constant conditional
// branches, forms selects from store diamonds (if-conversion — what lets
// the ternary bodies of minmax and MagickMax become vectorizable
// straight-line code), and merges straight-line block chains.
func simplifyCFG(f *ir.Func) int {
	changed := 0
	changed += formSelects(f)
	// Fold constant condbrs.
	for _, b := range f.Blocks {
		t := b.Terminator()
		if t == nil || t.Op != ir.OpCondBr {
			continue
		}
		if c, ok := t.Args[0].(*ir.Const); ok && !c.Cls.IsFloat() {
			target := t.Else
			if c.I != 0 {
				target = t.Then
			}
			t.Op = ir.OpBr
			t.Args = nil
			t.Target = target
			t.Then, t.Else = nil, nil
			changed++
		} else if t.Then == t.Else {
			t.Op = ir.OpBr
			t.Args = nil
			t.Target = t.Then
			t.Then, t.Else = nil, nil
			changed++
		}
	}
	// Remove unreachable blocks.
	reach := map[*ir.Block]bool{}
	var stack []*ir.Block
	if e := f.Entry(); e != nil {
		reach[e] = true
		stack = append(stack, e)
	}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range b.Succs() {
			if !reach[s] {
				reach[s] = true
				stack = append(stack, s)
			}
		}
	}
	var kept []*ir.Block
	for _, b := range f.Blocks {
		if reach[b] {
			kept = append(kept, b)
		} else {
			changed++
		}
	}
	f.Blocks = kept

	// Merge b -> s when b ends in an unconditional br to s and s has b as
	// its only predecessor (and s is not the entry).
	for {
		merged := false
		preds := f.Preds()
		for _, b := range f.Blocks {
			t := b.Terminator()
			if t == nil || t.Op != ir.OpBr {
				continue
			}
			s := t.Target
			if s == f.Entry() || s == b || len(preds[s]) != 1 {
				continue
			}
			// Merge s into b.
			b.Instrs = b.Instrs[:len(b.Instrs)-1] // drop the br
			b.Instrs = append(b.Instrs, s.Instrs...)
			for _, in := range s.Instrs {
				setBlock(in, b)
			}
			s.Instrs = nil
			// Remove s from the block list.
			var kept2 []*ir.Block
			for _, x := range f.Blocks {
				if x != s {
					kept2 = append(kept2, x)
				}
			}
			f.Blocks = kept2
			changed++
			merged = true
			break
		}
		if !merged {
			break
		}
	}
	return changed
}

// formSelects converts store diamonds into selects:
//
//	A: condbr c, T, E
//	T: [speculatable], store p, v1; br J
//	E: [speculatable], store p, v2; br J
//
// becomes A: [T's and E's instrs], sel = select(c, v1, v2), store p, sel,
// br J — provided T and E are single-predecessor and contain only
// speculatable instructions plus one trailing store to the same pointer.
func formSelects(f *ir.Func) int {
	formed := 0
	for {
		preds := f.Preds()
		done := true
		for _, a := range f.Blocks {
			t := a.Terminator()
			if t == nil || t.Op != ir.OpCondBr || t.Then == t.Else {
				continue
			}
			tb, eb := t.Then, t.Else
			if len(preds[tb]) != 1 || len(preds[eb]) != 1 {
				continue
			}
			ts, tok := diamondArm(tb)
			es, eok := diamondArm(eb)
			if !tok || !eok {
				continue
			}
			if ts.store.Args[0] != es.store.Args[0] {
				continue
			}
			jt, je := tb.Terminator().Target, eb.Terminator().Target
			if jt != je {
				continue
			}
			cls := ts.store.Args[1].Class()
			if es.store.Args[1].Class() != cls {
				continue
			}
			// Splice: remove A's condbr, inline both arms' pure instrs,
			// add select + store + br J.
			cond := t.Args[0]
			a.Instrs = a.Instrs[:len(a.Instrs)-1]
			for _, in := range ts.pure {
				ir.SetBlock(in, a)
				a.Instrs = append(a.Instrs, in)
			}
			for _, in := range es.pure {
				ir.SetBlock(in, a)
				a.Instrs = append(a.Instrs, in)
			}
			sel := &ir.Instr{Op: ir.OpSelect, Cls: cls,
				Args: []ir.Value{cond, ts.store.Args[1], es.store.Args[1]}, Span: ts.store.Span}
			a.Append(sel)
			st := &ir.Instr{Op: ir.OpStore, Cls: ir.Void, Args: []ir.Value{ts.store.Args[0], sel}, Span: ts.store.Span}
			a.Append(st)
			a.Append(&ir.Instr{Op: ir.OpBr, Cls: ir.Void, Target: jt, Span: ts.store.Span})
			tb.Instrs = nil
			eb.Instrs = nil
			formed++
			done = false
			break
		}
		if done {
			break
		}
		// Clean the emptied arm blocks.
		var kept []*ir.Block
		for _, b := range f.Blocks {
			if len(b.Instrs) > 0 || b == f.Entry() {
				kept = append(kept, b)
			}
		}
		f.Blocks = kept
	}
	return formed
}

type armShape struct {
	pure  []*ir.Instr
	store *ir.Instr
}

// diamondArm matches a block of speculatable instructions followed by one
// store and a br.
func diamondArm(b *ir.Block) (armShape, bool) {
	var s armShape
	n := len(b.Instrs)
	if n < 2 {
		return s, false
	}
	term := b.Instrs[n-1]
	if term.Op != ir.OpBr {
		return s, false
	}
	st := b.Instrs[n-2]
	if st.Op != ir.OpStore || st.Volatile {
		return s, false
	}
	for _, in := range b.Instrs[:n-2] {
		if !isPureValueOp(in) {
			// Speculating a pure builtin call is fine, and so is a
			// non-volatile load: the execution model cannot fault on a
			// read (LLVM needs dereferenceability here; our substrate
			// guarantees it).
			if in.Op == ir.OpCall && pureBuiltin(in.Callee) {
				s.pure = append(s.pure, in)
				continue
			}
			if in.Op == ir.OpLoad && !in.Volatile {
				s.pure = append(s.pure, in)
				continue
			}
			return s, false
		}
		s.pure = append(s.pure, in)
	}
	s.store = st
	return s, true
}

// setBlock updates an instruction's block backlink after a merge.
func setBlock(in *ir.Instr, b *ir.Block) {
	// The blk field is unexported; re-appending is how external packages
	// would do it, but within the ir package boundary we provide a
	// helper.
	ir.SetBlock(in, b)
}

// dce deletes value-producing instructions with no uses and no side
// effects. mustnotalias intrinsics do not keep their operands alive (the
// paper wraps them in metadata for exactly this reason); an intrinsic
// whose operand would otherwise be dead is deleted along with it.
func dce(f *ir.Func) int {
	removed := 0
	slots := make([]dceSlot, f.IDBound())
	// slot returns the slot of operand v, or nil when v is not one of
	// f's instructions.
	slot := func(v ir.Value) *dceSlot {
		if x, ok := v.(*ir.Instr); ok && owns(f, len(slots), x) {
			return &slots[x.ID]
		}
		return nil
	}
	for {
		clear(slots)
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				slots[in.ID] = dceSlot{present: true, storeOnly: in.Op == ir.OpAlloca}
			}
		}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpMustNotAlias {
					continue // metadata: not a real use
				}
				for ai, a := range in.Args {
					if s := slot(a); s != nil {
						s.uses++
						if !(in.Op == ir.OpStore && ai == 0) {
							s.storeOnly = false
						}
					}
				}
			}
		}
		// gone reports whether a mustnotalias operand has left the
		// computation: no real uses and no longer in the body.
		gone := func(v ir.Value) bool {
			if _, ok := v.(*ir.Instr); !ok {
				return false
			}
			s := slot(v)
			return s == nil || (s.uses == 0 && !s.present)
		}
		changed := false
		for _, b := range f.Blocks {
			for i := 0; i < len(b.Instrs); i++ {
				in := b.Instrs[i]
				s := &slots[in.ID]
				dead := false
				switch {
				case isPureValueOp(in) && s.uses == 0:
					dead = true
				case in.Op == ir.OpLoad && !in.Volatile && s.uses == 0:
					dead = true
				case in.Op == ir.OpAlloca && s.uses == 0:
					dead = true
				case in.Op == ir.OpStore && !in.Volatile:
					t := slot(in.Args[0])
					dead = t != nil && t.storeOnly
				case in.Op == ir.OpAlloca && s.storeOnly && s.uses > 0:
					// Deleted together with its stores on the next round.
				case in.Op == ir.OpVecLoad && s.uses == 0:
					dead = true
				case in.Op == ir.OpMustNotAlias:
					// Remove intrinsics whose operands are gone from the
					// computation (only referenced by intrinsics).
					dead = gone(in.Args[0]) || gone(in.Args[1])
				}
				if dead {
					removeAt(b, i)
					i--
					s.present = false
					removed++
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return removed
}

// dceSlot is dce's per-instruction state, indexed by ID.
type dceSlot struct {
	uses      int32 // uses outside mustnotalias intrinsics
	present   bool  // still in the function body
	storeOnly bool  // an alloca used only as a store target
}
