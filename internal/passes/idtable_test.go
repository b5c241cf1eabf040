package passes

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/aa"
	"repro/internal/ir"
)

// idPair builds two functions whose instructions carry the same IDs:
// f's entry block and a callee body standing in for the original of an
// inlined callee.
func idPair() (f, callee *ir.Func) {
	mk := func(name string) *ir.Func {
		p := &ir.Param{Name: "p", Cls: ir.Ptr}
		fn := &ir.Func{Name: name, Ret: ir.I64, Params: []*ir.Param{p}}
		b := fn.NewBlock("entry")
		ld := b.Append(&ir.Instr{Op: ir.OpLoad, Cls: ir.I64, Args: []ir.Value{p}})
		sum := b.Append(&ir.Instr{Op: ir.OpAdd, Cls: ir.I64, Args: []ir.Value{ld, ld}})
		b.Append(&ir.Instr{Op: ir.OpRet, Args: []ir.Value{sum}})
		return fn
	}
	return mk("f"), mk("callee")
}

func TestUseTableLateAndForeignIDs(t *testing.T) {
	f, callee := idPair()
	b := f.Entry()
	ld, sum := b.Instrs[0], b.Instrs[1]
	var uses useTable
	uses.build(f)
	if got := uses.of(ld); !slices.Equal(got, []*ir.Instr{sum, sum}) {
		t.Fatalf("uses of the load = %v, want the add twice", got)
	}

	// An instruction created after the build (a preheader load, an
	// unroll clone) has an ID at or past the bound: no uses, even though
	// it is used by now.
	late := &ir.Instr{Op: ir.OpLoad, Cls: ir.I64, Args: []ir.Value{f.Params[0]}}
	b.InsertBefore(0, late)
	b.Append(&ir.Instr{Op: ir.OpAdd, Cls: ir.I64, Args: []ir.Value{late, ld}})
	if late.ID < len(uses.start)-1 {
		t.Fatalf("late ID %d below the table bound %d", late.ID, len(uses.start)-1)
	}
	if got := uses.of(late); len(got) != 0 {
		t.Fatalf("late instruction has uses %v", got)
	}

	// The callee's load has the same ID as f's load but is not f's.
	cld := callee.Entry().Instrs[0]
	if cld.ID != ld.ID {
		t.Fatalf("test setup: IDs %d and %d differ", cld.ID, ld.ID)
	}
	if got := uses.of(cld); len(got) != 0 {
		t.Fatalf("foreign instruction read f's row: %v", got)
	}

	// A foreign operand does not count as a use of f's instruction.
	b.Append(&ir.Instr{Op: ir.OpAdd, Cls: ir.I64, Args: []ir.Value{cld, cld}})
	uses.build(f)
	if got := uses.of(ld); len(got) != 3 {
		t.Fatalf("uses of the load = %v, want 3 (the foreign operand is not f's load)", got)
	}
}

func TestForwarderLateAndForeignIDs(t *testing.T) {
	f, callee := idPair()
	b := f.Entry()
	ld, sum := b.Instrs[0], b.Instrs[1]
	fw := newForwarder(f)
	c := ir.ConstInt(ir.I64, 7)
	fw.forward(ld, c)
	if got := fw.value(ld); got != c {
		t.Fatalf("value(load) = %v, want the constant", got)
	}
	// The callee's load carries the same ID and must stay itself.
	cld := callee.Entry().Instrs[0]
	if got := fw.value(cld); got != cld {
		t.Fatalf("foreign instruction forwarded to %v", got)
	}
	// A replacement recorded for an instruction created after the table
	// grows it; values past the bound resolve to themselves.
	late := b.Append(&ir.Instr{Op: ir.OpAdd, Cls: ir.I64, Args: []ir.Value{sum, c}})
	after := &ir.Instr{ID: late.ID + 10, Op: ir.OpAdd, Cls: ir.I64}
	if got := fw.value(after); got != after {
		t.Fatalf("out-of-range value resolved to %v", got)
	}
	fw.forward(late, sum)
	if got := fw.value(late); got != sum {
		t.Fatalf("late instruction forwarded to %v, want the add", got)
	}
	fw.sweep()
	if sum.Args[0] != c || sum.Args[1] != c {
		t.Fatalf("sweep left args %v", sum.Args)
	}
}

// TestEarlyCSEForwardReference lays a use out before its definition: the
// walk reaches the use first, so replacements must still reach it.
func TestEarlyCSEForwardReference(t *testing.T) {
	p := &ir.Param{Name: "p", Cls: ir.I64}
	f := &ir.Func{Name: "f", Ret: ir.I64, Params: []*ir.Param{p}}
	entry := f.NewBlock("entry")
	use := f.NewBlock("use")
	def := f.NewBlock("def")
	entry.Append(&ir.Instr{Op: ir.OpBr, Target: def})
	a := def.Append(&ir.Instr{Op: ir.OpAdd, Cls: ir.I64, Args: []ir.Value{p, ir.ConstInt(ir.I64, 1)}})
	dup := def.Append(&ir.Instr{Op: ir.OpAdd, Cls: ir.I64, Args: []ir.Value{p, ir.ConstInt(ir.I64, 1)}})
	def.Append(&ir.Instr{Op: ir.OpBr, Target: use})
	m := use.Append(&ir.Instr{Op: ir.OpMul, Cls: ir.I64, Args: []ir.Value{dup, dup}})
	use.Append(&ir.Instr{Op: ir.OpRet, Args: []ir.Value{m}})
	// Move "use" ahead of "def" in the layout.
	f.Blocks = []*ir.Block{entry, use, def}

	if n := earlyCSE(&ir.Module{Funcs: []*ir.Func{f}}, f, aa.NewManager(f, false), nil); n != 1 {
		t.Fatalf("removed %d, want 1:\n%s", n, f)
	}
	if m.Args[0] != a || m.Args[1] != a {
		t.Fatalf("use laid out before the definition still reads %v:\n%s", m.Args, f)
	}
}

// dceCascadeFunc builds a function for the dce cascade case: a pure chain
// that dies from its tail, an alloca used only as a store target, and
// mustnotalias intrinsics, one of whose operands dies with the chain.
func dceCascadeFunc() *ir.Func {
	p := &ir.Param{Name: "p", Cls: ir.Ptr, Idx: 0}
	n := &ir.Param{Name: "n", Cls: ir.I64, Idx: 1}
	f := &ir.Func{Name: "cascade", Ret: ir.I64, Params: []*ir.Param{p, n}}
	b := f.NewBlock("entry")
	add := func(op ir.Op, cls ir.Class, args ...ir.Value) *ir.Instr {
		return b.Append(&ir.Instr{Op: op, Cls: cls, Args: args})
	}
	slot := b.Append(&ir.Instr{Op: ir.OpAlloca, Cls: ir.Ptr, Name: "s", AllocSz: 8})
	add(ir.OpStore, ir.Void, slot, n)
	x1 := add(ir.OpAdd, ir.I64, n, ir.ConstInt(ir.I64, 1))
	x2 := add(ir.OpMul, ir.I64, x1, ir.ConstInt(ir.I64, 3))
	x3 := add(ir.OpSub, ir.I64, x2, x1)
	add(ir.OpStore, ir.Void, slot, x3)
	q := b.Append(&ir.Instr{Op: ir.OpGEP, Cls: ir.Ptr, Scale: 8, Args: []ir.Value{p, x2}})
	r := b.Append(&ir.Instr{Op: ir.OpGEP, Cls: ir.Ptr, Scale: 8, Off: 8, Args: []ir.Value{p, n}})
	b.Append(&ir.Instr{Op: ir.OpMustNotAlias, Cls: ir.Void, Args: []ir.Value{q, r}, Meta: 1})
	live := b.Append(&ir.Instr{Op: ir.OpGEP, Cls: ir.Ptr, Scale: 8, Args: []ir.Value{p, ir.ConstInt(ir.I64, 2)}})
	b.Append(&ir.Instr{Op: ir.OpMustNotAlias, Cls: ir.Void, Args: []ir.Value{live, p}, Meta: 2})
	ld := add(ir.OpLoad, ir.I64, live)
	dead := add(ir.OpLoad, ir.I64, r)
	add(ir.OpAdd, ir.I64, dead, ld)
	b.Append(&ir.Instr{Op: ir.OpRet, Args: []ir.Value{ld}})
	return f
}

// TestDCECascade pins dce's result on a cascade: the surviving IR and the
// removed count were captured from the map-based dce this table replaced.
func TestDCECascade(t *testing.T) {
	const want = `func @cascade(ptr %p, i64 %n) i64 {
entry0:
  %v9 = gep %p + 2*8 + 0
  mustnotalias(%v9, %p)
  %v11 = load i64 %v9
  ret %v11
}
`
	f := dceCascadeFunc()
	if n := dce(f); n != 11 {
		t.Errorf("removed %d, want 11", n)
	}
	if got := f.String(); got != want {
		t.Errorf("surviving IR:\n%s\nwant:\n%s", got, want)
	}
}

// TestDCEForeignOperand checks that a mustnotalias operand belonging to
// another function is not read as f's instruction with the same ID: it is
// not in f's body, so the intrinsic goes.
func TestDCEForeignOperand(t *testing.T) {
	f, callee := idPair()
	b := f.Entry()
	cld := callee.Entry().Instrs[0]
	mna := &ir.Instr{Op: ir.OpMustNotAlias, Cls: ir.Void, Args: []ir.Value{cld, f.Params[0]}}
	b.InsertBefore(len(b.Instrs)-1, mna)
	if n := dce(f); n != 1 {
		t.Fatalf("removed %d, want 1:\n%s", n, f)
	}
	if slices.Contains(b.Instrs, mna) || !strings.Contains(f.String(), "load") {
		t.Fatalf("wrong survivors:\n%s", f)
	}
}
