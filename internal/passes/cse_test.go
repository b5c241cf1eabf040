package passes

import (
	"math"
	"slices"
	"testing"

	"repro/internal/aa"
	"repro/internal/ir"
)

// TestEarlyCSEValueKeys pins which pairs of pure instructions earlyCSE
// merges: the second instruction of each pair is built in the same block
// right after the first, and is removed exactly when the two are the
// same value.
func TestEarlyCSEValueKeys(t *testing.T) {
	nan1 := math.Float64frombits(0x7ff8000000000001)
	nan2 := math.Float64frombits(0x7ff8000000000002)
	add := func(x, y ir.Value) *ir.Instr {
		return &ir.Instr{Op: ir.OpAdd, Cls: ir.I64, Args: []ir.Value{x, y}}
	}
	fadd := func(x ir.Value, c float64) *ir.Instr {
		return &ir.Instr{Op: ir.OpAdd, Cls: ir.F64, Args: []ir.Value{x, ir.ConstFloat(ir.F64, c)}}
	}
	gep := func(scale, off int) *ir.Instr {
		return &ir.Instr{Op: ir.OpGEP, Cls: ir.Ptr, Scale: scale, Off: off,
			Args: []ir.Value{&ir.Global{Name: "a"}, ir.ConstInt(ir.I64, 1)}}
	}
	five := ir.ConstInt(ir.I64, 5)
	cases := []struct {
		name  string
		merge bool
		// pair returns the two instructions; p and q are distinct i64
		// params and fp an f64 param. Operands that are themselves
		// instructions are appended to the block first by the caller.
		pair func(p, q, fp *ir.Param, x, y *ir.Instr) (*ir.Instr, *ir.Instr)
	}{
		{"identical", true, func(p, q, fp *ir.Param, x, y *ir.Instr) (*ir.Instr, *ir.Instr) {
			return add(p, five), add(p, ir.ConstInt(ir.I64, 5))
		}},
		{"op", false, func(p, q, fp *ir.Param, x, y *ir.Instr) (*ir.Instr, *ir.Instr) {
			sub := add(p, five)
			sub.Op = ir.OpSub
			return add(p, five), sub
		}},
		{"cls", false, func(p, q, fp *ir.Param, x, y *ir.Instr) (*ir.Instr, *ir.Instr) {
			narrow := add(p, five)
			narrow.Cls = ir.I32
			return add(p, five), narrow
		}},
		{"scale", false, func(p, q, fp *ir.Param, x, y *ir.Instr) (*ir.Instr, *ir.Instr) {
			return gep(4, 0), gep(8, 0)
		}},
		{"off", false, func(p, q, fp *ir.Param, x, y *ir.Instr) (*ir.Instr, *ir.Instr) {
			return gep(4, 0), gep(4, 8)
		}},
		{"pred", false, func(p, q, fp *ir.Param, x, y *ir.Instr) (*ir.Instr, *ir.Instr) {
			return &ir.Instr{Op: ir.OpCmp, Cls: ir.I32, Pred: ir.Lt, Args: []ir.Value{p, q}},
				&ir.Instr{Op: ir.OpCmp, Cls: ir.I32, Pred: ir.Gt, Args: []ir.Value{p, q}}
		}},
		{"vecop", false, func(p, q, fp *ir.Param, x, y *ir.Instr) (*ir.Instr, *ir.Instr) {
			a, c := add(p, five), add(p, five)
			c.VecOp = ir.OpMul
			return a, c
		}},
		{"unsigned", false, func(p, q, fp *ir.Param, x, y *ir.Instr) (*ir.Instr, *ir.Instr) {
			return &ir.Instr{Op: ir.OpShr, Cls: ir.I64, Args: []ir.Value{p, five}},
				&ir.Instr{Op: ir.OpShr, Cls: ir.I64, Unsigned: true, Args: []ir.Value{p, five}}
		}},
		{"int const class ignored", true, func(p, q, fp *ir.Param, x, y *ir.Instr) (*ir.Instr, *ir.Instr) {
			return add(p, five), add(p, ir.ConstInt(ir.I32, 5))
		}},
		{"int 5 vs float 5.0", false, func(p, q, fp *ir.Param, x, y *ir.Instr) (*ir.Instr, *ir.Instr) {
			return add(p, five), add(p, ir.ConstFloat(ir.F64, 5))
		}},
		{"same NaN payload", true, func(p, q, fp *ir.Param, x, y *ir.Instr) (*ir.Instr, *ir.Instr) {
			return fadd(fp, nan1), fadd(fp, nan1)
		}},
		{"NaN payloads", false, func(p, q, fp *ir.Param, x, y *ir.Instr) (*ir.Instr, *ir.Instr) {
			return fadd(fp, nan1), fadd(fp, nan2)
		}},
		{"+0.0 vs -0.0", false, func(p, q, fp *ir.Param, x, y *ir.Instr) (*ir.Instr, *ir.Instr) {
			return fadd(fp, 0), fadd(fp, math.Copysign(0, -1))
		}},
		{"globals by name", true, func(p, q, fp *ir.Param, x, y *ir.Instr) (*ir.Instr, *ir.Instr) {
			return add(&ir.Global{Name: "g"}, five), add(&ir.Global{Name: "g"}, five)
		}},
		{"global vs funcref", false, func(p, q, fp *ir.Param, x, y *ir.Instr) (*ir.Instr, *ir.Instr) {
			return add(&ir.Global{Name: "g"}, five), add(&ir.FuncRef{Name: "g"}, five)
		}},
		{"two params", false, func(p, q, fp *ir.Param, x, y *ir.Instr) (*ir.Instr, *ir.Instr) {
			return add(p, five), add(q, five)
		}},
		{"two instrs", false, func(p, q, fp *ir.Param, x, y *ir.Instr) (*ir.Instr, *ir.Instr) {
			return add(x, five), add(y, five)
		}},
		{"same instr", true, func(p, q, fp *ir.Param, x, y *ir.Instr) (*ir.Instr, *ir.Instr) {
			return add(x, five), add(x, five)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := &ir.Param{Name: "p", Cls: ir.I64, Idx: 0}
			q := &ir.Param{Name: "q", Cls: ir.I64, Idx: 1}
			fp := &ir.Param{Name: "fp", Cls: ir.F64, Idx: 2}
			fn := &ir.Func{Name: "f", Ret: ir.Void, Params: []*ir.Param{p, q, fp}}
			b := fn.NewBlock("entry")
			// x and y are distinct values (their operands differ) that
			// the pair may use as operands.
			x := b.Append(add(p, ir.ConstInt(ir.I64, 1)))
			y := b.Append(add(p, ir.ConstInt(ir.I64, 2)))
			first, second := tc.pair(p, q, fp, x, y)
			b.Append(first)
			b.Append(second)
			b.Append(&ir.Instr{Op: ir.OpRet})
			mod := &ir.Module{Funcs: []*ir.Func{fn}}

			earlyCSE(mod, fn, aa.NewManager(fn, false), nil)
			if !slices.Contains(b.Instrs, first) {
				t.Fatalf("first instruction removed:\n%s", fn)
			}
			if merged := !slices.Contains(b.Instrs, second); merged != tc.merge {
				t.Fatalf("merged = %v, want %v:\n%s", merged, tc.merge, fn)
			}
		})
	}
}

var keySink pureKey

// TestValueKeyAllocs pins value numbering as allocation-free, for every
// operand kind.
func TestValueKeyAllocs(t *testing.T) {
	fn := &ir.Func{Name: "f", Ret: ir.Void}
	b := fn.NewBlock("entry")
	x := b.Append(&ir.Instr{Op: ir.OpAdd, Cls: ir.I64,
		Args: []ir.Value{&ir.Param{Name: "p", Cls: ir.I64}, ir.ConstFloat(ir.F64, math.NaN())}})
	sel := b.Append(&ir.Instr{Op: ir.OpSelect, Cls: ir.Ptr,
		Args: []ir.Value{x, &ir.Global{Name: "g"}, &ir.FuncRef{Name: "h"}}})
	if n := testing.AllocsPerRun(100, func() {
		keySink, _ = valueKey(x)
		keySink, _ = valueKey(sel)
	}); n != 0 {
		t.Fatalf("valueKey allocates %v times per run", n)
	}
}

// TestEarlyCSEDedupesFacts checks the mustnotalias normalization: a fact
// and its mirror image are one fact, and a fact on other values is kept.
func TestEarlyCSEDedupesFacts(t *testing.T) {
	p := &ir.Param{Name: "p", Cls: ir.Ptr, Idx: 0}
	q := &ir.Param{Name: "q", Cls: ir.Ptr, Idx: 1}
	g := &ir.Global{Name: "g"}
	fn := &ir.Func{Name: "f", Ret: ir.Void, Params: []*ir.Param{p, q}}
	b := fn.NewBlock("entry")
	fact := func(x, y ir.Value) *ir.Instr {
		return b.Append(&ir.Instr{Op: ir.OpMustNotAlias, Cls: ir.Void, Args: []ir.Value{x, y}})
	}
	pq, qp, gp, pg := fact(p, q), fact(q, p), fact(g, p), fact(p, g)
	b.Append(&ir.Instr{Op: ir.OpRet})

	if n := earlyCSE(&ir.Module{Funcs: []*ir.Func{fn}}, fn, aa.NewManager(fn, false), nil); n != 2 {
		t.Fatalf("removed %d facts, want 2:\n%s", n, fn)
	}
	for _, c := range []struct {
		in   *ir.Instr
		kept bool
	}{{pq, true}, {qp, false}, {gp, true}, {pg, false}} {
		if slices.Contains(b.Instrs, c.in) != c.kept {
			t.Errorf("fact %v kept = %v, want %v", c.in.Args, !c.kept, c.kept)
		}
	}
}
