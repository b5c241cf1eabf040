package csem

import (
	"fmt"
	"math"

	"repro/internal/ast"
	"repro/internal/ctypes"
	"repro/internal/sema"
	"repro/internal/token"
)

// Evaluation of expressions threads an access summary (see access) so
// that every operator can perform the dynamic analog of the paper's
// Fig. 1 conflict checks on concrete addresses:
//
//   - an unsequenced operator whose operands read/write a common address
//     (with at least one write) evaluates to U;
//   - side effects pending from an operand's evaluation (G) conflict with
//     the operand's own decay read;
//   - sequence points (comma, &&, ||, ?:, function calls) clear G;
//   - the references made by the operands of an assignment (or ++/--) are
//     allowed to alias that operator's own side effect (remove_refs).
//
// C17's "the behaviour is undefined if such an unsequenced side effect
// occurs in ANY of the allowable orderings" is honoured because the
// conflict checks consider both orders symmetrically, regardless of the
// order the oracle actually picks for computing values.

func ub(format string, args ...any) error {
	return &Undefined{Reason: fmt.Sprintf(format, args...)}
}

// conflictCheck returns U if two unsequenced access summaries conflict:
// writes of one against reads∪writes of the other.
func conflictCheck(a, b access, what string) error {
	if addr, bad := intersects(a.W, b.W); bad {
		return ub("unsequenced write/write race on %#x in %s", addr, what)
	}
	if addr, bad := intersects(a.W, b.R); bad {
		return ub("unsequenced write/read race on %#x in %s", addr, what)
	}
	if addr, bad := intersects(a.R, b.W); bad {
		return ub("unsequenced read/write race on %#x in %s", addr, what)
	}
	return nil
}

// decay performs lvalue-to-rvalue conversion: loads the object and
// records the read. Per the paper, the read also conflicts with side
// effects still pending (G) from the very evaluation that produced the
// lvalue.
func (m *Machine) decay(lv lvalue, acc *access) (Value, error) {
	if lv.typ != nil && lv.typ.Kind == ctypes.Array {
		// Array lvalues decay to a pointer to the first element without a
		// memory reference.
		return IntValue(lv.addr), nil
	}
	if acc.G.has(lv.addr) {
		return Value{}, ub("read of %#x races with a pending side effect on it", lv.addr)
	}
	v, ok := m.mem[lv.cell]
	if !ok {
		return Value{}, ub("read of unallocated address %#x", lv.cell)
	}
	acc.R.add(lv.addr)
	return convert(v, lv.typ), nil
}

// store performs a side effect through lv. beta lists addresses whose
// reads are exempted (remove_refs): the reads made by the side-effecting
// operator's own operands.
func (m *Machine) store(lv lvalue, v Value, acc *access, beta addrSet) error {
	// A write conflicting with a pending (same-region) write is always a
	// race; writes recorded in W here are those of *this* subtree region.
	if acc.W.has(lv.addr) {
		return ub("two unsequenced side effects on %#x", lv.addr)
	}
	if acc.R.has(lv.addr) && !beta.has(lv.addr) {
		return ub("side effect on %#x races with an unsequenced read", lv.addr)
	}
	m.mem[lv.cell] = narrowTo(lv, v)
	acc.W.add(lv.addr)
	acc.G.add(lv.addr)
	return nil
}

// narrowTo converts v to lv's type and, for bitfield lvalues, narrows
// it to the field width (sign- or zero-extended per the declared type).
// Both the stored cell value and the value an assignment yields go
// through this — a bitfield assignment's result is the narrowed field.
func narrowTo(lv lvalue, v Value) Value {
	cv := convert(v, lv.typ)
	if lv.bits > 0 && !cv.IsFloat {
		cv = IntValue(truncToBits(cv.AsInt(), lv.bits, lv.typ != nil && lv.typ.IsUnsigned()))
	}
	return cv
}

// truncToBits narrows v to an n-bit field, zero-extending (unsigned) or
// sign-extending (signed) the result back to the full value range.
func truncToBits(v int64, n int, unsigned bool) int64 {
	if n <= 0 || n >= 64 {
		return v
	}
	v &= 1<<uint(n) - 1
	if !unsigned && v&(1<<uint(n-1)) != 0 {
		v -= 1 << uint(n)
	}
	return v
}

// seqClear models a sequence point inside an expression: pending side
// effects are considered applied; G is cleared. (Writes are applied
// eagerly; any defined program cannot observe the difference because
// reading a G-pending address is U.)
func seqClear(acc *access) {
	acc.G = make(addrSet)
}

// evalRvalue evaluates e to a value, returning its access summary.
func (m *Machine) evalRvalue(e ast.Expr) (Value, access, error) {
	v, lv, isLV, acc, err := m.eval(e)
	if err != nil {
		return Value{}, acc, err
	}
	if isLV {
		v, err = m.decay(lv, &acc)
		if err != nil {
			return Value{}, acc, err
		}
	}
	return v, acc, nil
}

// evalLvalue evaluates e to an lvalue.
func (m *Machine) evalLvalue(e ast.Expr) (lvalue, access, error) {
	_, lv, isLV, acc, err := m.eval(e)
	if err != nil {
		return lvalue{}, acc, err
	}
	if !isLV {
		return lvalue{}, acc, ub("expression %s is not an lvalue", ast.ExprString(e))
	}
	return lv, acc, nil
}

// eval evaluates e; the result is either a value or an lvalue (isLV).
func (m *Machine) eval(e ast.Expr) (Value, lvalue, bool, access, error) {
	acc := newAccess()
	if err := m.step(); err != nil {
		return Value{}, lvalue{}, false, acc, err
	}
	switch x := e.(type) {
	case *ast.Paren:
		return m.eval(x.X)

	case *ast.IntLit:
		return IntValue(x.Value), lvalue{}, false, acc, nil
	case *ast.CharLit:
		return IntValue(x.Value), lvalue{}, false, acc, nil
	case *ast.FloatLit:
		return FloatValue(x.Value), lvalue{}, false, acc, nil
	case *ast.StringLit:
		// Strings are interned as fresh global arrays on first touch.
		addr := m.internString(x.Value)
		return IntValue(addr), lvalue{}, false, acc, nil

	case *ast.Ident:
		if x.Sym != nil && x.Sym.Func != nil {
			// Function designator: decays to an interned function
			// pseudo-address used for indirect-call dispatch.
			return IntValue(m.funcAddr(x.Name)), lvalue{}, false, acc, nil
		}
		addr, err := m.addrOf(x.Sym, x.Name)
		if err != nil {
			return Value{}, lvalue{}, false, acc, err
		}
		return Value{}, plainLV(addr, x.Type()), true, acc, nil

	case *ast.Unary:
		return m.evalUnary(x)
	case *ast.Postfix:
		return m.evalIncDec(x.X, x.Op, true)
	case *ast.Binary:
		return m.evalBinary(x)
	case *ast.Assign:
		return m.evalAssign(x)
	case *ast.Comma:
		_, acc1, err := m.evalRvalue(x.L)
		if err != nil {
			return Value{}, lvalue{}, false, acc1, err
		}
		seqClear(&acc1)
		v, acc2, err := m.evalRvalue(x.R)
		out := mergeAccess(acc1, acc2)
		out.G = acc2.G
		return v, lvalue{}, false, out, err

	case *ast.Cond:
		cv, acc1, err := m.evalRvalue(x.C)
		if err != nil {
			return Value{}, lvalue{}, false, acc1, err
		}
		seqClear(&acc1)
		arm := x.F
		if cv.Truthy() {
			arm = x.T
		}
		v, acc2, err := m.evalRvalue(arm)
		out := mergeAccess(acc1, acc2)
		out.G = acc2.G
		if err != nil {
			return Value{}, lvalue{}, false, out, err
		}
		return convert(v, x.Type()), lvalue{}, false, out, nil

	case *ast.Index:
		return m.evalIndex(x)

	case *ast.Member:
		return m.evalMember(x)

	case *ast.Call:
		return m.evalCall(x)

	case *ast.Cast:
		v, acc, err := m.evalRvalue(x.X)
		if err != nil {
			return Value{}, lvalue{}, false, acc, err
		}
		return convert(v, x.To), lvalue{}, false, acc, nil

	case *ast.SizeofExpr:
		var t *ctypes.Type
		if x.Of != nil {
			t = x.Of
		} else if x.X != nil {
			t = x.X.Type()
		}
		if t == nil {
			return IntValue(8), lvalue{}, false, acc, nil
		}
		return IntValue(int64(t.Size())), lvalue{}, false, acc, nil
	}
	return Value{}, lvalue{}, false, acc, ub("cannot evaluate %T", e)
}

func (m *Machine) internString(s string) int64 {
	if a, ok := m.strLits[s]; ok {
		return a
	}
	t := ctypes.ArrayOf(ctypes.CharType, len(s)+1)
	addr := m.alloc(t)
	for i := 0; i < len(s); i++ {
		m.mem[addr+int64(i)] = IntValue(int64(s[i]))
	}
	m.mem[addr+int64(len(s))] = IntValue(0)
	m.strLits[s] = addr
	return addr
}

func (m *Machine) evalUnary(x *ast.Unary) (Value, lvalue, bool, access, error) {
	switch x.Op {
	case token.Amp:
		if id, ok := sema.Strip(x.X).(*ast.Ident); ok && id.Sym != nil && id.Sym.Func != nil {
			return IntValue(m.funcAddr(id.Name)), lvalue{}, false, newAccess(), nil
		}
		lv, acc, err := m.evalLvalue(x.X)
		if err != nil {
			return Value{}, lvalue{}, false, acc, err
		}
		return IntValue(lv.addr), lvalue{}, false, acc, nil

	case token.Star:
		v, acc, err := m.evalRvalue(x.X)
		if err != nil {
			return Value{}, lvalue{}, false, acc, err
		}
		pt := x.X.Type()
		var elem *ctypes.Type
		if pt != nil {
			if d := pt.Decay(); d.Kind == ctypes.Ptr {
				elem = d.Elem
			}
		}
		if elem == nil {
			elem = x.Type()
		}
		return Value{}, plainLV(v.AsInt(), elem), true, acc, nil

	case token.Inc, token.Dec:
		return m.evalIncDec(x.X, x.Op, false)

	case token.Minus:
		v, acc, err := m.evalRvalue(x.X)
		if err != nil {
			return Value{}, lvalue{}, false, acc, err
		}
		if v.IsFloat {
			return FloatValue(-v.F), lvalue{}, false, acc, nil
		}
		// Wrap to the operand type's width so -INT_MIN agrees with the
		// compiled pipeline's pinned two's-complement wrap.
		return convert(IntValue(-v.I), x.Type()), lvalue{}, false, acc, nil

	case token.Not:
		v, acc, err := m.evalRvalue(x.X)
		if err != nil {
			return Value{}, lvalue{}, false, acc, err
		}
		if v.Truthy() {
			return IntValue(0), lvalue{}, false, acc, nil
		}
		return IntValue(1), lvalue{}, false, acc, nil

	case token.Tilde:
		v, acc, err := m.evalRvalue(x.X)
		if err != nil {
			return Value{}, lvalue{}, false, acc, err
		}
		return convert(IntValue(^v.AsInt()), x.Type()), lvalue{}, false, acc, nil
	}
	return Value{}, lvalue{}, false, newAccess(), ub("unary %s", x.Op)
}

// evalIncDec implements ++e/--e/e++/e-- as the compound assignment
// e ⊙= 1 (paper section 2.8), returning the old value for postfix.
func (m *Machine) evalIncDec(operand ast.Expr, op token.Kind, post bool) (Value, lvalue, bool, access, error) {
	lv, acc, err := m.evalLvalue(operand)
	if err != nil {
		return Value{}, lvalue{}, false, acc, err
	}
	old, err := m.decay(lv, &acc)
	if err != nil {
		return Value{}, lvalue{}, false, acc, err
	}
	delta := int64(1)
	if op == token.Dec {
		delta = -1
	}
	var nv Value
	if old.IsFloat {
		nv = FloatValue(old.F + float64(delta))
	} else if lv.typ != nil && lv.typ.Kind == ctypes.Ptr {
		stride := int64(1)
		if lv.typ.Elem != nil && lv.typ.Elem.Size() > 0 {
			stride = int64(lv.typ.Elem.Size())
		}
		nv = IntValue(old.I + delta*stride)
	} else {
		nv = IntValue(old.I + delta)
	}
	// remove_refs: the operand's own reads of the target are exempt.
	beta := make(addrSet)
	beta.add(lv.addr)
	if err := m.store(lv, nv, &acc, beta); err != nil {
		return Value{}, lvalue{}, false, acc, err
	}
	if post {
		return old, lvalue{}, false, acc, nil
	}
	return narrowTo(lv, nv), lvalue{}, false, acc, nil
}

// orderedEval evaluates two sub-evaluations in oracle-chosen order and
// returns their individual summaries.
func (m *Machine) orderedEval(f1, f2 func() error) error {
	if m.oracle != nil && m.oracle.Choose(2) == 1 {
		if err := f2(); err != nil {
			return err
		}
		return f1()
	}
	if err := f1(); err != nil {
		return err
	}
	return f2()
}

func (m *Machine) evalBinary(x *ast.Binary) (Value, lvalue, bool, access, error) {
	switch x.Op {
	case token.AndAnd, token.OrOr:
		lval, acc1, err := m.evalRvalue(x.L)
		if err != nil {
			return Value{}, lvalue{}, false, acc1, err
		}
		seqClear(&acc1)
		short := (x.Op == token.AndAnd && !lval.Truthy()) ||
			(x.Op == token.OrOr && lval.Truthy())
		if short {
			res := int64(0)
			if x.Op == token.OrOr {
				res = 1
			}
			return IntValue(res), lvalue{}, false, acc1, nil
		}
		rval, acc2, err := m.evalRvalue(x.R)
		out := mergeAccess(acc1, acc2)
		out.G = acc2.G
		if err != nil {
			return Value{}, lvalue{}, false, out, err
		}
		if rval.Truthy() {
			return IntValue(1), lvalue{}, false, out, nil
		}
		return IntValue(0), lvalue{}, false, out, nil
	}

	// Unsequenced binary operator: evaluate operands in oracle order,
	// then check conflicts symmetrically (both orders are "allowable").
	var v1, v2 Value
	var acc1, acc2 access
	err := m.orderedEval(
		func() error {
			var err error
			v1, acc1, err = m.evalRvalue(x.L)
			return err
		},
		func() error {
			var err error
			v2, acc2, err = m.evalRvalue(x.R)
			return err
		},
	)
	if err != nil {
		return Value{}, lvalue{}, false, mergeAccess(acc1, acc2), err
	}
	if err := conflictCheck(acc1, acc2, ast.ExprString(x)); err != nil {
		return Value{}, lvalue{}, false, mergeAccess(acc1, acc2), err
	}
	out := mergeAccess(acc1, acc2)
	v, err := applyBinop(x.Op, v1, v2, x.L.Type(), x.R.Type(), x.Type())
	return v, lvalue{}, false, out, err
}

// applyBinop computes the value of a standard binary operator.
func applyBinop(op token.Kind, v1, v2 Value, t1, t2, rt *ctypes.Type) (Value, error) {
	// Pointer arithmetic.
	d1, d2 := decayed(t1), decayed(t2)
	if op == token.Plus || op == token.Minus {
		if d1 != nil && d1.Kind == ctypes.Ptr && d2 != nil && d2.IsInteger() {
			return IntValue(v1.AsInt() + sign(op)*v2.AsInt()*stride(d1)), nil
		}
		if op == token.Plus && d2 != nil && d2.Kind == ctypes.Ptr && d1 != nil && d1.IsInteger() {
			return IntValue(v2.AsInt() + v1.AsInt()*stride(d2)), nil
		}
		if op == token.Minus && d1 != nil && d1.Kind == ctypes.Ptr && d2 != nil && d2.Kind == ctypes.Ptr {
			return IntValue((v1.AsInt() - v2.AsInt()) / stride(d1)), nil
		}
	}

	useFloat := v1.IsFloat || v2.IsFloat
	// Unsignedness mirrors irgen: arithmetic takes it from the result
	// type, comparisons from either decayed operand. For sub-64-bit
	// types the canonical zero-extended representation already gives
	// unsigned behaviour; the explicit uint64 paths matter for the
	// 64-bit unsigned types, whose values occupy the full word.
	unsignedArith := rt != nil && rt.IsUnsigned()
	unsignedCmp := d1 != nil && d1.IsUnsigned() || d2 != nil && d2.IsUnsigned()
	switch op {
	case token.Plus, token.Minus, token.Star, token.Slash, token.Percent:
		if useFloat {
			a, b := v1.AsFloat(), v2.AsFloat()
			switch op {
			case token.Plus:
				return FloatValue(a + b), nil
			case token.Minus:
				return FloatValue(a - b), nil
			case token.Star:
				return FloatValue(a * b), nil
			case token.Slash:
				return FloatValue(a / b), nil
			case token.Percent:
				return FloatValue(math.Mod(a, b)), nil
			}
		}
		a, b := v1.AsInt(), v2.AsInt()
		switch op {
		case token.Plus:
			return convert(IntValue(a+b), rt), nil
		case token.Minus:
			return convert(IntValue(a-b), rt), nil
		case token.Star:
			return convert(IntValue(a*b), rt), nil
		case token.Slash:
			if b == 0 {
				return Value{}, ub("integer division by zero")
			}
			if unsignedArith {
				return convert(IntValue(int64(uint64(a)/uint64(b))), rt), nil
			}
			if b == -1 && signedMin(rt, a) {
				return Value{}, ub("signed division overflow: %d / -1", a)
			}
			return convert(IntValue(a/b), rt), nil
		case token.Percent:
			if b == 0 {
				return Value{}, ub("integer remainder by zero")
			}
			if unsignedArith {
				return convert(IntValue(int64(uint64(a)%uint64(b))), rt), nil
			}
			if b == -1 && signedMin(rt, a) {
				return Value{}, ub("signed remainder overflow: %d %% -1", a)
			}
			return convert(IntValue(a%b), rt), nil
		}
	case token.Amp:
		return convert(IntValue(v1.AsInt()&v2.AsInt()), rt), nil
	case token.Pipe:
		return convert(IntValue(v1.AsInt()|v2.AsInt()), rt), nil
	case token.Caret:
		return convert(IntValue(v1.AsInt()^v2.AsInt()), rt), nil
	case token.Shl:
		sh := v2.AsInt()
		if w := int64(bitWidth(rt)); sh < 0 || sh >= w {
			return Value{}, ub("shift amount %d out of range for %d-bit type", sh, w)
		}
		return convert(IntValue(v1.AsInt()<<uint(sh)), rt), nil
	case token.Shr:
		sh := v2.AsInt()
		if w := int64(bitWidth(rt)); sh < 0 || sh >= w {
			return Value{}, ub("shift amount %d out of range for %d-bit type", sh, w)
		}
		if t1 != nil && t1.IsUnsigned() {
			return convert(IntValue(int64(uint64(v1.AsInt())>>uint(sh))), rt), nil
		}
		return convert(IntValue(v1.AsInt()>>uint(sh)), rt), nil
	case token.Lt, token.Gt, token.Le, token.Ge, token.EqEq, token.NotEq:
		var b bool
		if useFloat {
			a, c := v1.AsFloat(), v2.AsFloat()
			switch op {
			case token.Lt:
				b = a < c
			case token.Gt:
				b = a > c
			case token.Le:
				b = a <= c
			case token.Ge:
				b = a >= c
			case token.EqEq:
				b = a == c
			case token.NotEq:
				b = a != c
			}
		} else if unsignedCmp {
			a, c := uint64(v1.AsInt()), uint64(v2.AsInt())
			switch op {
			case token.Lt:
				b = a < c
			case token.Gt:
				b = a > c
			case token.Le:
				b = a <= c
			case token.Ge:
				b = a >= c
			case token.EqEq:
				b = a == c
			case token.NotEq:
				b = a != c
			}
		} else {
			a, c := v1.AsInt(), v2.AsInt()
			switch op {
			case token.Lt:
				b = a < c
			case token.Gt:
				b = a > c
			case token.Le:
				b = a <= c
			case token.Ge:
				b = a >= c
			case token.EqEq:
				b = a == c
			case token.NotEq:
				b = a != c
			}
		}
		if b {
			return IntValue(1), nil
		}
		return IntValue(0), nil
	}
	return Value{}, ub("binary operator %s", op)
}

// bitWidth is the width in bits of an integer type (64 when unknown):
// the C bound on shift counts is the width of the promoted left operand,
// not the 64-bit evaluation domain.
func bitWidth(t *ctypes.Type) int {
	if t != nil && t.IsInteger() && t.Size() > 0 {
		return 8 * t.Size()
	}
	return 64
}

// signedMin reports whether a is the most negative value of signed
// integer type t — the dividend for which /-1 and %-1 overflow (UB).
func signedMin(t *ctypes.Type, a int64) bool {
	if t == nil || !t.IsInteger() || t.IsUnsigned() {
		return false
	}
	return a == -1<<(uint(bitWidth(t))-1)
}

func decayed(t *ctypes.Type) *ctypes.Type {
	if t == nil {
		return nil
	}
	return t.Decay()
}

func sign(op token.Kind) int64 {
	if op == token.Minus {
		return -1
	}
	return 1
}

func stride(pt *ctypes.Type) int64 {
	if pt.Elem != nil && pt.Elem.Size() > 0 {
		return int64(pt.Elem.Size())
	}
	return 1
}

func (m *Machine) evalAssign(x *ast.Assign) (Value, lvalue, bool, access, error) {
	var lv lvalue
	var rv Value
	var acc1, acc2 access
	err := m.orderedEval(
		func() error {
			var err error
			lv, acc1, err = m.evalLvalue(x.L)
			return err
		},
		func() error {
			var err error
			rv, acc2, err = m.evalRvalue(x.R)
			return err
		},
	)
	if err != nil {
		return Value{}, lvalue{}, false, mergeAccess(acc1, acc2), err
	}
	if err := conflictCheck(acc1, acc2, ast.ExprString(x)); err != nil {
		return Value{}, lvalue{}, false, mergeAccess(acc1, acc2), err
	}
	acc := mergeAccess(acc1, acc2)

	var nv Value
	if x.Op == token.Assign {
		nv = rv
	} else {
		// Compound assignment reads the target first; that read is part
		// of the value computation (sequenced before the side effect).
		old, err := m.decay(lv, &acc)
		if err != nil {
			return Value{}, lvalue{}, false, acc, err
		}
		nv, err = applyBinop(x.Op.CompoundBase(), old, rv, x.L.Type(), x.R.Type(), x.L.Type())
		if err != nil {
			return Value{}, lvalue{}, false, acc, err
		}
	}
	// remove_refs: reads of the target made by either operand's value
	// computation are exempt from conflicting with this side effect.
	beta := make(addrSet)
	beta.add(lv.addr)
	if err := m.store(lv, nv, &acc, beta); err != nil {
		return Value{}, lvalue{}, false, acc, err
	}
	return narrowTo(lv, nv), lvalue{}, false, acc, nil
}

func (m *Machine) evalIndex(x *ast.Index) (Value, lvalue, bool, access, error) {
	var base, idx Value
	var acc1, acc2 access
	err := m.orderedEval(
		func() error {
			var err error
			base, acc1, err = m.evalRvalue(x.X)
			return err
		},
		func() error {
			var err error
			idx, acc2, err = m.evalRvalue(x.I)
			return err
		},
	)
	if err != nil {
		return Value{}, lvalue{}, false, mergeAccess(acc1, acc2), err
	}
	if err := conflictCheck(acc1, acc2, ast.ExprString(x)); err != nil {
		return Value{}, lvalue{}, false, mergeAccess(acc1, acc2), err
	}
	acc := mergeAccess(acc1, acc2)

	bt := decayed(x.X.Type())
	var elem *ctypes.Type
	addr := int64(0)
	if bt != nil && bt.Kind == ctypes.Ptr {
		elem = bt.Elem
		addr = base.AsInt() + idx.AsInt()*stride(bt)
	} else {
		// i[a] form.
		it := decayed(x.I.Type())
		if it == nil || it.Kind != ctypes.Ptr {
			return Value{}, lvalue{}, false, acc, ub("bad subscript types")
		}
		elem = it.Elem
		addr = idx.AsInt() + base.AsInt()*stride(it)
	}
	return Value{}, plainLV(addr, elem), true, acc, nil
}

func (m *Machine) evalMember(x *ast.Member) (Value, lvalue, bool, access, error) {
	var baseAddr int64
	var acc access
	if x.Arrow {
		v, a, err := m.evalRvalue(x.X)
		if err != nil {
			return Value{}, lvalue{}, false, a, err
		}
		baseAddr = v.AsInt()
		acc = a
	} else {
		lv, a, err := m.evalLvalue(x.X)
		if err != nil {
			return Value{}, lvalue{}, false, a, err
		}
		baseAddr = lv.addr
		acc = a
	}
	f := x.Field
	lv := lvalue{
		addr: baseAddr + int64(f.Offset),
		cell: baseAddr + int64(f.Offset),
		typ:  f.Type,
	}
	if f.BitField {
		// Bitfields of one storage unit share the race address but get
		// distinct storage cells (C's "memory location" is the unit).
		lv.cell = (baseAddr+int64(f.Offset))<<16 | int64(f.BitOff+1)
		lv.bits = f.BitWidth
		if _, ok := m.mem[lv.cell]; !ok {
			m.mem[lv.cell] = IntValue(0)
		}
	}
	return Value{}, lv, true, acc, nil
}

// evalCall evaluates a function call: designator and arguments are
// mutually unsequenced; a sequence point precedes the actual call. The
// callee's internal accesses do not enter the caller's bags.
func (m *Machine) evalCall(x *ast.Call) (Value, lvalue, bool, access, error) {
	n := len(x.Args) + 1
	accs := make([]access, n)
	vals := make([]Value, n)

	// Oracle-chosen evaluation order over designator + arguments.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	if m.oracle != nil {
		for i := 0; i < n-1; i++ {
			j := i + m.oracle.Choose(n-i)
			order[i], order[j] = order[j], order[i]
		}
	}
	for _, idx := range order {
		if idx == 0 {
			v, a, err := m.evalDesignator(x.Fun)
			if err != nil {
				return Value{}, lvalue{}, false, a, err
			}
			vals[0] = v
			accs[0] = a
			continue
		}
		v, a, err := m.evalRvalue(x.Args[idx-1])
		if err != nil {
			return Value{}, lvalue{}, false, a, err
		}
		vals[idx] = v
		accs[idx] = a
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if err := conflictCheck(accs[i], accs[j], ast.ExprString(x)); err != nil {
				return Value{}, lvalue{}, false, mergeAccess(accs...), err
			}
		}
	}
	acc := mergeAccess(accs...)
	seqClear(&acc) // sequence point before the call

	name := sema.CalleeName(x)
	if name == "" {
		// Indirect call through a function pointer: the designator's
		// value is an interned function pseudo-address.
		fname, ok := m.funcNames[vals[0].AsInt()]
		if !ok {
			return Value{}, lvalue{}, false, acc, ub("indirect call to unknown function %d", vals[0].AsInt())
		}
		name = fname
	}

	if v, ok, err := m.builtinCall(name, vals[1:]); ok {
		return v, lvalue{}, false, acc, err
	}

	f := m.funcs[name]
	if f == nil || f.Body == nil {
		return Value{}, lvalue{}, false, acc, ub("call to undefined function %s", name)
	}
	rv, err := m.CallFunction(f, vals[1:])
	if err != nil {
		return Value{}, lvalue{}, false, acc, err
	}
	return rv, lvalue{}, false, acc, nil
}

// evalDesignator evaluates the function-designator operand; direct
// function names cost no memory access, pointer expressions do.
func (m *Machine) evalDesignator(e ast.Expr) (Value, access, error) {
	e2 := sema.Strip(e)
	if id, ok := e2.(*ast.Ident); ok {
		if id.Sym == nil || id.Sym.Func != nil {
			return IntValue(m.funcAddr(id.Name)), newAccess(), nil
		}
	}
	return m.evalRvalue(e)
}

// funcAddr returns the function's pseudo-address: function pointers are
// modelled as negative addresses interned per machine. NewMachine
// numbers the translation unit's functions in declaration order, so a
// function-pointer value depends only on the program being run.
func (m *Machine) funcAddr(name string) int64 {
	if a, ok := m.funcAddrs[name]; ok {
		return a
	}
	a := int64(-1000 - len(m.funcAddrs))
	m.funcAddrs[name] = a
	m.funcNames[a] = name
	return a
}

// builtinCall dispatches the libm-style pure builtins.
func (m *Machine) builtinCall(name string, args []Value) (Value, bool, error) {
	arg := func(i int) float64 {
		if i < len(args) {
			return args[i].AsFloat()
		}
		return 0
	}
	switch name {
	case "fabs":
		return FloatValue(math.Abs(arg(0))), true, nil
	case "sqrt":
		return FloatValue(math.Sqrt(arg(0))), true, nil
	case "sin":
		return FloatValue(math.Sin(arg(0))), true, nil
	case "cos":
		return FloatValue(math.Cos(arg(0))), true, nil
	case "exp":
		return FloatValue(math.Exp(arg(0))), true, nil
	case "log":
		return FloatValue(math.Log(arg(0))), true, nil
	case "pow":
		return FloatValue(math.Pow(arg(0), arg(1))), true, nil
	case "floor":
		return FloatValue(math.Floor(arg(0))), true, nil
	case "ceil":
		return FloatValue(math.Ceil(arg(0))), true, nil
	case "fmod":
		return FloatValue(math.Mod(arg(0), arg(1))), true, nil
	case "fmax":
		return FloatValue(math.Max(arg(0), arg(1))), true, nil
	case "fmin":
		return FloatValue(math.Min(arg(0), arg(1))), true, nil
	case "abs", "labs":
		v := int64(0)
		if len(args) > 0 {
			v = args[0].AsInt()
		}
		if v < 0 {
			v = -v
		}
		return IntValue(v), true, nil
	}
	return Value{}, false, nil
}
