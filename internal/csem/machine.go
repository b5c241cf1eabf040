package csem

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/ctypes"
)

// Undefined is the error value standing for C's U: an evaluation path
// reached undefined behaviour.
type Undefined struct {
	Reason string
}

func (u *Undefined) Error() string { return "undefined behaviour: " + u.Reason }

// Oracle resolves the nondeterministic choices of the abstract machine:
// which unsequenced operand to evaluate first.
type Oracle interface {
	// Choose returns a value in [0, n).
	Choose(n int) int
}

// LeftFirst always evaluates the left/first operand first (what most
// compilers determinize to).
type LeftFirst struct{}

// Choose implements Oracle.
func (LeftFirst) Choose(n int) int { return 0 }

// RightFirst always evaluates the last operand first.
type RightFirst struct{}

// Choose implements Oracle.
func (RightFirst) Choose(n int) int { return n - 1 }

// BitOracle consumes pre-supplied choice values, mapping them onto [0,n)
// choices; useful for enumerating or fuzzing evaluation orders.
type BitOracle struct {
	Bits []uint64
	i    int
}

// Choose implements Oracle.
func (b *BitOracle) Choose(n int) int {
	if n <= 1 {
		return 0
	}
	var v uint64
	if b.i < len(b.Bits) {
		v = b.Bits[b.i]
	}
	b.i++
	return int(v % uint64(n))
}

// addrSet is a set of accessed machine addresses.
type addrSet map[int64]struct{}

func (s addrSet) add(a int64) { s[a] = struct{}{} }

func (s addrSet) has(a int64) bool { _, ok := s[a]; return ok }

func unionAddrs(sets ...addrSet) addrSet {
	out := make(addrSet)
	for _, s := range sets {
		for a := range s {
			out[a] = struct{}{}
		}
	}
	return out
}

// intersects reports whether a ∩ b ≠ ∅, returning a witness address.
func intersects(a, b addrSet) (int64, bool) {
	if len(a) > len(b) {
		a, b = b, a
	}
	for x := range a {
		if b.has(x) {
			return x, true
		}
	}
	return 0, false
}

// access is the dynamic analog of the paper's judgement sets, with
// concrete addresses instead of lvalue expression IDs:
//
//	R — addresses read during the evaluation (mark_ref),
//	W — addresses written (side effects),
//	G ⊆ W — side effects not yet followed by a sequence point.
type access struct {
	R, W, G addrSet
}

func newAccess() access {
	return access{R: make(addrSet), W: make(addrSet), G: make(addrSet)}
}

func mergeAccess(as ...access) access {
	out := access{}
	rs := make([]addrSet, 0, len(as))
	ws := make([]addrSet, 0, len(as))
	gs := make([]addrSet, 0, len(as))
	for _, a := range as {
		rs = append(rs, a.R)
		ws = append(ws, a.W)
		gs = append(gs, a.G)
	}
	out.R = unionAddrs(rs...)
	out.W = unionAddrs(ws...)
	out.G = unionAddrs(gs...)
	return out
}

// lvalue is a reference to an object: a race-detection address (the byte
// address; bitfields of one storage unit share it, mirroring C's "memory
// location") and a storage cell key (distinct per bitfield).
type lvalue struct {
	addr int64
	cell int64
	typ  *ctypes.Type
	// bits is the field width for bitfield members (0 otherwise):
	// stores narrow the value to this many bits.
	bits int
}

func plainLV(addr int64, t *ctypes.Type) lvalue { return lvalue{addr: addr, cell: addr, typ: t} }

// Machine is the abstract machine state σ: memory plus allocation and
// call-frame bookkeeping. Unsequenced-race bookkeeping lives in the
// access summaries threaded through evaluation, not here.
type Machine struct {
	mem    map[int64]Value
	oracle Oracle

	nextAddr int64
	globals  map[string]int64
	frames   []*frame

	funcs map[string]*ast.FuncDecl

	// funcAddrs/funcNames intern function pseudo-addresses (funcAddr);
	// strLits interns string-literal arrays (internString).
	funcAddrs map[string]int64
	funcNames map[int64]string
	strLits   map[string]int64

	// steps guards against runaway loops in property tests.
	steps    int
	MaxSteps int
}

type frame struct {
	locals map[*ast.Symbol]int64
	ret    Value
	retSet bool
}

// NewMachine creates a machine for the translation unit, allocating
// global storage and running global initializers.
func NewMachine(tu *ast.TranslationUnit, o Oracle) (*Machine, error) {
	m := &Machine{
		mem:       make(map[int64]Value),
		oracle:    o,
		nextAddr:  0x1000,
		globals:   make(map[string]int64),
		funcs:     make(map[string]*ast.FuncDecl),
		funcAddrs: make(map[string]int64),
		funcNames: make(map[int64]string),
		strLits:   make(map[string]int64),
		MaxSteps:  2_000_000,
	}
	for _, f := range tu.Funcs {
		if f.Body != nil || m.funcs[f.Name] == nil {
			m.funcs[f.Name] = f
		}
		m.funcAddr(f.Name)
	}
	for _, g := range tu.Globals {
		addr := m.alloc(g.Type)
		m.globals[g.Name] = addr
		m.zeroInit(addr, g.Type)
	}
	// Initializers run after all globals are allocated so they can take
	// addresses of later globals.
	for _, g := range tu.Globals {
		if g.Init == nil {
			continue
		}
		if err := m.initialize(m.globals[g.Name], g.Type, g.Init); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// SetOracle replaces the machine's order oracle.
func (m *Machine) SetOracle(o Oracle) { m.oracle = o }

// alloc reserves storage for one object of type t and returns its address.
func (m *Machine) alloc(t *ctypes.Type) int64 {
	size := int64(t.Size())
	if size == 0 {
		size = 8
	}
	addr := m.nextAddr
	// Red zone between objects so out-of-bounds addresses never collide.
	m.nextAddr += size + 16
	return addr
}

func (m *Machine) zeroInit(addr int64, t *ctypes.Type) {
	switch t.Kind {
	case ctypes.Array:
		es := int64(t.Elem.Size())
		n := t.Len
		if n < 0 {
			n = 0
		}
		for i := 0; i < n; i++ {
			m.zeroInit(addr+int64(i)*es, t.Elem)
		}
	case ctypes.Struct, ctypes.Union:
		for _, f := range t.Fields {
			m.zeroInit(addr+int64(f.Offset), f.Type)
		}
	default:
		if t.IsFloat() {
			m.mem[addr] = FloatValue(0)
		} else {
			m.mem[addr] = IntValue(0)
		}
	}
}

// initialize evaluates an initializer expression (possibly an InitList)
// into the object at addr. Each scalar initializer is its own full
// expression.
func (m *Machine) initialize(addr int64, t *ctypes.Type, init ast.Expr) error {
	if il, ok := init.(*ast.InitList); ok {
		switch t.Kind {
		case ctypes.Array:
			es := int64(t.Elem.Size())
			for i, el := range il.Elems {
				if err := m.initialize(addr+int64(i)*es, t.Elem, el); err != nil {
					return err
				}
			}
			return nil
		case ctypes.Struct:
			for i, el := range il.Elems {
				if i >= len(t.Fields) {
					break
				}
				f := t.Fields[i]
				if err := m.initialize(addr+int64(f.Offset), f.Type, el); err != nil {
					return err
				}
			}
			return nil
		}
		if len(il.Elems) > 0 {
			return m.initialize(addr, t, il.Elems[0])
		}
		return nil
	}
	v, _, err := m.evalRvalue(init)
	if err != nil {
		return err
	}
	m.mem[addr] = convert(v, t)
	return nil
}

// GlobalAddr returns the address of a global by name (for tests).
func (m *Machine) GlobalAddr(name string) (int64, bool) {
	a, ok := m.globals[name]
	return a, ok
}

// ReadGlobal reads a global scalar directly (bypassing race tracking).
func (m *Machine) ReadGlobal(name string) (Value, bool) {
	a, ok := m.globals[name]
	if !ok {
		return Value{}, false
	}
	v, ok := m.mem[a]
	return v, ok
}

// WriteGlobal writes a global scalar directly (test setup).
func (m *Machine) WriteGlobal(name string, v Value) bool {
	a, ok := m.globals[name]
	if !ok {
		return false
	}
	m.mem[a] = v
	return true
}

// ReadAddr reads the scalar cell at addr directly.
func (m *Machine) ReadAddr(addr int64) (Value, bool) {
	v, ok := m.mem[addr]
	return v, ok
}

// WriteAddr writes the scalar cell at addr directly.
func (m *Machine) WriteAddr(addr int64, v Value) { m.mem[addr] = v }

// Snapshot copies the memory state (for comparing final states across
// evaluation orders).
func (m *Machine) Snapshot() map[int64]Value {
	out := make(map[int64]Value, len(m.mem))
	for k, v := range m.mem {
		out[k] = v
	}
	return out
}

// Restore replaces memory with a snapshot.
func (m *Machine) Restore(snap map[int64]Value) {
	m.mem = make(map[int64]Value, len(snap))
	for k, v := range snap {
		m.mem[k] = v
	}
}

func (m *Machine) frameTop() *frame { return m.frames[len(m.frames)-1] }

func (m *Machine) addrOf(sym *ast.Symbol, name string) (int64, error) {
	if sym != nil && !sym.Global {
		for i := len(m.frames) - 1; i >= 0; i-- {
			if a, ok := m.frames[i].locals[sym]; ok {
				return a, nil
			}
		}
	}
	if a, ok := m.globals[name]; ok {
		return a, nil
	}
	return 0, &Undefined{Reason: "unallocated variable " + name}
}

func (m *Machine) step() error {
	m.steps++
	if m.steps > m.MaxSteps {
		return fmt.Errorf("csem: step budget exceeded (%d)", m.MaxSteps)
	}
	return nil
}
