// Package ir defines the intermediate representation the OOElala backend
// optimizes: a typed, virtual-register, three-address IR in the style of
// pre-mem2reg LLVM IR. Local variables live in allocas; every memory
// access is an explicit Load or Store; must-not-alias facts from the AST
// analysis are carried as MustNotAlias intrinsic instructions referencing
// the two pointer values (the analog of the paper's metadata-wrapped
// intrinsic calls).
package ir

import "fmt"

// Class is an IR value class (machine-level types).
type Class int

// Value classes.
const (
	Void Class = iota
	I8
	I16
	I32
	I64
	F32
	F64
	Ptr
)

func (c Class) String() string {
	switch c {
	case Void:
		return "void"
	case I8:
		return "i8"
	case I16:
		return "i16"
	case I32:
		return "i32"
	case I64:
		return "i64"
	case F32:
		return "f32"
	case F64:
		return "f64"
	case Ptr:
		return "ptr"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// Size returns the byte size of the class.
func (c Class) Size() int {
	switch c {
	case I8:
		return 1
	case I16:
		return 2
	case I32, F32:
		return 4
	case I64, F64, Ptr:
		return 8
	}
	return 0
}

// IsFloat reports floating classes.
func (c Class) IsFloat() bool { return c == F32 || c == F64 }

// Value is anything an instruction can reference.
type Value interface {
	Class() Class
	vname() string
}

// Const is a constant value.
type Const struct {
	Cls Class
	I   int64
	F   float64
}

// Class implements Value.
func (c *Const) Class() Class { return c.Cls }
func (c *Const) vname() string {
	if c.Cls.IsFloat() {
		return fmt.Sprintf("%g", c.F)
	}
	return fmt.Sprint(c.I)
}

// ConstInt makes an integer constant.
func ConstInt(cls Class, v int64) *Const { return &Const{Cls: cls, I: v} }

// ConstFloat makes a floating constant.
func ConstFloat(cls Class, v float64) *Const { return &Const{Cls: cls, F: v} }

// Global is a module-level object; its value is its address.
type Global struct {
	Name string
	Size int
	// Init holds scalar initial values keyed by byte offset.
	Init map[int]InitVal
	// ElemClass records the dominant scalar class for zero-init.
	ElemClass Class
}

// InitVal is one initialized scalar cell.
type InitVal struct {
	Cls Class
	I   int64
	F   float64
}

// Class implements Value: a global evaluates to its address.
func (g *Global) Class() Class  { return Ptr }
func (g *Global) vname() string { return "@" + g.Name }

// Param is a function parameter.
type Param struct {
	Name string
	Cls  Class
	Idx  int
	// Restrict marks a C99 restrict-qualified pointer parameter: within
	// the function, the object it points to is accessed only through
	// pointers derived from it.
	Restrict bool
}

// Class implements Value.
func (p *Param) Class() Class  { return p.Cls }
func (p *Param) vname() string { return "%" + p.Name }

// FuncRef is a reference to a function (for indirect calls).
type FuncRef struct {
	Name string
}

// Class implements Value.
func (f *FuncRef) Class() Class  { return Ptr }
func (f *FuncRef) vname() string { return "@" + f.Name }

// Op is an instruction opcode.
type Op int

// Opcodes.
const (
	OpAlloca Op = iota
	OpLoad
	OpStore
	OpGEP // Args[0]=base, Args[1]=index (may be const); Scale and Off fields
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpRem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	OpNeg
	OpNot // bitwise not
	OpCmp // Pred field
	OpSelect
	OpConvert // class conversion
	OpCall    // Callee field; Args are arguments
	OpBr      // Target
	OpCondBr  // Args[0]=cond; Then/Else
	OpRet     // optional Args[0]
	OpMustNotAlias
	OpUBCheck // sanitizer runtime check: Args[0], Args[1] pointers must differ
	OpMemset  // Args[0]=ptr, Args[1]=byte val, Args[2]=len
	OpMemcpy  // Args[0]=dst, Args[1]=src, Args[2]=len
	// Vector ops produced by the loop vectorizer. Width lanes.
	OpVecLoad
	OpVecStore  // Args[0]=ptr, Args[1]=vec value
	OpVecBin    // scalar sub-op in VecOp field; Args[0], Args[1]
	OpVecSplat  // broadcast scalar Args[0]
	OpVecReduce // fold lanes with VecOp
	OpVecSelect // Args[0]=mask vec, Args[1], Args[2]
	OpVecCall   // lane-wise pure builtin: Callee, Args are vectors
	OpVecIota   // lanes [0, 1, ..., Width-1] in class Cls
)

var opNames = map[Op]string{
	OpAlloca: "alloca", OpLoad: "load", OpStore: "store", OpGEP: "gep",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpRem: "rem",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpShr: "shr",
	OpNeg: "neg", OpNot: "not", OpCmp: "cmp", OpSelect: "select",
	OpConvert: "convert", OpCall: "call", OpBr: "br", OpCondBr: "condbr",
	OpRet: "ret", OpMustNotAlias: "mustnotalias", OpUBCheck: "ubcheck",
	OpMemset: "memset", OpMemcpy: "memcpy",
	OpVecLoad: "vload", OpVecStore: "vstore", OpVecBin: "vbin",
	OpVecSplat: "vsplat", OpVecReduce: "vreduce", OpVecSelect: "vselect",
	OpVecCall: "vcall", OpVecIota: "viota",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Pred is a comparison predicate.
type Pred int

// Comparison predicates.
const (
	Eq Pred = iota
	Ne
	Lt
	Le
	Gt
	Ge
	ULt // unsigned variants
	ULe
	UGt
	UGe
)

func (p Pred) String() string {
	return [...]string{"eq", "ne", "lt", "le", "gt", "ge", "ult", "ule", "ugt", "uge"}[p]
}

// Instr is one instruction. Instructions producing a value are used as
// operands directly (register values are in SSA form: each Instr defines
// its result exactly once).
type Instr struct {
	ID   int // unique within the function (printing/debug)
	Op   Op
	Cls  Class // result class (Void for stores, branches...)
	Args []Value

	// Op-specific fields.
	Name     string // Alloca: variable name
	AllocSz  int    // Alloca: byte size
	Scale    int    // GEP: index multiplier
	Off      int    // GEP: constant byte offset
	Pred     Pred   // Cmp
	Callee   string // Call: direct callee ("" for indirect via Args[0])
	Target   *Block // Br
	Then     *Block // CondBr
	Else     *Block // CondBr
	Width    int    // vector ops: lanes
	VecOp    Op     // VecBin: underlying scalar op; VecReduce: reduction op
	Unsigned bool   // Div/Rem/Shr/Cmp signedness

	// Volatile marks accesses the optimizer must not touch (UBCheck
	// support machinery).
	Volatile bool

	// Meta carries provenance for mustnotalias intrinsics: the ID of the
	// source-level predicate that produced this instruction. Clones made
	// by unrolling/inlining keep the same Meta, which is how the paper's
	// "# unique final preds" column is computed.
	Meta int

	// Span is the source range the instruction was lowered from. Clones
	// and pass-created instructions inherit the span of the instruction
	// they derive from, so the run-leg profiler can attribute cycles back
	// to source lines after arbitrary transformation. Not printed by the
	// IR printer and not part of structural equality.
	Span SrcSpan

	blk *Block
}

// Class implements Value.
func (i *Instr) Class() Class  { return i.Cls }
func (i *Instr) vname() string { return fmt.Sprintf("%%v%d", i.ID) }

// Block returns the containing basic block.
func (i *Instr) Block() *Block { return i.blk }

// SetBlock updates the containing-block backlink (used by passes that
// move instructions between blocks).
func SetBlock(i *Instr, b *Block) { i.blk = b }

// IsTerminator reports whether i ends a block.
func (i *Instr) IsTerminator() bool {
	return i.Op == OpBr || i.Op == OpCondBr || i.Op == OpRet
}

// IsMemWrite reports whether i writes memory.
func (i *Instr) IsMemWrite() bool {
	switch i.Op {
	case OpStore, OpVecStore, OpMemset, OpMemcpy:
		return true
	case OpCall:
		return true // conservatively; refined via callee summaries
	}
	return false
}

// IsMemRead reports whether i reads memory.
func (i *Instr) IsMemRead() bool {
	switch i.Op {
	case OpLoad, OpVecLoad, OpMemcpy:
		return true
	case OpCall:
		return true
	}
	return false
}

// Block is a basic block.
type Block struct {
	Name   string
	Instrs []*Instr
	Fn     *Func
}

// Append adds an instruction to the block.
func (b *Block) Append(i *Instr) *Instr {
	i.blk = b
	i.ID = b.Fn.nextID
	b.Fn.nextID++
	b.Instrs = append(b.Instrs, i)
	return i
}

// InsertBefore inserts inst before the instruction at index idx.
func (b *Block) InsertBefore(idx int, inst *Instr) {
	inst.blk = b
	inst.ID = b.Fn.nextID
	b.Fn.nextID++
	b.Instrs = append(b.Instrs, nil)
	copy(b.Instrs[idx+1:], b.Instrs[idx:])
	b.Instrs[idx] = inst
}

// Terminator returns the block's final instruction (nil if unterminated).
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	t := b.Instrs[len(b.Instrs)-1]
	if !t.IsTerminator() {
		return nil
	}
	return t
}

// Succs returns the successor blocks.
func (b *Block) Succs() []*Block {
	t := b.Terminator()
	if t == nil {
		return nil
	}
	switch t.Op {
	case OpBr:
		return []*Block{t.Target}
	case OpCondBr:
		return []*Block{t.Then, t.Else}
	}
	return nil
}

// Func is a function.
type Func struct {
	Name   string
	Params []*Param
	Ret    Class
	Blocks []*Block

	// ReadNone marks functions that neither read nor write global memory
	// (LLVM's readnone attribute), per the frontend purity analysis.
	ReadNone bool

	nextID    int
	nextBlkID int
}

// NewBlock creates and appends a block.
func (f *Func) NewBlock(name string) *Block {
	b := &Block{Name: fmt.Sprintf("%s%d", name, f.nextBlkID), Fn: f}
	f.nextBlkID++
	f.Blocks = append(f.Blocks, b)
	return b
}

// Entry returns the entry block.
func (f *Func) Entry() *Block {
	if len(f.Blocks) == 0 {
		return nil
	}
	return f.Blocks[0]
}

// Preds computes the predecessor map.
func (f *Func) Preds() map[*Block][]*Block {
	preds := make(map[*Block][]*Block, len(f.Blocks))
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			preds[s] = append(preds[s], b)
		}
	}
	return preds
}

// IDBound returns the next unused instruction ID. Every instruction ID
// the function has issued is below it, and IDs are never reused, so
// passes can index per-instruction side tables by ID; an instruction
// appended later gets an ID at or above a bound read earlier.
func (f *Func) IDBound() int { return f.nextID }

// NumInstrs counts instructions across all blocks.
func (f *Func) NumInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// Module is a compiled translation unit.
type Module struct {
	Name    string
	Globals []*Global
	Funcs   []*Func
	// Provenance maps mustnotalias/ubcheck Meta ids back to the source
	// π predicates they came from (index Meta-1; Meta ids are 1-based).
	Provenance []PredProvenance
}

// FindProvenance returns the source predicate behind a Meta id, or nil
// when the id is 0 or unknown.
func (m *Module) FindProvenance(meta int) *PredProvenance {
	if m == nil || meta <= 0 || meta > len(m.Provenance) {
		return nil
	}
	p := &m.Provenance[meta-1]
	if p.Meta != meta {
		// Defensive: the table is built append-only by irgen so this
		// should not happen, but fall back to a scan rather than lie.
		for i := range m.Provenance {
			if m.Provenance[i].Meta == meta {
				return &m.Provenance[i]
			}
		}
		return nil
	}
	return p
}

// FindFunc returns the function named name, or nil.
func (m *Module) FindFunc(name string) *Func {
	for _, f := range m.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// FindGlobal returns the global named name, or nil.
func (m *Module) FindGlobal(name string) *Global {
	for _, g := range m.Globals {
		if g.Name == name {
			return g
		}
	}
	return nil
}
