// Package fuzz is the differential fuzzing subsystem: a typed,
// AST-level random program generator over the supported C subset, a
// harness that differences the reference semantics (csem, under
// enumerated evaluation orders) against every compiled pipeline, and a
// delta-reducer that shrinks failing programs before they are reported.
//
// The generator's central discipline is the same one the paper's
// analysis reasons about: which objects a full expression reads and
// side-effects, and in which sequencing regions. By tracking a race key
// per storage unit it can emit expressions that use the whole operator
// surface (including unsequenced side effects in arguments, comma,
// short-circuit, conditional) while controlling *whether* the program
// races: UB-free programs feed the differential check, deliberately
// racy ones feed the sanitizer check.
package fuzz

import (
	"fmt"
	"math/rand"
	"strings"
)

// Config tunes the generator.
type Config struct {
	// MaxStmts bounds the statements generated in main.
	MaxStmts int
	// MaxDepth bounds expression nesting.
	MaxDepth int
	// RacyBias is the probability that a full expression deliberately
	// introduces an unsequenced race (making the program UB).
	RacyBias float64
	// CallBias is the probability that a statement position emits a
	// standalone helper call instead of the usual statement mix —
	// the knob that makes programs call-heavy enough to exercise the
	// interprocedural summary tier (pointer-param helpers called with
	// addresses of distinct objects).
	CallBias float64
	// Structs/Calls/Loops gate those features.
	Structs bool
	Calls   bool
	Loops   bool
}

// DefaultConfig is the harness's standard generator shape.
func DefaultConfig() Config {
	return Config{MaxStmts: 10, MaxDepth: 4, CallBias: 0.2, Structs: true, Calls: true, Loops: true}
}

// ctype is the generator's view of a C scalar type.
type ctype struct {
	spell    string // C spelling (possibly a typedef alias)
	unsigned bool
	bits     int
}

var intTypes = []ctype{
	{"int", false, 32},
	{"unsigned", true, 32},
	{"char", false, 8},
	{"short", false, 16},
	{"long", false, 64},
	{"unsigned long", true, 64},
}

// object is a generated lvalue the discipline tracks: name is its C
// spelling, key its race key (storage unit — bitfields of one unit
// share it).
type object struct {
	name string
	key  string
	typ  ctype
	// bits < typ.bits for bitfield members.
	bits int
}

// arrInfo is a generated array object.
type arrInfo struct {
	name string
	key  string
	typ  ctype
	n    int // power of two, for cheap in-bounds masking
}

// ptrInfo is an immutable pointer local aimed at a known array.
type ptrInfo struct {
	name string
	arr  arrInfo
	off  int
}

// funcInfo is a generated helper function.
type funcInfo struct {
	name     string
	nparams  int
	restrict bool // params are int *restrict; must get distinct objects
	ptr      bool // first param is int *; reads and writes its pointee
}

// expr is the generator's typed AST node.
type expr struct {
	kind string // "leaf", "un", "post", "bin", "asn", "call", "cond", "comma", "cast"
	op   string
	text string // leaf spelling
	kids []*expr
	typ  ctype
}

func leaf(text string, t ctype) *expr { return &expr{kind: "leaf", text: text, typ: t} }

// String renders the tree fully parenthesized, so precedence can never
// diverge between what the generator typed and what the parser reads.
func (e *expr) String() string {
	var b strings.Builder
	e.render(&b)
	return b.String()
}

func (e *expr) render(b *strings.Builder) {
	switch e.kind {
	case "leaf":
		b.WriteString(e.text)
	case "un":
		// The space keeps "-" off a negative literal ("(- -5)", not "(--5)").
		b.WriteString("(")
		b.WriteString(e.op)
		b.WriteString(" ")
		e.kids[0].render(b)
		b.WriteString(")")
	case "post":
		b.WriteString("(")
		e.kids[0].render(b)
		b.WriteString(e.op)
		b.WriteString(")")
	case "bin", "asn", "comma":
		if e.op == "[]" {
			b.WriteString("(")
			e.kids[0].render(b)
			b.WriteString("[")
			e.kids[1].render(b)
			b.WriteString("])")
			return
		}
		b.WriteString("(")
		e.kids[0].render(b)
		b.WriteString(" ")
		b.WriteString(e.op)
		b.WriteString(" ")
		e.kids[1].render(b)
		b.WriteString(")")
	case "cond":
		b.WriteString("(")
		e.kids[0].render(b)
		b.WriteString(" ? ")
		e.kids[1].render(b)
		b.WriteString(" : ")
		e.kids[2].render(b)
		b.WriteString(")")
	case "cast":
		b.WriteString("((")
		b.WriteString(e.op)
		b.WriteString(")")
		e.kids[0].render(b)
		b.WriteString(")")
	case "call":
		e.kids[0].render(b)
		b.WriteString("(")
		for i, k := range e.kids[1:] {
			if i > 0 {
				b.WriteString(", ")
			}
			k.render(b)
		}
		b.WriteString(")")
	}
}

// Generator produces one program per seed, deterministically.
type Generator struct {
	rng *rand.Rand
	cfg Config

	scalars []object
	arrays  []arrInfo
	ptrs    []ptrInfo
	funcs   []funcInfo

	// Per-full-expression sequencing discipline.
	written map[string]bool // keys side-effected in the current full expr
	read    map[string]bool // keys read in the current full expr
	exempt  string          // assignment target whose reads are its own operands'
	racy    bool            // this full expression is allowed to race

	aliases map[string]string // base spelling -> typedef alias (or itself)
}

// Program is one generated test case.
type Program struct {
	Seed   int64
	Source string
	// Racy reports that the generator deliberately inserted an
	// unsequenced race (the reference semantics should flag UB).
	Racy bool
}

// Generate builds the program for a seed under cfg.
func Generate(seed int64, cfg Config) Program {
	if cfg.MaxStmts <= 0 {
		cfg.MaxStmts = 10
	}
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 4
	}
	g := &Generator{
		rng:     rand.New(rand.NewSource(seed)),
		cfg:     cfg,
		written: map[string]bool{},
		read:    map[string]bool{},
		aliases: map[string]string{},
	}
	src, racy := g.program()
	return Program{Seed: seed, Source: src, Racy: racy}
}

func (g *Generator) intn(n int) int        { return g.rng.Intn(n) }
func (g *Generator) chance(p float64) bool { return g.rng.Float64() < p }

func (g *Generator) pickType() ctype {
	t := intTypes[g.intn(len(intTypes))]
	if a, ok := g.aliases[t.spell]; ok {
		t.spell = a
	}
	return t
}

func (g *Generator) program() (string, bool) {
	var b strings.Builder

	// Typedef aliases for some base types.
	if g.chance(0.6) {
		b.WriteString("typedef int i32;\ntypedef unsigned u32;\n")
		g.aliases["int"] = "i32"
		g.aliases["unsigned"] = "u32"
	}

	// Struct/union shapes: plain members, a bitfield storage unit, and a
	// same-size union. Bitfields of one unit share a race key.
	if g.cfg.Structs {
		b.WriteString("struct S { int a; int b : 5; int c : 7; unsigned d; };\n")
		b.WriteString("union U { int i; unsigned u; };\n")
		b.WriteString("struct S gs;\nunion U gu;\n")
		g.scalars = append(g.scalars,
			object{name: "gs.a", key: "gs.a", typ: ctype{"int", false, 32}},
			object{name: "gs.b", key: "gs.bc", typ: ctype{"int", false, 32}, bits: 5},
			object{name: "gs.c", key: "gs.bc", typ: ctype{"int", false, 32}, bits: 7},
			object{name: "gs.d", key: "gs.d", typ: ctype{"unsigned", true, 32}},
			object{name: "gu.i", key: "gu", typ: ctype{"int", false, 32}},
			object{name: "gu.u", key: "gu", typ: ctype{"unsigned", true, 32}},
		)
	}

	// Scalar globals.
	nglob := 3 + g.intn(3)
	for i := 0; i < nglob; i++ {
		t := g.pickType()
		name := fmt.Sprintf("g%d", i)
		if g.chance(0.5) {
			fmt.Fprintf(&b, "%s %s = %d;\n", t.spell, name, g.intn(50)-10)
		} else {
			fmt.Fprintf(&b, "%s %s;\n", t.spell, name)
		}
		g.scalars = append(g.scalars, object{name: name, key: name, typ: t})
	}

	// Arrays (power-of-two lengths for mask indexing).
	narr := 1 + g.intn(2)
	for i := 0; i < narr; i++ {
		t := g.pickType()
		n := []int{8, 16}[g.intn(2)]
		name := fmt.Sprintf("A%d", i)
		fmt.Fprintf(&b, "%s %s[%d];\n", t.spell, name, n)
		g.arrays = append(g.arrays, arrInfo{name: name, key: name, typ: t, n: n})
	}

	// Helper functions: plain ones with global side effects (call-owned,
	// indeterminately sequenced — legal but order-sensitive) and a
	// restrict-qualified one, always called with distinct objects. Their
	// definitions go to defs, placed before or after main at the end.
	var defs strings.Builder
	if g.cfg.Calls {
		nf := 1 + g.intn(2)
		for i := 0; i < nf; i++ {
			name := fmt.Sprintf("f%d", i)
			tgt := g.scalars[g.intn(len(g.scalars))]
			fmt.Fprintf(&defs, "int %s(int x, int y) { %s = %s + x; return (x * %d) ^ (y + %d); }\n",
				name, tgt.name, tgt.name, 1+g.intn(5), g.intn(7))
			g.funcs = append(g.funcs, funcInfo{name: name, nparams: 2})
		}
		if len(g.arrays) > 0 && g.chance(0.7) {
			defs.WriteString("int fr(int *restrict p, int *restrict q) { *p = *p + 1; return *p - *q; }\n")
			g.funcs = append(g.funcs, funcInfo{name: "fr", nparams: 2, restrict: true})
		}
		// Pointer-param helpers: read and write through an int* argument,
		// the shape whose mod/ref only the interprocedural summary tier
		// can resolve at call sites once inlining is off.
		np := 1 + g.intn(2)
		for i := 0; i < np; i++ {
			name := fmt.Sprintf("fp%d", i)
			fmt.Fprintf(&defs, "int %s(int *p, int y) { *p = *p + y * %d; return *p ^ %d; }\n",
				name, 1+g.intn(3), g.intn(7))
			g.funcs = append(g.funcs, funcInfo{name: name, nparams: 2, ptr: true})
		}
	}

	// main: locals, pointers, statements, canonical return. The
	// declarations so far are set aside in head.
	head := b.String()
	b.Reset()
	b.WriteString("int main(void) {\n")
	nloc := 2 + g.intn(3)
	for i := 0; i < nloc; i++ {
		t := g.pickType()
		name := fmt.Sprintf("t%d", i)
		fmt.Fprintf(&b, "  %s %s = %d;\n", t.spell, name, g.intn(20))
		g.scalars = append(g.scalars, object{name: name, key: name, typ: t})
	}
	if len(g.arrays) > 0 {
		a := g.arrays[g.intn(len(g.arrays))]
		off := g.intn(a.n / 2)
		fmt.Fprintf(&b, "  %s *p0 = &%s[%d];\n", a.typ.spell, a.name, off)
		g.ptrs = append(g.ptrs, ptrInfo{name: "p0", arr: a, off: off})
	}

	racy := false
	nst := 3 + g.intn(g.cfg.MaxStmts)
	for i := 0; i < nst; i++ {
		if s, r := g.statement(1); s != "" {
			racy = racy || r
			b.WriteString(s)
		}
	}

	// Canonical result: fold observable state into the exit code.
	b.WriteString("  long h = 0;\n")
	for _, o := range g.scalars {
		if strings.Contains(o.name, ".") && g.chance(0.5) {
			continue
		}
		fmt.Fprintf(&b, "  h = h * 31 + %s;\n", o.name)
	}
	for _, a := range g.arrays {
		fmt.Fprintf(&b, "  for (int i = 0; i < %d; i++) h = h * 31 + %s[i];\n", a.n, a.name)
	}
	b.WriteString("  return (int)(h % 100003);\n}\n")
	main := b.String()

	// Forward-defined helpers: a share of programs declare the helpers
	// as prototypes and define them after main, so the pipeline sees
	// callers before callees. Drawn last to leave the rest of the
	// program's random stream untouched.
	if defs.Len() > 0 && g.chance(forwardShare) {
		var protos strings.Builder
		for _, def := range strings.Split(defs.String(), "\n") {
			if proto, _, ok := strings.Cut(def, " {"); ok {
				protos.WriteString(proto + ";\n")
			}
		}
		return head + protos.String() + main + defs.String(), racy
	}
	return head + defs.String() + main, racy
}

// forwardShare is the share of programs with helpers that define them
// after main, behind prototypes.
const forwardShare = 0.3

// beginFullExpr resets the sequencing discipline for one full
// expression, deciding whether it may race.
func (g *Generator) beginFullExpr() {
	g.written = map[string]bool{}
	g.read = map[string]bool{}
	g.exempt = ""
	g.racy = g.chance(g.cfg.RacyBias)
}

// statement renders one (possibly compound) statement at nesting depth
// d. The bool reports whether a deliberate race was emitted.
func (g *Generator) statement(d int) (string, bool) {
	ind := strings.Repeat("  ", d)
	// Call-heavy bias: a standalone helper call (often through a
	// pointer-param helper) instead of the usual statement mix.
	if g.cfg.Calls && len(g.funcs) > 0 && g.chance(g.cfg.CallBias) {
		g.beginFullExpr()
		e := g.callExpr(1)
		return ind + e.String() + ";\n", g.racy && g.cfg.RacyBias > 0
	}
	switch k := g.intn(10); {
	case k < 4: // expression statement
		g.beginFullExpr()
		e := g.fullExpr()
		return ind + e.String() + ";\n", g.racy && g.cfg.RacyBias > 0

	case k < 6 && g.cfg.Loops: // loop over an array (LICM/unroll/vectorize shapes)
		if len(g.arrays) == 0 {
			return "", false
		}
		a := g.arrays[g.intn(len(g.arrays))]
		g.beginFullExpr()
		body := g.loopBody(a)
		return fmt.Sprintf("%sfor (int i = 0; i < %d; i++) {\n%s%s}\n", ind, a.n, body, ind), false

	case k < 8: // if/else on a generated condition
		g.beginFullExpr()
		cond := g.intExpr(2)
		g.beginFullExpr()
		thenS := g.simpleAssign(d + 1)
		if g.chance(0.5) {
			g.beginFullExpr()
			elseS := g.simpleAssign(d + 1)
			return fmt.Sprintf("%sif (%s) {\n%s%s} else {\n%s%s}\n", ind, cond, thenS, ind, elseS, ind), false
		}
		return fmt.Sprintf("%sif (%s) {\n%s%s}\n", ind, cond, thenS, ind), false

	default: // plain assignment statement
		g.beginFullExpr()
		return g.simpleAssign(d), g.racy && g.cfg.RacyBias > 0
	}
}

// loopBody emits statements whose shapes the O3 loop passes target:
// invariant subexpressions (LICM), streaming element updates
// (unroll/vectorize), and occasionally an unsequenced pair inside the
// loop, the shape unroll clones π predicates over.
func (g *Generator) loopBody(a arrInfo) string {
	var b strings.Builder
	mask := a.n - 1
	inv := g.pickScalarRead()
	switch g.intn(4) {
	case 0:
		fmt.Fprintf(&b, "    %s[i] = %s[i] + %s * %s;\n", a.name, a.name, inv, inv)
	case 1:
		if len(g.arrays) > 1 {
			b2 := g.arrays[(g.intn(len(g.arrays)))]
			fmt.Fprintf(&b, "    %s[i] = %s[i & %d] * %d + i;\n", a.name, b2.name, b2.n-1, 1+g.intn(4))
		} else {
			fmt.Fprintf(&b, "    %s[i] = i * %d;\n", a.name, 1+g.intn(5))
		}
	case 2:
		if len(g.ptrs) > 0 {
			p := g.ptrs[0]
			span := p.arr.n - p.off
			fmt.Fprintf(&b, "    *(%s + (i & %d)) = i ^ %d;\n", p.name, span-1, g.intn(9))
		} else {
			fmt.Fprintf(&b, "    %s[i] = i;\n", a.name)
		}
	default:
		// Unsequenced pair inside the loop body: two distinct globals
		// written in one full expression, every iteration.
		o1, ok1 := g.pickSETarget()
		o2, ok2 := g.pickSETarget()
		if ok1 && ok2 && o1.key != o2.key {
			fmt.Fprintf(&b, "    %s[i & %d] = (%s = i) + (%s = i * 2);\n", a.name, mask, o1.name, o2.name)
		} else {
			fmt.Fprintf(&b, "    %s[i] = i + %d;\n", a.name, g.intn(6))
		}
	}
	return b.String()
}

// simpleAssign renders "target = fullExpr;".
func (g *Generator) simpleAssign(d int) string {
	ind := strings.Repeat("  ", d)
	e := g.fullExpr()
	return ind + e.String() + ";\n"
}

// fullExpr produces the root of a full expression — always effectful so
// statements are never dead.
func (g *Generator) fullExpr() *expr {
	if e := g.assignExpr(0); e != nil {
		return e
	}
	return leaf("0", ctype{"int", false, 32})
}

// pickScalarRead returns the spelling of a readable scalar (respecting
// pending side effects), or a literal when none qualifies.
func (g *Generator) pickScalarRead() string {
	for tries := 0; tries < 8; tries++ {
		o := g.scalars[g.intn(len(g.scalars))]
		if g.readable(o.key) {
			g.read[o.key] = true
			return o.name
		}
	}
	return fmt.Sprint(1 + g.intn(9))
}

func (g *Generator) readable(key string) bool {
	return !g.written[key] || key == g.exempt || g.racy
}

// pickSETarget chooses a scalar that may legally be side-effected in
// the current full expression.
func (g *Generator) pickSETarget() (object, bool) {
	for tries := 0; tries < 10; tries++ {
		o := g.scalars[g.intn(len(g.scalars))]
		if g.racy || (!g.written[o.key] && !g.read[o.key]) {
			return o, true
		}
	}
	return object{}, false
}

// pickPtrArg chooses an addressable int-typed scalar a pointer-param
// helper may be aimed at. The callee both reads and writes the pointee;
// function execution is indeterminately sequenced (not unsequenced)
// with the rest of the full expression, but claiming the key for both
// directions keeps the rest of the discipline conservative.
func (g *Generator) pickPtrArg() (object, bool) {
	for tries := 0; tries < 10; tries++ {
		o := g.scalars[g.intn(len(g.scalars))]
		if o.typ.unsigned || o.typ.bits != 32 || o.bits != 0 {
			continue // helper signature is int*; bitfields have no address
		}
		if g.racy || (!g.written[o.key] && !g.read[o.key]) {
			g.written[o.key] = true
			g.read[o.key] = true
			return o, true
		}
	}
	return object{}, false
}

// assignExpr builds an assignment (or inc/dec) whose target respects
// the discipline; nil when no target is available.
func (g *Generator) assignExpr(depth int) *expr {
	o, ok := g.pickSETarget()
	if !ok {
		return nil
	}
	g.written[o.key] = true

	if g.chance(0.2) { // ++/--
		op := []string{"++", "--"}[g.intn(2)]
		if g.chance(0.5) {
			return &expr{kind: "post", op: op, kids: []*expr{leaf(o.name, o.typ)}, typ: o.typ}
		}
		return &expr{kind: "un", op: op, kids: []*expr{leaf(o.name, o.typ)}, typ: o.typ}
	}

	op := "="
	if g.chance(0.4) {
		op = []string{"+=", "-=", "*=", "^=", "|=", "&="}[g.intn(6)]
	}
	// Reads of the target inside its own RHS are the operator's own
	// operands — exempt (remove_refs in the paper's judgement).
	savedExempt := g.exempt
	g.exempt = o.key
	rhs := g.intExpr(depth + 1)
	g.exempt = savedExempt
	tgt := leaf(o.name, o.typ)
	return &expr{kind: "asn", op: op, kids: []*expr{tgt, rhs}, typ: o.typ}
}

// intExpr builds an integer-valued expression of bounded depth.
func (g *Generator) intExpr(depth int) *expr {
	tInt := ctype{"int", false, 32}
	if depth >= g.cfg.MaxDepth {
		if g.chance(0.5) {
			return leaf(g.pickScalarRead(), tInt)
		}
		return leaf(fmt.Sprint(g.intn(64)-16), tInt)
	}
	switch k := g.intn(20); {
	case k < 4: // leaf read
		return leaf(g.pickScalarRead(), tInt)
	case k < 5: // literal, occasionally an edge value
		lits := []string{fmt.Sprint(g.intn(100)), "2147483647", "-2147483647", "0", "1"}
		return leaf(lits[g.intn(len(lits))], tInt)
	case k < 6: // array element
		if len(g.arrays) == 0 {
			return leaf(g.pickScalarRead(), tInt)
		}
		a := g.arrays[g.intn(len(g.arrays))]
		idx := g.intExpr(depth + 1)
		g.read[a.key] = true
		masked := &expr{kind: "bin", op: "&", kids: []*expr{idx, leaf(fmt.Sprint(a.n-1), tInt)}, typ: tInt}
		return &expr{kind: "bin", op: "[]", kids: []*expr{leaf(a.name, a.typ), masked}, typ: a.typ}
	case k < 7: // pointer deref with arithmetic
		if len(g.ptrs) == 0 {
			return leaf(g.pickScalarRead(), tInt)
		}
		p := g.ptrs[0]
		g.read[p.arr.key] = true
		span := p.arr.n - p.off
		idx := &expr{kind: "bin", op: "&", kids: []*expr{g.intExpr(depth + 1), leaf(fmt.Sprint(span-1), tInt)}, typ: tInt}
		sum := &expr{kind: "bin", op: "+", kids: []*expr{leaf(p.name, p.arr.typ), idx}, typ: p.arr.typ}
		return &expr{kind: "un", op: "*", kids: []*expr{sum}, typ: p.arr.typ}
	case k < 8 && g.cfg.Calls && len(g.funcs) > 0: // call with effectful args
		return g.callExpr(depth)
	case k < 9: // comma
		l := g.effectfulOperand(depth + 1)
		r := g.intExpr(depth + 1)
		return &expr{kind: "comma", op: ",", kids: []*expr{l, r}, typ: r.typ}
	case k < 11: // short-circuit
		op := []string{"&&", "||"}[g.intn(2)]
		return &expr{kind: "bin", op: op, kids: []*expr{g.intExpr(depth + 1), g.intExpr(depth + 1)}, typ: tInt}
	case k < 13: // conditional
		return &expr{kind: "cond", kids: []*expr{g.intExpr(depth + 1), g.intExpr(depth + 1), g.intExpr(depth + 1)}, typ: tInt}
	case k < 14: // embedded assignment
		if e := g.assignExpr(depth); e != nil {
			return e
		}
		return leaf(g.pickScalarRead(), tInt)
	case k < 15: // unary
		op := []string{"-", "~", "!"}[g.intn(3)]
		return &expr{kind: "un", op: op, kids: []*expr{g.intExpr(depth + 1)}, typ: tInt}
	case k < 16: // cast
		t := g.pickType()
		return &expr{kind: "cast", op: t.spell, kids: []*expr{g.intExpr(depth + 1)}, typ: t}
	case k < 17: // comparison
		op := []string{"<", ">", "<=", ">=", "==", "!="}[g.intn(6)]
		return &expr{kind: "bin", op: op, kids: []*expr{g.intExpr(depth + 1), g.intExpr(depth + 1)}, typ: tInt}
	default: // arithmetic / bitwise / shift
		op := []string{"+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>"}[g.intn(10)]
		l := g.intExpr(depth + 1)
		r := g.intExpr(depth + 1)
		switch op {
		case "/", "%":
			// Positive bounded divisor: keeps /0 and INT_MIN/-1 out of
			// UB-free programs without forbidding the operators.
			r = &expr{kind: "bin", op: "|", typ: tInt, kids: []*expr{
				&expr{kind: "bin", op: "&", kids: []*expr{r, leaf("7", tInt)}, typ: tInt},
				leaf("1", tInt)}}
		case "<<", ">>":
			r = &expr{kind: "bin", op: "&", kids: []*expr{r, leaf("15", tInt)}, typ: tInt}
		}
		return &expr{kind: "bin", op: op, kids: []*expr{l, r}, typ: tInt}
	}
}

// effectfulOperand prefers a side effect (for comma heads) but degrades
// to a plain read.
func (g *Generator) effectfulOperand(depth int) *expr {
	if e := g.assignExpr(depth); e != nil {
		return e
	}
	return leaf(g.pickScalarRead(), ctype{"int", false, 32})
}

// callExpr builds a helper call whose arguments may themselves carry
// unsequenced side effects (the mutually-unsequenced region the paper's
// call rule covers).
func (g *Generator) callExpr(depth int) *expr {
	f := g.funcs[g.intn(len(g.funcs))]
	tInt := ctype{"int", false, 32}
	if f.ptr {
		o, ok := g.pickPtrArg()
		if !ok {
			return leaf("0", tInt)
		}
		args := []*expr{leaf("&"+o.name, o.typ), g.intExpr(depth + 1)}
		return &expr{kind: "call", kids: append([]*expr{leaf(f.name, tInt)}, args...), typ: tInt}
	}
	if f.restrict {
		// Distinct halves of one array — never aliasing, so the restrict
		// qualifier is honoured.
		if len(g.arrays) == 0 {
			return leaf("0", tInt)
		}
		a := g.arrays[g.intn(len(g.arrays))]
		if a.typ.spell != "int" && g.aliases["int"] == "" || a.typ.bits != 32 || a.typ.unsigned {
			return leaf("0", tInt)
		}
		g.read[a.key] = true
		g.written[a.key] = true
		args := []*expr{
			leaf(fmt.Sprintf("&%s[0]", a.name), a.typ),
			leaf(fmt.Sprintf("&%s[%d]", a.name, a.n/2), a.typ),
		}
		return &expr{kind: "call", kids: append([]*expr{leaf(f.name, tInt)}, args...), typ: tInt}
	}
	args := make([]*expr, 0, f.nparams)
	for i := 0; i < f.nparams; i++ {
		if g.chance(0.4) {
			args = append(args, g.effectfulOperand(depth+1))
		} else {
			args = append(args, g.intExpr(depth+1))
		}
	}
	return &expr{kind: "call", kids: append([]*expr{leaf(f.name, tInt)}, args...), typ: tInt}
}
