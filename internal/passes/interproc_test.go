package passes

import (
	"strings"
	"testing"

	"repro/internal/aa"
	"repro/internal/ir"
)

// sumsFor builds the call graph and bottom-up summaries the way
// RunModule does, from C source.
func sumsFor(t *testing.T, src string) (*ir.Module, *CallGraph, *aa.Summaries) {
	t.Helper()
	mod := benchModule(t, src)
	cg := BuildCallGraph(mod)
	return mod, cg, aa.BuildSummaries(mod, cg.BottomUp(), pureBuiltin)
}

const chainSrc = `
int g;
int leaf(int *p, int k) { *p = *p + k; return g; }
int mid(int *a, int *b) { return leaf(a, 1) + *b; }
int main(void) { int x = 3, y = 4; g = 2; return mid(&x, &y); }
`

// TestCallGraphBottomUpOrder: a straight call chain must come out as
// singleton SCCs in callee-before-caller order, and Reachable must give
// the transitive closure.
func TestCallGraphBottomUpOrder(t *testing.T) {
	mod, cg, _ := sumsFor(t, chainSrc)

	groups := cg.BottomUp()
	if len(groups) != 3 {
		t.Fatalf("BottomUp groups = %d, want 3:\n%s", len(groups), cg.String())
	}
	order := map[string]int{}
	for gi, fns := range groups {
		if len(fns) != 1 {
			t.Errorf("group %d has %d functions, want singleton", gi, len(fns))
		}
		for _, f := range fns {
			order[f.Name] = gi
		}
	}
	if !(order["leaf"] < order["mid"] && order["mid"] < order["main"]) {
		t.Errorf("bottom-up order wrong: %v", order)
	}

	reach := cg.Reachable()
	mainIdx := cg.Index("main")
	if mainIdx < 0 {
		t.Fatal("main not in call graph")
	}
	want := map[string]bool{"leaf": true, "mid": true}
	for j := range reach[mainIdx] {
		delete(want, mod.Funcs[j].Name)
	}
	if len(want) != 0 {
		t.Errorf("main's reachable set misses %v", want)
	}
	leafIdx := cg.Index("leaf")
	if n := len(reach[leafIdx]); n != 0 {
		t.Errorf("leaf reaches %d functions, want 0", n)
	}
}

const mutualSrc = `
int g;
int odd(int n);
int even(int n) { if (n == 0) { g = g + 1; return 1; } return odd(n - 1); }
int odd(int n) { if (n == 0) return 0; return even(n - 1); }
int main(void) { return even(4); }
`

// TestCallGraphMutualRecursionSCC: even/odd form one SCC that precedes
// main in bottom-up order.
func TestCallGraphMutualRecursionSCC(t *testing.T) {
	_, cg, _ := sumsFor(t, mutualSrc)
	ei, oi := cg.Index("even"), cg.Index("odd")
	if ei < 0 || oi < 0 {
		t.Fatal("even/odd missing from call graph")
	}
	if cg.Nodes[ei].SCC != cg.Nodes[oi].SCC {
		t.Errorf("even in scc %d, odd in scc %d; want same", cg.Nodes[ei].SCC, cg.Nodes[oi].SCC)
	}
	mi := cg.Index("main")
	if cg.Nodes[mi].SCC <= cg.Nodes[ei].SCC {
		t.Errorf("main scc %d not after even/odd scc %d", cg.Nodes[mi].SCC, cg.Nodes[ei].SCC)
	}
	groups := cg.BottomUp()
	if len(groups) != 2 {
		t.Fatalf("BottomUp groups = %d, want 2 ({even,odd} then {main})", len(groups))
	}
	if len(groups[0]) != 2 {
		t.Errorf("first group has %d functions, want the even/odd pair", len(groups[0]))
	}
}

// TestSummaryMutualRecursionFixpoint: only even touches @g directly,
// but the SCC fixpoint must surface the effect in odd's summary too
// (odd calls even), and both must stay below ⊤.
func TestSummaryMutualRecursionFixpoint(t *testing.T) {
	mod, _, sums := sumsFor(t, mutualSrc)
	var g *ir.Global
	for _, gl := range mod.Globals {
		if gl.Name == "g" {
			g = gl
		}
	}
	if g == nil {
		t.Fatal("no global g")
	}
	for _, name := range []string{"even", "odd"} {
		fs := sums.Of(name)
		if fs == nil {
			t.Fatalf("no summary for %s", name)
		}
		if fs.Top() {
			t.Errorf("%s summary degraded to ⊤: %s", name, fs)
		}
		found := aa.Effect(0)
		for _, ge := range fs.Globals {
			if ge.Global == g {
				found = ge.Eff
			}
		}
		if found != aa.ModRefEffect {
			t.Errorf("%s effect on @g = %v, want mod+ref (fixpoint propagation)", name, found)
		}
	}
}

// TestSummaryDirectVsWide: an exact-pointer access summarizes as a
// direct sized effect (π-answerable at call sites); an indexed loop
// access must be classified wide (whole-object queries only).
func TestSummaryDirectVsWide(t *testing.T) {
	src := `
int touch(int *p, int k) { *p = *p + k; return 0; }
int fill(int *p, int n) { for (int i = 0; i < n; i++) p[i] = i; return 0; }
int main(void) { int v[8]; touch(v, 1); fill(v, 8); return v[0]; }
`
	_, _, sums := sumsFor(t, src)

	te := sums.Of("touch").Params[0]
	if te.Eff != aa.ModRefEffect || te.Wide {
		t.Errorf("touch p = %+v, want direct mod+ref", te)
	}
	if te.DirectSize != 4 || te.DirectCls != ir.I32 {
		t.Errorf("touch p direct access = %dB %v, want 4B i32", te.DirectSize, te.DirectCls)
	}

	fe := sums.Of("fill").Params[0]
	if fe.Eff&aa.ModEffect == 0 || !fe.Wide {
		t.Errorf("fill p = %+v, want wide mod", fe)
	}
}

// TestSummaryExternalAndIndirectTop: calls the analysis cannot resolve
// — unknown externals, indirect calls, and arity-mismatched calls —
// must degrade the caller's summary toward ⊤, never stay optimistic.
func TestSummaryExternalAndIndirectTop(t *testing.T) {
	// External callee with no body in the module.
	_, _, sums := sumsFor(t, `
int mystery(int *p);
int caller(int *p) { return mystery(p); }
int main(void) { int x = 1; return caller(&x); }
`)
	if fs := sums.Of("caller"); !fs.Top() {
		t.Errorf("caller of unknown external = %s, want ⊤", fs)
	}

	// Indirect call: hand-built IR, since a FuncRef-typed callee erases
	// the name at the call site (Callee == "").
	w := &ir.Func{Name: "w", Ret: ir.I32}
	p := &ir.Param{Name: "p", Cls: ir.Ptr, Idx: 0}
	w.Params = []*ir.Param{p}
	wb := w.NewBlock("entry")
	wb.Append(&ir.Instr{Op: ir.OpStore, Cls: ir.Void, Args: []ir.Value{p, ir.ConstInt(ir.I32, 1)}})
	wb.Append(&ir.Instr{Op: ir.OpRet, Cls: ir.I32, Args: []ir.Value{ir.ConstInt(ir.I32, 0)}})

	ind := &ir.Func{Name: "ind", Ret: ir.I32}
	ib := ind.NewBlock("entry")
	ib.Append(&ir.Instr{Op: ir.OpCall, Cls: ir.I32}) // Callee == "": function pointer
	ib.Append(&ir.Instr{Op: ir.OpRet, Cls: ir.I32, Args: []ir.Value{ir.ConstInt(ir.I32, 0)}})

	// Arity mismatch: w wants (p); short calls must not bind w's pointer
	// effect to a missing argument — it lands in Unknown instead.
	short := &ir.Func{Name: "short", Ret: ir.I32}
	sb := short.NewBlock("entry")
	sb.Append(&ir.Instr{Op: ir.OpCall, Cls: ir.I32, Callee: "w"})
	sb.Append(&ir.Instr{Op: ir.OpRet, Cls: ir.I32, Args: []ir.Value{ir.ConstInt(ir.I32, 0)}})

	mod := &ir.Module{Funcs: []*ir.Func{w, ind, short}}
	cg := BuildCallGraph(mod)
	if !cg.Nodes[cg.Index("ind")].Indirect {
		t.Error("indirect call not flagged on the call-graph node")
	}
	hs := aa.BuildSummaries(mod, cg.BottomUp(), pureBuiltin)
	if fs := hs.Of("ind"); !fs.Top() {
		t.Errorf("indirect caller = %s, want ⊤", fs)
	}
	if fs := hs.Of("short"); fs.Unknown&aa.ModEffect == 0 {
		t.Errorf("arity-mismatched caller = %s, want unknown mod effect", fs)
	}
}

// TestSummaryPiExport: an entry-block CANT_ALIAS2 over plain parameter
// pointers exports a PiParamPair, and a wrapper forwarding its own
// params into that callee re-exports the fact transitively.
func TestSummaryPiExport(t *testing.T) {
	src := `
#define CANT_ALIAS2(a, b) ((a = a) + (b = b))
int kernel(int *a, int *b) { CANT_ALIAS2(*a, *b); *a = *a + 1; return *b; }
int wrap(int *x, int *y) { return kernel(x, y); }
int main(void) { int u = 1, v = 2; return wrap(&u, &v); }
`
	_, _, sums := sumsFor(t, src)
	for _, name := range []string{"kernel", "wrap"} {
		fs := sums.Of(name)
		ok := false
		for _, pr := range fs.PiPairs {
			if (pr.I == 0 && pr.J == 1) || (pr.I == 1 && pr.J == 0) {
				ok = true
				if pr.Meta == 0 {
					t.Errorf("%s π pair lacks provenance id", name)
				}
			}
		}
		if !ok {
			t.Errorf("%s summary exports no (p0,p1) π pair: %s", name, fs)
		}
	}
}

// TestCallGraphStringShape pins the -print-callgraph rendering on the
// chain example.
func TestCallGraphStringShape(t *testing.T) {
	_, cg, _ := sumsFor(t, chainSrc)
	out := cg.String()
	for _, want := range []string{
		"callgraph:",
		"leaf -> (leaf)",
		"mid -> leaf",
		"main -> mid",
		"bottom-up SCC order:",
		"scc 0: {leaf}",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("callgraph rendering missing %q:\n%s", want, out)
		}
	}
}

// sccScheduleSrc mixes every shape the bottom-up scheduler orders: a
// mutually recursive SCC, callees defined after their callers, a shared
// leaf, and independent SCCs that can run in parallel.
const sccScheduleSrc = `
int g;
int odd(int n);
int twice(int *p);
int leaf(int *p, int k);
int even(int n) { if (n == 0) { g = g + 1; return 1; } return odd(n - 1) + twice(&g); }
int odd(int n) { if (n == 0) return 0; return even(n - 1); }
int user(int *a, int *b) { return twice(a) + leaf(b, 3); }
int twice(int *p) { return leaf(p, 1) + leaf(p, 2); }
int leaf(int *p, int k) { *p = *p + k; return *p; }
int lone(int x) { return x * 7 + 1; }
int main(void) { int x = 1, y = 2; return even(4) + user(&x, &y) + lone(x); }
`

// TestSCCScheduleJobsIdentical: the parallel SCC scheduler must produce
// the sequential loop's module and stats byte for byte.
func TestSCCScheduleJobsIdentical(t *testing.T) {
	run := func(jobs int) (string, Stats) {
		mod := benchModule(t, sccScheduleSrc)
		opts := DefaultOptions()
		opts.Jobs = jobs
		st, err := RunModule(mod, opts, nil)
		if err != nil {
			t.Fatalf("RunModule(jobs=%d): %v", jobs, err)
		}
		return mod.String(), st
	}
	ir1, st1 := run(1)
	if st1.CallsInlined == 0 {
		t.Error("nothing inlined; the schedule is not exercised")
	}
	for _, jobs := range []int{2, 4, 8} {
		irN, stN := run(jobs)
		if irN != ir1 || stN != st1 {
			t.Errorf("-j %d differs from -j 1 (stats %v vs %v)", jobs, stN, st1)
		}
	}
}
