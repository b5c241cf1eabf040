package passes

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/ir"
)

// --- ParsePipeline / Pipeline ---

func TestParsePipelineRoundTrip(t *testing.T) {
	p, err := ParsePipeline(DefaultPipelineSpec)
	if err != nil {
		t.Fatalf("ParsePipeline(default): %v", err)
	}
	if got := p.String(); got != DefaultPipelineSpec {
		t.Errorf("round trip mismatch:\n got %q\nwant %q", got, DefaultPipelineSpec)
	}
	if got := DefaultPipeline().String(); got != DefaultPipelineSpec {
		t.Errorf("DefaultPipeline().String() = %q, want %q", got, DefaultPipelineSpec)
	}
	// Re-parsing the printed form reproduces the same sequence.
	p2, err := ParsePipeline(p.String())
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	if len(p2.Passes()) != len(p.Passes()) {
		t.Fatalf("re-parse length %d, want %d", len(p2.Passes()), len(p.Passes()))
	}
	for i := range p.Passes() {
		if p.Passes()[i].Name() != p2.Passes()[i].Name() {
			t.Errorf("pass %d: %q vs %q", i, p.Passes()[i].Name(), p2.Passes()[i].Name())
		}
	}
}

func TestParsePipelineWhitespace(t *testing.T) {
	p, err := ParsePipeline(" simplifycfg ,\tdce ")
	if err != nil {
		t.Fatalf("ParsePipeline: %v", err)
	}
	if got := p.String(); got != "simplifycfg,dce" {
		t.Errorf("String() = %q, want %q", got, "simplifycfg,dce")
	}
}

func TestParsePipelineErrors(t *testing.T) {
	for _, spec := range []string{"", "   ", "simplifycfg,,dce", "nosuchpass"} {
		if _, err := ParsePipeline(spec); err == nil {
			t.Errorf("ParsePipeline(%q): expected error", spec)
		}
	}
	// Unknown-pass errors name the valid choices.
	_, err := ParsePipeline("nosuchpass")
	if err == nil || !strings.Contains(err.Error(), "simplifycfg") {
		t.Errorf("unknown-pass error should list known passes, got: %v", err)
	}
}

func TestRegisteredPassesCoverDefaultSpec(t *testing.T) {
	known := map[string]bool{}
	for _, n := range RegisteredPasses() {
		known[n] = true
	}
	for _, n := range strings.Split(DefaultPipelineSpec, ",") {
		if !known[n] {
			t.Errorf("default spec names unregistered pass %q", n)
		}
	}
}

// --- AnalysisManager caching / invalidation ---

const amTestSrc = `
int sum(int *a, int n) {
  int s = 0;
  for (int i = 0; i < n; i++) s += a[i];
  return s;
}
int main() { int v[4]; for (int i = 0; i < 4; i++) v[i] = i; return sum(v, 4); }
`

func amForTest(t *testing.T) *AnalysisManager {
	t.Helper()
	mod := benchModule(t, amTestSrc)
	f := mod.FindFunc("sum")
	if f == nil {
		t.Fatal("no sum function")
	}
	opts := DefaultOptions()
	return newAnalysisManager(mod, f, &opts, nil)
}

// TestAnalysisManagerPreservedKeepsCache: an analysis in a pass's
// Preserved set must be served from cache — pointer-equal, not merely
// content-equal — while a non-preserving pass forces a recompute.
func TestAnalysisManagerPreservedKeepsCache(t *testing.T) {
	am := amForTest(t)

	d1 := am.Dom()
	if d2 := am.Dom(); d2 != d1 {
		t.Error("second Dom() without invalidation returned a new tree")
	}
	am.Invalidate(Preserve(AnalysisDom, AnalysisLoops))
	if d3 := am.Dom(); d3 != d1 {
		t.Error("Dom() after a dom-preserving pass returned a new tree")
	}
	am.Invalidate(PreserveNone)
	if d4 := am.Dom(); d4 == d1 {
		t.Error("Dom() after a non-preserving pass served the stale cache")
	}
}

func TestAnalysisManagerLoopsInvalidation(t *testing.T) {
	am := amForTest(t)
	l1 := am.Loops()
	if len(l1) == 0 {
		t.Fatal("expected at least one loop in sum")
	}
	if l2 := am.Loops(); &l2[0] != &l1[0] {
		t.Error("cached loop forest not reused")
	}
	// Preserving Loops but not Dom keeps the forest (Loops depends on
	// Dom only at construction time).
	am.Invalidate(Preserve(AnalysisLoops))
	if l3 := am.Loops(); &l3[0] != &l1[0] {
		t.Error("loop forest recomputed despite being preserved")
	}
	am.Invalidate(PreserveNone)
	l4 := am.Loops()
	if len(l4) != len(l1) {
		t.Fatalf("recomputed forest has %d loops, want %d", len(l4), len(l1))
	}
	if &l4[0] == &l1[0] {
		t.Error("loop forest not recomputed after full invalidation")
	}
}

func TestAnalysisManagerCounters(t *testing.T) {
	am := amForTest(t)
	am.Dom()   // miss
	am.Dom()   // hit
	am.Loops() // dom hit + loops miss
	am.Uses()  // miss
	am.Invalidate(PreserveNone)
	am.Dom() // miss
	wantHits := map[AnalysisID]int64{AnalysisDom: 2}
	wantMisses := map[AnalysisID]int64{AnalysisDom: 2, AnalysisLoops: 1, AnalysisUses: 1}
	for id, want := range wantHits {
		if am.hits[id] != want {
			t.Errorf("hits[%s] = %d, want %d", id, am.hits[id], want)
		}
	}
	for id, want := range wantMisses {
		if am.misses[id] != want {
			t.Errorf("misses[%s] = %d, want %d", id, am.misses[id], want)
		}
	}
}

// --- dynPreserve ---

func TestDynPreserve(t *testing.T) {
	up := dynPreserve(PreserveNone, 0)
	for _, id := range []AnalysisID{AnalysisDom, AnalysisLoops, AnalysisUses} {
		if !up.Has(id) {
			t.Errorf("zero-change upgrade missing %s", id)
		}
	}
	if up.Has(AnalysisAA) {
		t.Error("zero-change upgrade must never include AA (validity is pinned to the refresh schedule)")
	}
	if got := dynPreserve(PreserveNone, 3); got != PreserveNone {
		t.Errorf("changed pass upgraded its preserved set: %v", got)
	}
	base := Preserve(AnalysisDom, AnalysisAA)
	if got := dynPreserve(base, 5); got != base {
		t.Errorf("changed pass lost its static set: %v", got)
	}
}

// --- removeDeadFuncs ---

func deadFuncsModule() (*ir.Module, map[string]int) {
	mk := func(name string, callees ...string) *ir.Func {
		f := &ir.Func{Name: name}
		b := f.NewBlock("entry")
		for _, c := range callees {
			b.Append(&ir.Instr{Op: ir.OpCall, Cls: ir.I32, Callee: c})
		}
		b.Append(&ir.Instr{Op: ir.OpRet, Cls: ir.Void})
		return f
	}
	mod := &ir.Module{}
	mod.Funcs = []*ir.Func{
		mk("small_inlined"),  // uncalled + small: deleted
		mk("big_uncalled"),   // uncalled but large: kept (external harness)
		mk("helper"),         // called by main: kept
		mk("main", "helper"), // entry point: always kept
	}
	sizes := map[string]int{
		"small_inlined": 5,
		"big_uncalled":  100,
		"helper":        5,
		"main":          10,
	}
	return mod, sizes
}

func TestRemoveDeadFuncs(t *testing.T) {
	mod, sizes := deadFuncsModule()
	if n := removeDeadFuncs(mod, sizes, true); n != 1 {
		t.Fatalf("deleted %d funcs, want 1", n)
	}
	var names []string
	for _, f := range mod.Funcs {
		names = append(names, f.Name)
	}
	want := []string{"big_uncalled", "helper", "main"}
	if len(names) != len(want) {
		t.Fatalf("kept %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("kept %v, want %v", names, want)
		}
	}
}

// TestRemoveDeadFuncsNoInlining: without any inlining the deletion is
// skipped entirely — external harnesses call functions by name, so a
// merely-uncalled function is not evidence of deadness.
func TestRemoveDeadFuncsNoInlining(t *testing.T) {
	mod, sizes := deadFuncsModule()
	if n := removeDeadFuncs(mod, sizes, false); n != 0 {
		t.Fatalf("deleted %d funcs with inlined=false, want 0", n)
	}
	if len(mod.Funcs) != 4 {
		t.Fatalf("module shrank to %d funcs without inlining", len(mod.Funcs))
	}
}

// --- custom pipelines, -verify-each, -print-changed ---

func TestCustomPipelineRuns(t *testing.T) {
	mod := benchModule(t, amTestSrc)
	pipe, err := ParsePipeline("simplifycfg,mem2reg,dce")
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Pipeline = pipe
	if _, err := RunModule(mod, opts, nil); err != nil {
		t.Fatalf("RunModule(custom pipeline): %v", err)
	}
	if problems := mod.Verify(); len(problems) > 0 {
		t.Fatalf("custom pipeline broke the IR: %v", problems[0])
	}
}

func TestVerifyEachCleanOnDefaultPipeline(t *testing.T) {
	mod := benchModule(t, amTestSrc)
	opts := DefaultOptions()
	opts.VerifyEach = true
	if _, err := RunModule(mod, opts, nil); err != nil {
		t.Fatalf("verify-each flagged the default pipeline: %v", err)
	}
}

// TestPrintChangedDeterministic: -print-changed forces the sequential
// path, so the dump is identical regardless of the requested job count.
func TestPrintChangedDeterministic(t *testing.T) {
	dump := func(jobs int) string {
		mod := benchModule(t, amTestSrc)
		var buf bytes.Buffer
		opts := DefaultOptions()
		opts.Jobs = jobs
		opts.PrintChanged = &buf
		if _, err := RunModule(mod, opts, nil); err != nil {
			t.Fatalf("RunModule(jobs=%d): %v", jobs, err)
		}
		return buf.String()
	}
	d1, d4 := dump(1), dump(4)
	if d1 == "" {
		t.Fatal("print-changed produced no output")
	}
	if d1 != d4 {
		t.Error("print-changed output differs between -j 1 and -j 4")
	}
	if !strings.Contains(d1, "; IR after ") {
		t.Errorf("dump missing header line, got prefix %q", d1[:min(80, len(d1))])
	}
}
