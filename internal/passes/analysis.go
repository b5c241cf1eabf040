package passes

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sync"

	"repro/internal/aa"
	"repro/internal/ir"
	"repro/internal/telemetry"
)

// AnalysisID names one cached per-function analysis.
type AnalysisID uint8

const (
	// AnalysisDom is the dominator tree (ir.ComputeDom).
	AnalysisDom AnalysisID = iota
	// AnalysisLoops is the natural-loop forest (ir.FindLoops).
	AnalysisLoops
	// AnalysisUses is the ID-indexed instruction -> users table
	// (useTable).
	AnalysisUses
	// AnalysisAA is the alias-analysis chain (aa.Manager), including the
	// unseq-aa π fact table.
	AnalysisAA

	numAnalyses
)

func (id AnalysisID) String() string {
	switch id {
	case AnalysisDom:
		return "dom"
	case AnalysisLoops:
		return "loops"
	case AnalysisUses:
		return "uses"
	case AnalysisAA:
		return "aa"
	}
	return "?"
}

// Preserved is the set of analyses a pass guarantees are still valid
// after it ran. Everything outside the set is invalidated by the pass
// executor before the next pass runs.
type Preserved uint8

// PreserveNone invalidates every cached analysis (the safe default for
// passes that change the CFG).
const PreserveNone Preserved = 0

// Preserve builds a set from explicit analysis IDs.
func Preserve(ids ...AnalysisID) Preserved {
	var p Preserved
	for _, id := range ids {
		p |= 1 << id
	}
	return p
}

// Has reports whether id is in the set.
func (p Preserved) Has(id AnalysisID) bool { return p&(1<<id) != 0 }

// dynPreserve upgrades a pass's static preservation set when the pass
// reports zero changes: an untouched function keeps its dominator tree,
// loop forest, and use lists (all pure content functions of the IR).
// The AA chain is deliberately never upgraded — its validity is pinned
// to the refresh *schedule*, not just to function content: a pass that
// statically preserves AA (earlycse, dse) may mutate the function while
// deliberately serving consumers the pre-mutation facts, so "zero
// changes since the last pass" does not imply the cached chain matches
// what a fresh rebuild would answer.
func dynPreserve(base Preserved, changed int) Preserved {
	if changed == 0 {
		return base | Preserve(AnalysisDom, AnalysisLoops, AnalysisUses)
	}
	return base
}

// AnalysisManager lazily computes and caches the per-function analyses
// passes consume, keyed by AnalysisID. A pass acquires an analysis with
// Dom/Loops/Uses/AA at the moment it needs it — replacing the manual
// ComputeDom/FindLoops/buildUses/mgr.Refresh call sites the passes used
// to carry — and declares via its Preserved result which entries
// survive it. Cache hits and misses are counted per analysis and
// exported as analysis/cache_hits / analysis/cache_misses.
type AnalysisManager struct {
	mod  *ir.Module
	fn   *ir.Func
	opts *Options
	tel  *telemetry.Session

	// mgr exists for the whole pipeline run (AA query statistics and
	// audit attribution accumulate across passes); valid[AnalysisAA]
	// tracks whether its caches reflect a refresh the current consumer
	// may rely on.
	mgr   *aa.Manager
	dom   *ir.DomTree
	loops []*ir.Loop
	uses  useTable
	valid [numAnalyses]bool

	hits, misses [numAnalyses]int64
}

// newAnalysisManager builds the manager for one function's pipeline
// run. sums is the module's pre-pipeline interprocedural summary table
// (nil = calls stay clobber-everything barriers); it is computed once
// before the function pipelines start and read-only here, which keeps
// -j1 and -jN byte-identical.
func newAnalysisManager(mod *ir.Module, fn *ir.Func, opts *Options, sums *aa.Summaries) *AnalysisManager {
	am := &AnalysisManager{
		mod:  mod,
		fn:   fn,
		opts: opts,
		tel:  opts.Telemetry,
	}
	am.mgr = aa.NewManager(fn, opts.UseUnseqAA)
	am.mgr.AttachAudit(am.tel, mod, fn.Name)
	if sums != nil {
		am.mgr.SetSummaries(sums)
	}
	return am
}

// Func returns the function under optimization.
func (am *AnalysisManager) Func() *ir.Func { return am.fn }

// Module returns the containing module.
func (am *AnalysisManager) Module() *ir.Module { return am.mod }

// Options returns the pipeline options.
func (am *AnalysisManager) Options() *Options { return am.opts }

// Telemetry returns the session passes report spans/remarks to (nil is
// the no-op session).
func (am *AnalysisManager) Telemetry() *telemetry.Session { return am.tel }

func (am *AnalysisManager) touch(id AnalysisID) bool {
	if am.valid[id] {
		am.hits[id]++
		return true
	}
	am.misses[id]++
	am.valid[id] = true
	return false
}

// Dom returns the (cached) dominator tree.
func (am *AnalysisManager) Dom() *ir.DomTree {
	if !am.touch(AnalysisDom) {
		am.dom = ir.ComputeDom(am.fn)
	}
	return am.dom
}

// Loops returns the (cached) loop forest.
func (am *AnalysisManager) Loops() []*ir.Loop {
	dt := am.Dom()
	if !am.touch(AnalysisLoops) {
		am.loops = ir.FindLoops(am.fn, dt)
	}
	return am.loops
}

// Uses returns the (cached) instruction -> users table. A pass that
// mutates the function mid-run must call InvalidateUses before
// re-acquiring it. The table is rebuilt in place, so a table acquired
// earlier is valid only until the next rebuild.
func (am *AnalysisManager) Uses() *useTable {
	if !am.touch(AnalysisUses) {
		am.uses.build(am.fn)
	}
	return &am.uses
}

// AA returns the alias-analysis chain, refreshed against the current
// function body if a prior pass invalidated it.
func (am *AnalysisManager) AA() *aa.Manager {
	if !am.touch(AnalysisAA) {
		am.mgr.Refresh(am.fn)
	}
	return am.mgr
}

// Invalidate drops every cached analysis not in p. The pass executor
// calls it with each pass's Preserved result.
func (am *AnalysisManager) Invalidate(p Preserved) {
	for id := AnalysisID(0); id < numAnalyses; id++ {
		if !p.Has(id) {
			am.valid[id] = false
		}
	}
}

// InvalidateUses drops the use-list cache only — for passes that mutate
// the function while holding other analyses.
func (am *AnalysisManager) InvalidateUses() { am.valid[AnalysisUses] = false }

// ---------- module-level analyses ----------

// ModuleAnalysisID names one cached module-level analysis.
type ModuleAnalysisID uint8

const (
	// ModuleAnalysisCallGraph is the call graph + SCC decomposition.
	ModuleAnalysisCallGraph ModuleAnalysisID = iota
	// ModuleAnalysisSummaries is the bottom-up interprocedural summary
	// table (aa.Summaries), which consumes the call graph's SCC order.
	ModuleAnalysisSummaries

	numModuleAnalyses
)

func (id ModuleAnalysisID) String() string {
	switch id {
	case ModuleAnalysisCallGraph:
		return "callgraph"
	case ModuleAnalysisSummaries:
		return "summaries"
	}
	return "?"
}

// ModulePreserved is the set of module analyses still valid after a
// module-shape edit, mirroring the function-level Preserved bitset.
type ModulePreserved uint8

// ModulePreserveNone invalidates every module analysis — the safe
// answer whenever the call graph was edited (inlining, dead-function
// removal).
const ModulePreserveNone ModulePreserved = 0

// PreserveModule builds a set from explicit IDs.
func PreserveModule(ids ...ModuleAnalysisID) ModulePreserved {
	var p ModulePreserved
	for _, id := range ids {
		p |= 1 << id
	}
	return p
}

// Has reports whether id is in the set.
func (p ModulePreserved) Has(id ModuleAnalysisID) bool { return p&(1<<id) != 0 }

// ModuleAnalyses lazily computes and caches module-scoped analyses —
// the AnalysisManager's module-level tier. Unlike the per-function
// manager it must be safe for concurrent use: the -j scheduler's
// workers share one instance. RunModule computes the analyses it needs
// before the function pipelines start, so the summaries every worker
// reads are the pre-pipeline table.
type ModuleAnalyses struct {
	mod *ir.Module

	mu    sync.Mutex
	cg    *CallGraph
	sums  *aa.Summaries
	keys  []FuncKey
	valid [numModuleAnalyses]bool

	hits, misses [numModuleAnalyses]int64
}

// NewModuleAnalyses builds the manager for mod.
func NewModuleAnalyses(mod *ir.Module) *ModuleAnalyses {
	return &ModuleAnalyses{mod: mod}
}

// Module returns the analyzed module.
func (ma *ModuleAnalyses) Module() *ir.Module { return ma.mod }

func (ma *ModuleAnalyses) touch(id ModuleAnalysisID) bool {
	if ma.valid[id] {
		ma.hits[id]++
		return true
	}
	ma.misses[id]++
	ma.valid[id] = true
	return false
}

// CallGraph returns the (cached) call graph.
func (ma *ModuleAnalyses) CallGraph() *CallGraph {
	ma.mu.Lock()
	defer ma.mu.Unlock()
	return ma.callGraphLocked()
}

func (ma *ModuleAnalyses) callGraphLocked() *CallGraph {
	if !ma.touch(ModuleAnalysisCallGraph) {
		ma.cg = BuildCallGraph(ma.mod)
	}
	return ma.cg
}

// Summaries returns the (cached) interprocedural summary table,
// computed in the call graph's bottom-up SCC order.
func (ma *ModuleAnalyses) Summaries() *aa.Summaries {
	ma.mu.Lock()
	defer ma.mu.Unlock()
	cg := ma.callGraphLocked()
	if !ma.touch(ModuleAnalysisSummaries) {
		ma.sums = aa.BuildSummaries(ma.mod, cg.BottomUp(), pureBuiltin)
	}
	return ma.sums
}

// Invalidate drops every module analysis not in p. RunModule calls it
// with ModulePreserveNone after a run whose stats show the call graph
// was edited (inlined calls or deleted functions); a consumer that
// re-runs analyses afterwards recomputes them from the current module.
func (ma *ModuleAnalyses) Invalidate(p ModulePreserved) {
	ma.mu.Lock()
	defer ma.mu.Unlock()
	for id := ModuleAnalysisID(0); id < numModuleAnalyses; id++ {
		if !p.Has(id) {
			ma.valid[id] = false
		}
	}
	// ma.keys survives: FuncKeys is defined as a pre-pipeline snapshot,
	// not a live analysis.
}

// record exports hit/miss counters under the module_analysis/
// namespace.
func (ma *ModuleAnalyses) record(tel *telemetry.Session) {
	if !tel.MetricsEnabled() {
		return
	}
	ma.mu.Lock()
	defer ma.mu.Unlock()
	for id := ModuleAnalysisID(0); id < numModuleAnalyses; id++ {
		tel.Count("module_analysis/hits/"+id.String(), ma.hits[id])
		tel.Count("module_analysis/misses/"+id.String(), ma.misses[id])
	}
}

// FuncKey is one function's content key: a digest of everything the
// function's pipeline can observe — its own pre-pipeline body, the
// summaries of every function it can reach (so an edit to a callee
// invalidates its callers but nobody else), and the source provenance
// of the π predicates in its body. This is the sub-TU cache identity
// the compile service keys per-function artifacts on.
type FuncKey struct {
	Name string `json:"name"`
	Key  string `json:"key"`
}

// FuncKeys computes (and caches) the per-function content keys from
// the current module state. RunModule calls it before the pipelines
// mutate anything when Options.WantFuncKeys is set.
func (ma *ModuleAnalyses) FuncKeys() []FuncKey {
	ma.mu.Lock()
	defer ma.mu.Unlock()
	if ma.keys != nil {
		return ma.keys
	}
	cg := ma.callGraphLocked()
	if !ma.touch(ModuleAnalysisSummaries) {
		ma.sums = aa.BuildSummaries(ma.mod, cg.BottomUp(), pureBuiltin)
	}
	reach := cg.Reachable()
	keys := make([]FuncKey, len(ma.mod.Funcs))
	for i, f := range ma.mod.Funcs {
		h := sha256.New()
		field := func(tag, val string) {
			var n [8]byte
			binary.LittleEndian.PutUint64(n[:], uint64(len(tag)))
			h.Write(n[:])
			h.Write([]byte(tag))
			binary.LittleEndian.PutUint64(n[:], uint64(len(val)))
			h.Write(n[:])
			h.Write([]byte(val))
		}
		field("schema", "ooed-funckey/v1")
		field("body", f.String())
		// Reachable callees in deterministic (module-index) order: both
		// the summary (param-level effects and exported π pairs — the
		// mod/ref surface the caller's pipeline consumes) and the body
		// (the inliner splices reachable callee bodies verbatim, so any
		// callee edit is a caller input change even when the summary is
		// unaffected).
		for j := range ma.mod.Funcs {
			if _, ok := reach[i][j]; ok {
				cf := ma.mod.Funcs[j]
				field("callee:"+cf.Name, ma.sums.Of(cf.Name).String())
				field("calleebody:"+cf.Name, cf.String())
			}
		}
		// π provenance: the source spellings behind the Meta ids in this
		// function's body (remarks/audit render them, so they are part of
		// the artifact identity).
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpMustNotAlias && in.Meta > 0 {
					if p := ma.mod.FindProvenance(in.Meta); p != nil {
						field("pi", p.E1+"|"+p.E2+"|"+p.Span1.String()+"|"+p.Span2.String())
					}
				}
			}
		}
		keys[i] = FuncKey{Name: f.Name, Key: hex.EncodeToString(h.Sum(nil))}
	}
	ma.keys = keys
	return keys
}

// record exports the hit/miss counters to the telemetry registry.
func (am *AnalysisManager) record() {
	if !am.tel.MetricsEnabled() {
		return
	}
	var hits, misses int64
	for id := AnalysisID(0); id < numAnalyses; id++ {
		hits += am.hits[id]
		misses += am.misses[id]
		am.tel.Count("analysis/hits/"+id.String(), am.hits[id])
		am.tel.Count("analysis/misses/"+id.String(), am.misses[id])
	}
	am.tel.Count("analysis/cache_hits", hits)
	am.tel.Count("analysis/cache_misses", misses)
}
