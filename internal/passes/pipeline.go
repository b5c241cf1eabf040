package passes

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ir"
)

// Pass is one middle-end transformation. Run optimizes f, acquiring any
// analyses it needs from am, and returns the statistics it accumulated
// plus the set of analyses still valid afterwards. Passes are stateless;
// tuning knobs come from am.Options().
type Pass interface {
	Name() string
	Run(f *ir.Func, am *AnalysisManager) (Stats, Preserved)
}

// DefaultPipelineSpec is the textual form of the O3 pipeline — the
// same pass sequence the pre-pass-manager runFunc hardcoded. One
// fixpoint iteration runs the comma-separated passes in order.
const DefaultPipelineSpec = "simplifycfg,mem2reg,earlycse,instcombine,inline," +
	"simplifycfg,mem2reg,earlycse,licm,dce,vectorize,unroll," +
	"earlycse,dse,memcpyopt,dce,simplifycfg"

// Pipeline is a parsed pass sequence — the pipeline-as-data object the
// sequential and parallel executors both consume.
type Pipeline struct {
	passes []Pass
}

// Passes returns the pass sequence.
func (p *Pipeline) Passes() []Pass { return p.passes }

// String renders the pipeline back to its spec form; the round-trip
// ParsePipeline(p.String()) reproduces p.
func (p *Pipeline) String() string {
	names := make([]string, len(p.passes))
	for i, ps := range p.passes {
		names[i] = ps.Name()
	}
	return strings.Join(names, ",")
}

// passRegistry maps spec names to their (stateless) pass singletons.
var passRegistry = map[string]Pass{
	"simplifycfg": simplifyCFGPass{},
	"mem2reg":     mem2regPass{},
	"earlycse":    earlyCSEPass{},
	"instcombine": instCombinePass{},
	"inline":      inlinePass{},
	"licm":        licmPass{},
	"dce":         dcePass{},
	"vectorize":   vectorizePass{},
	"unroll":      unrollPass{},
	"dse":         dsePass{},
	"memcpyopt":   memcpyOptPass{},
}

// RegisteredPasses lists every pass name ParsePipeline accepts, sorted.
func RegisteredPasses() []string {
	names := make([]string, 0, len(passRegistry))
	for n := range passRegistry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ParsePipeline parses a comma-separated pass spec ("simplifycfg,
// mem2reg,earlycse,..."). Whitespace around names is ignored; empty
// elements and unknown names are errors.
func ParsePipeline(spec string) (*Pipeline, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("passes: empty pipeline spec")
	}
	parts := strings.Split(spec, ",")
	p := &Pipeline{passes: make([]Pass, 0, len(parts))}
	for _, part := range parts {
		name := strings.TrimSpace(part)
		if name == "" {
			return nil, fmt.Errorf("passes: empty pass name in spec %q", spec)
		}
		pass, ok := passRegistry[name]
		if !ok {
			return nil, fmt.Errorf("passes: unknown pass %q (known: %s)",
				name, strings.Join(RegisteredPasses(), ", "))
		}
		p.passes = append(p.passes, pass)
	}
	return p, nil
}

// NewPipeline builds a pipeline from an explicit pass sequence. It
// exists for callers that need passes outside the spec registry —
// chiefly tests injecting synthetic passes (e.g. the crash-recovery
// tests' deliberately panicking pass).
func NewPipeline(ps ...Pass) *Pipeline {
	return &Pipeline{passes: append([]Pass(nil), ps...)}
}

// DefaultPipeline returns the parsed DefaultPipelineSpec.
func DefaultPipeline() *Pipeline {
	p, err := ParsePipeline(DefaultPipelineSpec)
	if err != nil {
		panic("passes: invalid DefaultPipelineSpec: " + err.Error())
	}
	return p
}

// ---------- pass adapters ----------
//
// Static Preserved declarations encode two different guarantees:
//
//   - Dom/Loops survive any pass that cannot change the CFG (moving,
//     inserting, or deleting instructions inside existing blocks leaves
//     the dominator tree and loop forest content-identical).
//   - AA survives earlycse and dse by *schedule design*, mirroring the
//     explicit refresh points of the original hardcoded pipeline: dse
//     and memcpyopt deliberately consume the chain refreshed before the
//     preceding earlycse, and licm consumes the chain refreshed before
//     the earlycse that runs just before it.
//
// On top of that, dynPreserve upgrades Dom/Loops/Uses for any pass that
// reports zero changes (see its comment for why AA is excluded). licm
// never upgrades: its internal CSE round can mutate the function even
// when the hoist/promote counters are both zero.

type simplifyCFGPass struct{}

func (simplifyCFGPass) Name() string { return "simplifycfg" }
func (simplifyCFGPass) Run(f *ir.Func, am *AnalysisManager) (Stats, Preserved) {
	n := simplifyCFG(f)
	return Stats{BlocksMerged: n}, dynPreserve(PreserveNone, n)
}

type mem2regPass struct{}

func (mem2regPass) Name() string { return "mem2reg" }
func (mem2regPass) Run(f *ir.Func, am *AnalysisManager) (Stats, Preserved) {
	// Promotion deletes and rewrites instructions but never touches the
	// CFG; its final fixpoint round leaves the use-list cache exact.
	mem2reg(f, am)
	return Stats{}, Preserve(AnalysisDom, AnalysisLoops, AnalysisUses)
}

type earlyCSEPass struct{}

func (earlyCSEPass) Name() string { return "earlycse" }
func (earlyCSEPass) Run(f *ir.Func, am *AnalysisManager) (Stats, Preserved) {
	n := earlyCSE(am.Module(), f, am.AA(), am.Telemetry())
	return Stats{CSESimplified: n}, dynPreserve(Preserve(AnalysisDom, AnalysisLoops, AnalysisAA), n)
}

type instCombinePass struct{}

func (instCombinePass) Name() string { return "instcombine" }
func (instCombinePass) Run(f *ir.Func, am *AnalysisManager) (Stats, Preserved) {
	n := instCombine(f)
	return Stats{NodesCombined: n}, dynPreserve(Preserve(AnalysisDom, AnalysisLoops), n)
}

type inlinePass struct{}

func (inlinePass) Name() string { return "inline" }
func (inlinePass) Run(f *ir.Func, am *AnalysisManager) (Stats, Preserved) {
	n := inlineCalls(am.Module(), f, am.Options().InlineThreshold, am.Telemetry())
	return Stats{CallsInlined: n}, dynPreserve(PreserveNone, n)
}

type licmPass struct{}

func (licmPass) Name() string { return "licm" }
func (licmPass) Run(f *ir.Func, am *AnalysisManager) (Stats, Preserved) {
	h, p := licm(f, am)
	return Stats{LICMHoisted: h, LICMPromoted: p}, Preserve(AnalysisDom, AnalysisLoops)
}

type dcePass struct{}

func (dcePass) Name() string { return "dce" }
func (dcePass) Run(f *ir.Func, am *AnalysisManager) (Stats, Preserved) {
	n := dce(f)
	return Stats{DCERemoved: n}, dynPreserve(Preserve(AnalysisDom, AnalysisLoops), n)
}

type vectorizePass struct{}

func (vectorizePass) Name() string { return "vectorize" }
func (vectorizePass) Run(f *ir.Func, am *AnalysisManager) (Stats, Preserved) {
	o := am.Options()
	budget := 0
	if o.UseUnseqAA {
		budget = o.MemcheckThreshold
	}
	n := vectorizeLoopsOpt(f, am, o.VectorWidth, budget)
	return Stats{LoopsVectorized: n}, dynPreserve(PreserveNone, n)
}

type unrollPass struct{}

func (unrollPass) Name() string { return "unroll" }
func (unrollPass) Run(f *ir.Func, am *AnalysisManager) (Stats, Preserved) {
	n := unrollLoops(f, am, am.Options().UnrollFactor)
	return Stats{LoopsUnrolled: n}, dynPreserve(PreserveNone, n)
}

type dsePass struct{}

func (dsePass) Name() string { return "dse" }
func (dsePass) Run(f *ir.Func, am *AnalysisManager) (Stats, Preserved) {
	n := dse(am.Module(), f, am.AA(), am.Telemetry())
	return Stats{StoresDeleted: n}, dynPreserve(Preserve(AnalysisDom, AnalysisLoops, AnalysisAA), n)
}

type memcpyOptPass struct{}

func (memcpyOptPass) Name() string { return "memcpyopt" }
func (memcpyOptPass) Run(f *ir.Func, am *AnalysisManager) (Stats, Preserved) {
	n := memcpyOpt(am.Module(), f, am.AA(), am.Telemetry())
	return Stats{MemsetsFormed: n}, dynPreserve(Preserve(AnalysisDom, AnalysisLoops), n)
}
