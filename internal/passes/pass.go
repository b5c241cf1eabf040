// Package passes implements the optimization pipeline the paper's
// evaluation exercises: EarlyCSE/GVN, instcombine, SimplifyCFG, DCE, DSE,
// LICM (invariant hoisting + scalar promotion), loop unrolling, loop
// vectorization with versioning guards, function inlining, and
// MemCpyOpt. Every memory-dependent decision goes through the aa.Manager
// chain, so the extra NoAlias answers contributed by unseq-aa directly
// enable additional transforms — the causal chain the paper measures.
package passes

import (
	"fmt"
	"io"

	"repro/internal/aa"
	"repro/internal/ir"
	"repro/internal/telemetry"
)

// Stats aggregates the per-pass counters reported in the paper's §4.2.2
// compile-time statistics.
type Stats struct {
	CSESimplified   int // instructions simplified/eliminated (GVN-alikes)
	NodesCombined   int // instcombine folds (SelectionDAG analog)
	StoresDeleted   int // DSE
	LICMHoisted     int // invariant instructions hoisted
	LICMPromoted    int // memory locations register-promoted
	LoopsUnrolled   int
	LoopsVectorized int
	CallsInlined    int
	FuncsDeleted    int
	MemsetsFormed   int
	DCERemoved      int
	BlocksMerged    int
	// RegsAssigned approximates "registers assigned during register
	// allocation": scalar alloca slots live at the end of optimization.
	RegsAssigned int
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.CSESimplified += other.CSESimplified
	s.NodesCombined += other.NodesCombined
	s.StoresDeleted += other.StoresDeleted
	s.LICMHoisted += other.LICMHoisted
	s.LICMPromoted += other.LICMPromoted
	s.LoopsUnrolled += other.LoopsUnrolled
	s.LoopsVectorized += other.LoopsVectorized
	s.CallsInlined += other.CallsInlined
	s.FuncsDeleted += other.FuncsDeleted
	s.MemsetsFormed += other.MemsetsFormed
	s.DCERemoved += other.DCERemoved
	s.BlocksMerged += other.BlocksMerged
	s.RegsAssigned += other.RegsAssigned
}

func (s Stats) String() string {
	return fmt.Sprintf("cse=%d combine=%d dse=%d hoist=%d promote=%d unroll=%d vec=%d inline=%d funcdel=%d memset=%d dce=%d blockmerge=%d regs=%d",
		s.CSESimplified, s.NodesCombined, s.StoresDeleted, s.LICMHoisted,
		s.LICMPromoted, s.LoopsUnrolled, s.LoopsVectorized, s.CallsInlined,
		s.FuncsDeleted, s.MemsetsFormed, s.DCERemoved, s.BlocksMerged,
		s.RegsAssigned)
}

// Record exports every counter into the telemetry registry under the
// pass/ namespace.
func (s Stats) Record(tel *telemetry.Session) {
	if !tel.MetricsEnabled() {
		return
	}
	tel.Count("pass/cse_simplified", int64(s.CSESimplified))
	tel.Count("pass/nodes_combined", int64(s.NodesCombined))
	tel.Count("pass/stores_deleted", int64(s.StoresDeleted))
	tel.Count("pass/licm_hoisted", int64(s.LICMHoisted))
	tel.Count("pass/licm_promoted", int64(s.LICMPromoted))
	tel.Count("pass/loops_unrolled", int64(s.LoopsUnrolled))
	tel.Count("pass/loops_vectorized", int64(s.LoopsVectorized))
	tel.Count("pass/calls_inlined", int64(s.CallsInlined))
	tel.Count("pass/funcs_deleted", int64(s.FuncsDeleted))
	tel.Count("pass/memsets_formed", int64(s.MemsetsFormed))
	tel.Count("pass/dce_removed", int64(s.DCERemoved))
	tel.Count("pass/blocks_merged", int64(s.BlocksMerged))
	tel.Count("pass/regs_assigned", int64(s.RegsAssigned))
}

// Options configures the pipeline.
type Options struct {
	// UseUnseqAA plugs the paper's unseq-aa into the AA chain (the
	// OOElala configuration; off = baseline Clang-like pipeline).
	UseUnseqAA bool
	// OptLevel 0 disables everything; 2/3 run the full pipeline.
	OptLevel int
	// InlineThreshold is the callee instruction-count limit.
	InlineThreshold int
	// UnrollFactor / VectorWidth tune the loop transforms.
	UnrollFactor int
	VectorWidth  int
	// MemcheckThreshold is the loop-versioning budget: the number of
	// runtime alias checks the vectorizer may spend on pairs the AA
	// chain could NOT resolve. It is only granted when unseq-aa is in
	// the chain — modelling the paper's observation that the extra
	// must-not-alias facts flip the vectorizer's cost calculation from
	// "versioning unprofitable" to "profitable" (the regmove.c story).
	MemcheckThreshold int
	// MaxIterations bounds the cleanup fixpoint.
	MaxIterations int
	// Jobs bounds the per-function pipeline worker pool. RunModule runs
	// the call graph's SCCs bottom-up, callees first, across Jobs
	// workers, and merges output in that same order (byte-identical to a
	// sequential run regardless of scheduling). 0 = GOMAXPROCS; 1 runs
	// the plain sequential loop, the differential-testing oracle.
	Jobs int
	// Telemetry receives per-pass spans and optimization remarks. Nil
	// (the default) is a zero-overhead no-op sink.
	Telemetry *telemetry.Session
	// Pipeline overrides the pass sequence (nil = DefaultPipeline, the
	// parsed DefaultPipelineSpec). Parse custom sequences with
	// ParsePipeline (the -passes CLI flag).
	Pipeline *Pipeline
	// VerifyEach runs the IR verifier after every pass and fails the
	// compilation at the first broken invariant (-verify-each).
	VerifyEach bool
	// PrintChanged, when non-nil, receives a function's IR after every
	// pass that changed it (-print-changed). Forces Jobs to 1 so the
	// dump order matches the sequential pipeline.
	PrintChanged io.Writer
	// InterprocSummaries enables the bottom-up call-graph summary tier:
	// mod/ref effects resolved per call site instead of the blanket
	// call barrier, plus π-pair propagation through arguments when
	// unseq-aa is on. Summaries are computed once from the pre-pipeline
	// module and are read-only during the function pipelines (sound
	// because optimization never makes a function touch memory it could
	// not already touch; see DESIGN.md §12). -interproc=false restores
	// the call-barrier behaviour for A/B measurement.
	InterprocSummaries bool
	// ModuleAnalyses, when non-nil, is the caller-owned module-level
	// analysis manager RunModule should use (and leave populated for
	// inspection: -print-callgraph/-print-summaries, per-function cache
	// keys). Nil makes RunModule create a private one.
	ModuleAnalyses *ModuleAnalyses
	// WantFuncKeys makes RunModule capture per-function content keys
	// (FuncKeys) from the pre-pipeline module into ModuleAnalyses — the
	// compile service's sub-TU cache identities.
	WantFuncKeys bool
}

// DefaultOptions is -O3.
func DefaultOptions() Options {
	return Options{
		UseUnseqAA:         true,
		OptLevel:           3,
		InlineThreshold:    60,
		UnrollFactor:       4,
		VectorWidth:        4,
		MemcheckThreshold:  3,
		MaxIterations:      3,
		InterprocSummaries: true,
	}
}

// RunModule optimizes every function with the configured pipeline
// (opts.Pipeline, default DefaultPipeline) and returns aggregate
// statistics. AA query statistics accumulate into aaStats if non-nil.
// The per-function pipeline runs bottom-up over the call graph's SCCs,
// sharded across opts.Jobs workers (see Options.Jobs); results merge in
// that bottom-up order, so the output is independent of scheduling.
// Errors come from opts.VerifyEach findings and from pass panics
// recovered into *PanicError; failures are contained to their function
// and aggregate with errors.Join in the same order — the remaining
// functions still run.
func RunModule(mod *ir.Module, opts Options, aaStats *aa.Stats) (Stats, error) {
	var total Stats
	if opts.OptLevel == 0 {
		return total, nil
	}
	if opts.MaxIterations <= 0 {
		opts.MaxIterations = 1
	}
	if opts.Pipeline == nil {
		opts.Pipeline = DefaultPipeline()
	}
	if opts.PrintChanged != nil {
		// Interleaved worker dumps would be useless; match the
		// sequential pipeline's order instead.
		opts.Jobs = 1
	}
	sizes := map[string]int{}
	for _, f := range mod.Funcs {
		sizes[f.Name] = f.NumInstrs()
	}
	// Module-level analyses run against the pre-pipeline module: the
	// call graph orders the scheduler, and the summaries and FuncKeys are
	// pre-pipeline by definition.
	ma := opts.ModuleAnalyses
	if ma == nil {
		ma = NewModuleAnalyses(mod)
	}
	cg := ma.CallGraph()
	var sums *aa.Summaries
	if opts.InterprocSummaries {
		sums = ma.Summaries()
	}
	if opts.WantFuncKeys {
		ma.FuncKeys()
	}
	total, err := runFuncs(mod, opts, aaStats, cg, sums)
	ma.record(opts.Telemetry)
	if err != nil {
		return total, err
	}
	total.FuncsDeleted = removeDeadFuncs(mod, sizes, total.CallsInlined > 0)
	if total.CallsInlined > 0 || total.FuncsDeleted > 0 {
		// The inliner/DCE edited the call graph: whoever consumes the
		// module analyses next (a second RunModule, a live dump of the
		// post-pipeline graph) must recompute them. FuncKeys, a
		// pre-pipeline snapshot, survives by design.
		ma.Invalidate(ModulePreserveNone)
	}
	return total, nil
}

// removeDeadFuncs deletes now-uncalled functions after inlining and
// returns how many were removed. The heuristic: a function is deleted
// only when (a) at least one call was inlined somewhere in the module
// (inlined=false is the conservative no-op — external harnesses call
// functions by name), (b) no remaining call site or function reference
// names it, (c) it is not main, and (d) its pre-optimization size was
// within the inline threshold's reach (<= 40 instructions) — a small
// function that lost all its callers to inlining, not a large entry
// point an external harness may still want.
func removeDeadFuncs(mod *ir.Module, sizes map[string]int, inlined bool) int {
	if !inlined {
		return 0
	}
	called := map[string]bool{"main": true}
	for _, f := range mod.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpCall && in.Callee != "" {
					called[in.Callee] = true
				}
				for _, a := range in.Args {
					if fr, ok := a.(*ir.FuncRef); ok {
						called[fr.Name] = true
					}
				}
			}
		}
	}
	var kept []*ir.Func
	deleted := 0
	for _, f := range mod.Funcs {
		if called[f.Name] || sizes[f.Name] > 40 {
			kept = append(kept, f)
		} else {
			deleted++
		}
	}
	mod.Funcs = kept
	return deleted
}

// runFunc runs the pipeline on one function. A panic anywhere in the
// pipeline is recovered into a *PanicError attributing the executing
// pass and function, so one broken pass fails this function instead of
// the whole process.
func runFunc(mod *ir.Module, f *ir.Func, opts Options, aaStats *aa.Stats, sums *aa.Summaries) (st Stats, err error) {
	tel := opts.Telemetry
	if tel.TraceEnabled() {
		// Per-function span (trace-only: too high-cardinality for the
		// -time-passes accumulator); nests the per-pass spans under it.
		defer tel.TraceSpan("func/" + f.Name)()
	}
	pipe := opts.Pipeline
	if pipe == nil {
		pipe = DefaultPipeline()
	}
	am := newAnalysisManager(mod, f, &opts, sums)
	inst := instrumentationFor(&opts)
	defer func() {
		if r := recover(); r != nil {
			err = newPanicError(f.Name, inst.active, r)
			tel.FlightRecord("panic", inst.active, f.Name)
			tel.SetActivePass("", "")
		}
	}()
	for i := 0; i < opts.MaxIterations; i++ {
		before := f.NumInstrs()
		for _, p := range pipe.Passes() {
			pst, err := inst.Run(p, f, am)
			st.Add(pst)
			if err != nil {
				return st, err
			}
		}
		if f.NumInstrs() == before {
			break
		}
	}
	// Count remaining scalar alloca slots as assigned registers.
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpAlloca && in.AllocSz <= 8 {
				st.RegsAssigned++
			}
		}
	}
	am.record()
	if aaStats != nil {
		aaStats.Add(am.mgr.Stats)
	}
	return st, nil
}

// ---------- shared utilities ----------

// emitRemark reports one committed transform to the remark stream,
// attaching the unseq-aa attribution accumulated in mgr's current
// query window (bracketed by mgr.ResetWindow before the candidate's
// legality queries). mgr may be nil for passes that never consult AA.
func emitRemark(tel *telemetry.Session, mgr *aa.Manager, pass, kind, fn, loc string) {
	if !tel.RemarksEnabled() {
		return
	}
	var att aa.Attribution
	if mgr != nil {
		att = mgr.Window()
	}
	tel.Remark(telemetry.Remark{
		Pass: pass, Function: fn, Loc: loc, Kind: kind,
		EnabledByUnseqAA: att.UnseqDecided, PredicateMeta: att.PredicateMeta,
	})
}

// removeAt deletes b.Instrs[i].
func removeAt(b *ir.Block, i int) {
	b.Instrs = append(b.Instrs[:i], b.Instrs[i+1:]...)
}

// canonicalFor reports whether v already holds the canonical register
// representation a load with (cls, unsigned) would produce — i.e.
// whether the memory round-trip (truncate to the slot width, re-extend
// per the load's signedness) is the identity on v. Constants are folded
// to the canonical value and returned. When it reports false the caller
// must not substitute v for the load directly; it has to replay the
// round-trip with an explicit convert or leave the load in place.
func canonicalFor(v ir.Value, cls ir.Class, unsigned bool) (ir.Value, bool) {
	if cls == ir.I64 || cls == ir.Ptr || cls.IsFloat() {
		return v, true // full-width: the round-trip is always the identity
	}
	switch x := v.(type) {
	case *ir.Const:
		return ir.ConstInt(cls, ir.TruncInt(cls, x.I, unsigned)), true
	case *ir.Instr:
		if x.Cls != cls || x.Unsigned != unsigned {
			return v, false
		}
		// Only ops that truncate their result per (Cls, Unsigned) at
		// runtime are guaranteed canonical; calls, selects, and vector
		// ops pass values through untouched.
		switch x.Op {
		case ir.OpLoad, ir.OpConvert, ir.OpAdd, ir.OpSub, ir.OpMul,
			ir.OpDiv, ir.OpRem, ir.OpAnd, ir.OpOr, ir.OpXor,
			ir.OpShl, ir.OpShr, ir.OpNeg, ir.OpNot, ir.OpCmp:
			return v, true
		}
	}
	return v, false
}

// isPureValueOp reports whether in computes a value without touching
// memory or control flow.
func isPureValueOp(in *ir.Instr) bool {
	switch in.Op {
	case ir.OpGEP, ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd, ir.OpOr,
		ir.OpXor, ir.OpShl, ir.OpShr, ir.OpNeg, ir.OpNot, ir.OpCmp,
		ir.OpSelect, ir.OpConvert, ir.OpVecSplat:
		return true
	case ir.OpDiv, ir.OpRem:
		// Division by a non-zero constant is speculatable.
		if c, ok := in.Args[1].(*ir.Const); ok && (c.I != 0 || c.Cls.IsFloat()) {
			return true
		}
		return false
	}
	return false
}

// callReadsMemory / callWritesMemory consult readnone summaries.
func callEffects(mod *ir.Module, in *ir.Instr) (reads, writes bool) {
	if in.Op != ir.OpCall {
		return in.IsMemRead(), in.IsMemWrite()
	}
	if in.Callee != "" {
		if f := mod.FindFunc(in.Callee); f != nil && f.ReadNone {
			return false, false
		}
		if pureBuiltin(in.Callee) {
			return false, false
		}
	}
	return true, true
}

// callModRef reports whether the call may read and/or write the given
// location. The coarse per-module effects (ReadNone flag, pure
// builtins) answer first; otherwise, when interprocedural summaries
// are loaded, the callee's bottom-up mod/ref summary is resolved
// against the call's actual arguments. An unknown call without a
// summary stays a full read+write barrier.
func callModRef(mod *ir.Module, mgr *aa.Manager, call *ir.Instr, loc aa.Location) (reads, writes bool) {
	r, w := callEffects(mod, call)
	if (!r && !w) || mgr == nil || !mgr.HasSummaries() || loc.Ptr == nil {
		return r, w
	}
	eff := mgr.CallModRef(call, loc)
	return eff&aa.RefEffect != 0, eff&aa.ModEffect != 0
}

func pureBuiltin(name string) bool {
	switch name {
	case "fabs", "sqrt", "sin", "cos", "exp", "log", "pow", "floor",
		"ceil", "fmod", "fmax", "fmin", "abs", "labs":
		return true
	}
	return false
}

// accessSize returns the byte size of a load/store access.
func accessSize(in *ir.Instr) int {
	switch in.Op {
	case ir.OpLoad:
		return in.Cls.Size()
	case ir.OpStore:
		return in.Args[1].Class().Size()
	case ir.OpVecLoad:
		return in.Cls.Size() * in.Width
	case ir.OpVecStore:
		return in.Cls.Size() * in.Width
	}
	return 8
}

// memLoc extracts the accessed location of a memory instruction (nil
// pointer if not a simple access).
func memLoc(in *ir.Instr) (ir.Value, int) {
	switch in.Op {
	case ir.OpLoad, ir.OpVecLoad:
		return in.Args[0], accessSize(in)
	case ir.OpStore, ir.OpVecStore:
		return in.Args[0], accessSize(in)
	case ir.OpMemset, ir.OpMemcpy:
		return in.Args[0], 1 << 20 // unknown extent: huge
	}
	return nil, 0
}

// accessClass returns the scalar class of a load/store for TBAA.
func accessClass(in *ir.Instr) ir.Class {
	switch in.Op {
	case ir.OpLoad, ir.OpVecLoad:
		return in.Cls
	case ir.OpStore:
		return in.Args[1].Class()
	case ir.OpVecStore:
		return in.Cls
	}
	return ir.Void
}

// locOf builds the AA location of a memory instruction.
func locOf(in *ir.Instr) aa.Location {
	ptr, size := memLoc(in)
	return aa.Location{Ptr: ptr, Size: size, Cls: accessClass(in)}
}
