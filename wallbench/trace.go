package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/aa"
	"repro/internal/cpp"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/ooe"
	"repro/internal/parser"
	"repro/internal/passes"
	"repro/internal/sema"
	"repro/internal/vm"
	"repro/internal/workload"
)

// span is one timed call into a layer. Spans of one unit build (or one
// service request) share Unit; Parent is the enclosing span's ID (0 for
// a root).
type span struct {
	ID, Parent, Unit int
	Name             string
	Start, End       time.Duration // since the recorder's epoch
}

// recorder keeps spans in memory; it is safe for concurrent use because
// the pass wrapper records from the scheduler's worker goroutines.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	next  int
	units int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// newUnit allocates the id shared by one unit build's spans.
func (r *recorder) newUnit() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.units++
	return r.units
}

// openSpan is a span that has started.
type openSpan struct {
	r     *recorder
	s     span
	start time.Time
}

func (r *recorder) open(name string, unit, parent int) *openSpan {
	r.mu.Lock()
	r.next++
	id := r.next
	r.mu.Unlock()
	now := time.Now()
	return &openSpan{r: r, start: now, s: span{ID: id, Parent: parent, Unit: unit, Name: name, Start: now.Sub(r.epoch)}}
}

// close records the span and returns its duration.
func (o *openSpan) close() time.Duration {
	end := time.Now()
	o.s.End = end.Sub(o.r.epoch)
	o.r.mu.Lock()
	o.r.spans = append(o.r.spans, o.s)
	o.r.mu.Unlock()
	return end.Sub(o.start)
}

// layerTimes is the per-name inclusive and self time of the recorded
// spans, plus call counts. A span's self time is its duration minus the
// union of its children's intervals, so overlapping children (passes on
// several workers) are not counted twice.
type layerTimes struct {
	incl, self map[string]time.Duration
	calls      map[string]int
}

func (r *recorder) times() layerTimes {
	r.mu.Lock()
	defer r.mu.Unlock()
	kids := map[int][]span{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	lt := layerTimes{incl: map[string]time.Duration{}, self: map[string]time.Duration{}, calls: map[string]int{}}
	for _, s := range r.spans {
		d := s.End - s.Start
		lt.incl[s.Name] += d
		lt.self[s.Name] += d - covered(s, kids[s.ID])
		lt.calls[s.Name]++
	}
	return lt
}

// covered is the length of the union of the children's intervals
// clipped to the parent's.
func covered(parent span, children []span) time.Duration {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	return total + curB - curA
}

// dump writes the spans, one JSON object per line, to path.
func (r *recorder) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	r.mu.Lock()
	for _, s := range r.spans {
		fmt.Fprintf(w, "{\"id\":%d,\"parent\":%d,\"unit\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d}\n",
			s.ID, s.Parent, s.Unit, s.Name, s.Start.Nanoseconds(), s.End.Nanoseconds())
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedPass wraps one pipeline pass with a span per Run call. It holds
// no mutable state of its own, so the scheduler's workers may call it
// concurrently; the recorder serializes the appends.
type tracedPass struct {
	inner        passes.Pass
	name         string
	rec          *recorder
	unit, parent int
}

func (p *tracedPass) Name() string { return p.inner.Name() }

func (p *tracedPass) Run(f *ir.Func, am *passes.AnalysisManager) (passes.Stats, passes.Preserved) {
	sp := p.rec.open(p.name, p.unit, p.parent)
	st, pr := p.inner.Run(f, am)
	sp.close()
	return st, pr
}

// tracedPipeline is the default O3 pipeline with every pass wrapped.
func tracedPipeline(rec *recorder, unit, parent int) *passes.Pipeline {
	base := passes.DefaultPipeline().Passes()
	ps := make([]passes.Pass, len(base))
	for i, p := range base {
		ps[i] = &tracedPass{inner: p, name: "pass." + p.Name(), rec: rec, unit: unit, parent: parent}
	}
	return passes.NewPipeline(ps...)
}

// layerCounts are the work counts recorded at the layer boundaries.
type layerCounts struct {
	tokens       int
	fullExprs    int
	predsInitial int
	irgenInstrs  int
	instrsAfter  int
	passesJobs   time.Duration // RunModule wall time × jobs
	cycles       float64
	executed     int64
	// opt and aaStats cover the OOElala builds only.
	opt     passes.Stats
	aaStats aa.Stats
}

func (c *layerCounts) add(o layerCounts) {
	c.tokens += o.tokens
	c.fullExprs += o.fullExprs
	c.predsInitial += o.predsInitial
	c.irgenInstrs += o.irgenInstrs
	c.instrsAfter += o.instrsAfter
	c.passesJobs += o.passesJobs
	c.cycles += o.cycles
	c.executed += o.executed
	c.opt.Add(o.opt)
	c.aaStats.Add(o.aaStats)
}

func moduleInstrs(m *ir.Module) int {
	n := 0
	for _, f := range m.Funcs {
		n += f.NumInstrs()
	}
	return n
}

// stagedCompile performs driver.Compile's steps one public layer call at
// a time, each inside a span: cpp → parser → sema → ooe → irgen →
// passes (wrapped pipeline) → ir verify. With the same inputs it must
// produce the same module as driver.Compile.
func stagedCompile(rec *recorder, name, src string, ooelala bool, jobs int) (*ir.Module, layerCounts, error) {
	var lc layerCounts
	unit := rec.newUnit()
	root := rec.open("unit", unit, 0)
	defer root.close()
	id := root.s.ID

	sp := rec.open("cpp", unit, id)
	pp := cpp.New(workload.Files())
	toks := pp.Process(name, src)
	sp.close()
	lc.tokens = len(toks)

	sp = rec.open("parser", unit, id)
	p := parser.New(name, toks)
	tu := p.ParseTranslationUnit()
	sp.close()
	if errs := p.Errors(); len(errs) > 0 {
		return nil, lc, fmt.Errorf("%s: parse: %v", name, errs[0])
	}
	if errs := pp.Errors(); len(errs) > 0 {
		return nil, lc, fmt.Errorf("%s: parse: %v", name, errs[0])
	}

	sp = rec.open("sema", unit, id)
	serrs := sema.Check(tu)
	sp.close()
	if len(serrs) > 0 {
		return nil, lc, fmt.Errorf("%s: sema: %v", name, serrs[0])
	}

	sp = rec.open("ooe", unit, id)
	an := ooe.New(ooe.Config{}, ooe.FuncMap(tu))
	reports := an.AnalyzeUnitJobs(tu, jobs)
	sp.close()
	lc.fullExprs = len(reports)
	for _, r := range reports {
		lc.predsInitial += len(r.Predicates)
	}

	sp = rec.open("irgen", unit, id)
	mod, gerrs := irgen.Generate(tu, reports, irgen.Options{EmitPredicates: ooelala})
	sp.close()
	if len(gerrs) > 0 {
		return nil, lc, fmt.Errorf("%s: irgen: %v", name, gerrs[0])
	}
	lc.irgenInstrs = moduleInstrs(mod)

	popts := passes.DefaultOptions()
	popts.UseUnseqAA = ooelala
	popts.Jobs = jobs
	sp = rec.open("passes", unit, id)
	popts.Pipeline = tracedPipeline(rec, unit, sp.s.ID)
	var aaStats aa.Stats
	pstats, perr := passes.RunModule(mod, popts, &aaStats)
	wall := sp.close()
	if perr != nil {
		return nil, lc, fmt.Errorf("%s: %w", name, perr)
	}
	lc.passesJobs = wall * time.Duration(jobs)
	lc.instrsAfter = moduleInstrs(mod)
	if ooelala {
		lc.opt = pstats
		lc.aaStats = aaStats
	}

	sp = rec.open("ir.verify", unit, id)
	problems := mod.Verify()
	sp.close()
	if len(problems) > 0 {
		return nil, lc, fmt.Errorf("%s: IR verification failed: %s", name, problems[0])
	}
	return mod, lc, nil
}

// stagedRun compiles mod to bytecode and runs main on the vm, each step
// inside a span, as Compilation.Run does.
func stagedRun(rec *recorder, mod *ir.Module) (int64, layerCounts, error) {
	var lc layerCounts
	unit := rec.newUnit()
	sp := rec.open("vm.compile", unit, 0)
	prog := vm.Compile(mod)
	sp.close()
	m := vm.New(prog, interp.DefaultCosts())
	sp = rec.open("vm.run", unit, 0)
	v, err := m.RunMain()
	sp.close()
	lc.cycles, lc.executed = m.TotalCycles(), m.Executed
	m.Release()
	return v, lc, err
}

// layerMetrics adds the frontend, passes, optimisation, AA, IR and vm
// per-layer metrics from a traced round.
func layerMetrics(r *report, lt layerTimes, c layerCounts) {
	r.set("cpp.ms", ms(lt.self["cpp"]))
	r.set("cpp.tokens_per_s", ratio(float64(c.tokens), lt.self["cpp"].Seconds()))
	r.set("parser.ms", ms(lt.self["parser"]))
	r.set("parser.tokens_per_s", ratio(float64(c.tokens), lt.self["parser"].Seconds()))
	r.set("sema.ms", ms(lt.self["sema"]))
	r.set("ooe.ms", ms(lt.self["ooe"]))
	r.set("ooe.full_exprs", float64(c.fullExprs))
	r.set("ooe.preds_initial", float64(c.predsInitial))
	r.set("irgen.ms", ms(lt.self["irgen"]))
	r.set("irgen.instrs", float64(c.irgenInstrs))

	r.set("passes.ms", ms(lt.incl["passes"]))
	r.set("passes.self_ms", ms(lt.self["passes"]))
	r.set("passes.instrs_after", float64(c.instrsAfter))
	var busy time.Duration
	for _, n := range passes.RegisteredPasses() {
		busy += lt.incl["pass."+n]
		r.set("pass."+n+".ms", ms(lt.incl["pass."+n]))
		r.set("pass."+n+".calls", float64(lt.calls["pass."+n]))
	}
	r.set("passes.parallel_eff", ratio(busy.Seconds(), c.passesJobs.Seconds()))
	for _, f := range optFields(c.opt) {
		r.set("opt."+f.name, float64(f.value))
	}
	r.set("aa.queries", float64(c.aaStats.Queries))
	r.set("aa.noalias_ratio", ratio(float64(c.aaStats.NoAlias), float64(c.aaStats.Queries)))
	r.set("aa.unseq_noalias", float64(c.aaStats.UnseqNoAlias))
	r.set("aa.summary_noalias", float64(c.aaStats.SummaryNoAlias))
	r.set("ir.verify_ms", ms(lt.self["ir.verify"]))

	r.set("vm.compile_ms", ms(lt.self["vm.compile"]))
	r.set("vm.run_ms", ms(lt.self["vm.run"]))
	r.set("vm.ns_per_cycle", ratio(float64(lt.self["vm.run"].Nanoseconds()), c.cycles))
	r.set("vm.ns_per_instr", ratio(float64(lt.self["vm.run"].Nanoseconds()), float64(c.executed)))
	r.set("vm.cycles", c.cycles)
}
