package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/driver"
	"repro/internal/ir"
	"repro/internal/workload"
)

// corpusInputs is the set-up product of the two compile workloads.
type corpusInputs struct {
	units []unit
	ord   []int
	refs  refSet
	traj  *trajectory
}

// setupCorpus generates the corpus and its order, loads the references
// and the cycle trajectory, and warms the compiler up on the corpus's
// first warm units (in corpus order, so set-up work does not depend on
// the seed's shuffle).
func setupCorpus(e *env, units []unit, warm int, warmUp func(unit)) (*corpusInputs, error) {
	in := &corpusInputs{units: units, ord: order(len(units), e.seed)}
	var err error
	if in.refs, err = loadRefs(e.refDirs...); err != nil {
		return nil, err
	}
	if in.traj, err = loadTrajectory(e.root); err != nil {
		return nil, err
	}
	for _, u := range in.units[:min(warm, len(in.units))] {
		warmUp(u)
	}
	return in, nil
}

// compileUnit is one user-level compile: driver.Compile at -O3.
func compileUnit(u unit, ooelala bool, jobs int) (*driver.Compilation, error) {
	return driver.Compile(u.Name, u.Source, driver.Config{OOElala: ooelala, Files: workload.Files(), Jobs: jobs})
}

// outcome is one build's run on the vm.
type outcome struct {
	result int64
	cycles float64
}

// pair is a unit's baseline and OOElala outcomes.
type pair struct{ base, ooe outcome }

// checkPair checks one unit's outcomes against its csem reference and
// requires baseline == OOElala.
func checkPair(refs refSet, u unit, p pair) error {
	if p.base.result != p.ooe.result {
		return fmt.Errorf("%s: MISCOMPILE baseline=%d ooelala=%d", u.Name, p.base.result, p.ooe.result)
	}
	if p.base.cycles == 0 || p.ooe.cycles == 0 {
		return fmt.Errorf("%s: zero cycle count", u.Name)
	}
	return checkRef(refs, u, p.ooe.result)
}

// simMetrics adds sim_cycles_ooe and sim_speedup_geomean over pairs.
func simMetrics(r *report, pairs []pair) {
	var cyc float64
	var ratios []float64
	for _, p := range pairs {
		if p.base.cycles == 0 || p.ooe.cycles == 0 {
			continue // a failed build, already counted
		}
		cyc += p.ooe.cycles
		ratios = append(ratios, p.base.cycles/p.ooe.cycles)
	}
	r.set("sim_cycles_ooe", cyc)
	r.set("sim_speedup_geomean", geomean(ratios))
}

// checkTable6 requires each benchmark's cycle sums, accumulated in unit
// order as Table 6 does, to equal BENCH_ooebench.json exactly.
func checkTable6(t *tally, traj *trajectory, units []unit, pairs []pair) {
	base, ooe := map[string]float64{}, map[string]float64{}
	for i, u := range units {
		base[u.Bench] += pairs[i].base.cycles
		ooe[u.Bench] += pairs[i].ooe.cycles
	}
	for _, row := range traj.Table6 {
		var err error
		if base[row.Bench] != row.CyclesBase || ooe[row.Bench] != row.CyclesOOElala {
			err = fmt.Errorf("table6 %s: cycles %v/%v, BENCH_ooebench.json %v/%v",
				row.Bench, base[row.Bench], ooe[row.Bench], row.CyclesBase, row.CyclesOOElala)
		}
		t.check(err)
	}
}

// checkTable4 requires each Table 4 kernel's baseline/OOElala cycle
// ratio to equal the committed speedup exactly.
func checkTable4(t *tally, traj *trajectory, units []unit, pairs []pair) {
	byName := map[string]pair{}
	for i, u := range units {
		byName[u.Name] = pairs[i]
	}
	for _, row := range traj.Table4 {
		p, ok := byName[row.Kernel]
		var err error
		if !ok {
			err = fmt.Errorf("table4 %s: kernel not in the corpus", row.Kernel)
		} else if got := p.base.cycles / p.ooe.cycles; got != row.Speedup {
			err = fmt.Errorf("table4 %s: speedup %v, BENCH_ooebench.json %v", row.Kernel, got, row.Speedup)
		}
		t.check(err)
	}
}

// build is one compiled and run build in the traced identity check.
type build struct {
	ir  string
	out outcome
}

// driverRound compiles every unit under both configurations through
// driver.Compile at jobs, then runs each build. The compile time and the
// runtime's memory window cover the compiles only, as on spec-compile,
// which also keeps every build of a round until the round ends.
func driverRound(in *corpusInputs, jobs int, t *tally) ([][2]build, time.Duration, memDelta) {
	comps := make([][2]*driver.Compilation, len(in.units))
	var compileTime time.Duration
	mw := startMem()
	for _, i := range in.ord {
		for k, ooelala := range []bool{false, true} {
			t0 := time.Now()
			c, err := compileUnit(in.units[i], ooelala, jobs)
			compileTime += time.Since(t0)
			t.check(err)
			comps[i][k] = c
		}
	}
	md := mw.stop()
	out := make([][2]build, len(in.units))
	for _, i := range in.ord {
		for k, c := range comps[i] {
			if c == nil {
				continue // the failed compile is already counted
			}
			v, cyc, err := c.Run("")
			if err == nil {
				out[i][k] = build{ir: c.Module.String(), out: outcome{v, cyc}}
			}
			t.check(err)
		}
	}
	return out, compileTime, md
}

// stagedRound repeats driverRound through the staged, traced layer calls
// and checks every build is byte-identical to the driver's: IR text,
// result and cycles. Like driverRound it compiles every unit before it
// runs any, so the two rounds compile under the same heap. It returns
// the compile time (the unit root spans).
func stagedRound(rec *recorder, in *corpusInputs, jobs int, want [][2]build, t *tally) (time.Duration, layerCounts) {
	var total layerCounts
	var compileTime time.Duration
	mods := make([][2]*ir.Module, len(in.units))
	for _, i := range in.ord {
		u := in.units[i]
		for k, ooelala := range []bool{false, true} {
			t0 := time.Now()
			mod, lc, err := stagedCompile(rec, u.Name, u.Source, ooelala, jobs)
			compileTime += time.Since(t0)
			total.add(lc)
			t.check(err)
			mods[i][k] = mod
		}
	}
	for _, i := range in.ord {
		u := in.units[i]
		for k, mod := range mods[i] {
			if mod == nil {
				continue // the failed compile is already counted
			}
			ooelala := k == 1
			v, rc, err := stagedRun(rec, mod)
			total.add(rc)
			if err == nil {
				err = sameBuild(u, ooelala, jobs, want[i][k], build{ir: mod.String(), out: outcome{v, rc.cycles}})
			}
			if err == nil && ooelala {
				err = checkRef(in.refs, u, v)
			}
			t.check(err)
		}
	}
	return compileTime, total
}

func sameBuild(u unit, ooelala bool, jobs int, want, got build) error {
	where := fmt.Sprintf("%s (ooelala=%v, jobs=%d)", u.Name, ooelala, jobs)
	switch {
	case want.ir == "":
		return fmt.Errorf("%s: driver build missing", where)
	case got.ir != want.ir:
		return fmt.Errorf("%s: traced IR differs from driver.Compile", where)
	case got.out.result != want.out.result:
		return fmt.Errorf("%s: traced result %d, driver %d", where, got.out.result, want.out.result)
	case math.Float64bits(got.out.cycles) != math.Float64bits(want.out.cycles):
		return fmt.Errorf("%s: traced cycles %v, driver %v", where, got.out.cycles, want.out.cycles)
	}
	return nil
}

// A traced run repeats its driver and staged rounds until overheadWindow
// has passed and it has at least overheadPairs pairs, to measure
// bench.trace_overhead.
const (
	overheadWindow = 4 * time.Second
	overheadPairs  = 3
)

// tracedCompile is the traced run of a compile workload. For jobs 1 and
// nproc it makes a driver.Compile round and a staged traced round and
// checks them byte-identical; the per-layer metrics come from the
// traced round at the workload's own job count, the runtime metrics
// from the driver round beside it, and bench.trace_overhead compares
// the two rounds' compile times.
func tracedCompile(e *env, name string, in *corpusInputs, jobs int) (*report, error) {
	r := newReport()
	var t tally
	jobSet := []int{1}
	if nproc > 1 {
		jobSet = append(jobSet, nproc)
	}
	for _, j := range jobSet {
		start := time.Now()
		want, driverTime, md := driverRound(in, j, &t)
		rec := newRecorder()
		stagedTime, counts := stagedRound(rec, in, j, want, &t)
		if j != jobs {
			continue
		}
		layerMetrics(r, rec.times(), counts)
		runtimeMetrics(r, md)
		// A short pair of rounds gives a noisy overhead: repeat the pair
		// and report the median.
		overheads := []float64{ratio((stagedTime - driverTime).Seconds(), driverTime.Seconds())}
		for time.Since(start) < overheadWindow || len(overheads) < overheadPairs {
			want, driverTime, _ := driverRound(in, j, &t)
			stagedTime, _ := stagedRound(newRecorder(), in, j, want, &t)
			overheads = append(overheads, ratio((stagedTime-driverTime).Seconds(), driverTime.Seconds()))
		}
		r.set("bench.trace_overhead", median(overheads))
		if err := rec.dump(spanPath(e, name)); err != nil {
			return nil, err
		}
	}
	return finishLayers(r, &t), nil
}

// finishLayers completes a traced run's report: correctness fields,
// failed_ratio, and 0 for every layer the workload does not exercise.
func finishLayers(r *report, t *tally) *report {
	t.finish(r)
	r.set("failed_ratio", ratio(float64(r.Failed), float64(r.Attempted)))
	r.complete(perLayerMetrics())
	return r
}
