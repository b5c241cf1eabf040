package main

import (
	"time"

	"repro/internal/driver"
)

func setupSpec(e *env) (*corpusInputs, error) {
	return setupCorpus(e, specCorpus(corpusSeed(e.seed)), 3, func(u unit) {
		// Warm-up failures resurface, counted, in the measured loop.
		_, _ = compileUnit(u, false, nproc)
		_, _ = compileUnit(u, true, nproc)
	})
}

// measureSpec times driver.Compile of every SPEC-shaped unit under
// baseline-O3 and OOElala-O3 at -j nproc, round after round in seeded
// order. Only the compiles are timed; each unit's last builds then run
// on the vm to check results and sum cycles.
func measureSpec(e *env) (*report, error) {
	in, setupS, err := repeatSetup(corpusSetupReps, func() (*corpusInputs, error) { return setupSpec(e) })
	if err != nil {
		return nil, err
	}
	r := newReport()
	r.set("setup_s", setupS)
	var t tally
	last := make([][2]*driver.Compilation, len(in.units))
	var unitLat, reqLat []float64
	mw := startMem()
	start := time.Now()
	for round, done := 0, false; !done; round++ {
		for k, i := range in.ord {
			u := in.units[i]
			t0 := time.Now()
			b, errB := compileUnit(u, false, nproc)
			t1 := time.Now()
			o, errO := compileUnit(u, true, nproc)
			t2 := time.Now()
			t.check(errB)
			t.check(errO)
			unitLat = append(unitLat, ms(t1.Sub(t0)), ms(t2.Sub(t1)))
			reqLat = append(reqLat, ms(t2.Sub(t0)))
			last[i] = [2]*driver.Compilation{b, o}
			if time.Since(start).Seconds() >= e.seconds && (round > 0 || k == len(in.ord)-1) {
				done = true
				break
			}
		}
	}
	elapsed := time.Since(start)
	memoryMetrics(r, mw.stop(), len(unitLat))
	latencies(r, "units_per_s", "unit_ms", unitLat, elapsed)
	latencies(r, "req_per_s", "req_ms", reqLat, elapsed)

	pairs := make([]pair, len(in.units))
	for i, u := range in.units {
		b, o := last[i][0], last[i][1]
		if b == nil || o == nil {
			continue // the failed compile is already counted
		}
		var p pair
		var err error
		p.base.result, p.base.cycles, err = b.Run("")
		if err == nil {
			p.ooe.result, p.ooe.cycles, err = o.Run("")
		}
		if err == nil {
			err = checkPair(in.refs, u, p)
		}
		t.check(err)
		pairs[i] = p
	}
	if corpusSeed(e.seed) == 0 {
		checkTable6(&t, in.traj, in.units, pairs)
	}
	simMetrics(r, pairs)
	r.complete(endToEndMetrics)
	return t.finish(r), nil
}

func tracedSpec(e *env) (*report, error) {
	in, err := setupSpec(e)
	if err != nil {
		return nil, err
	}
	return tracedCompile(e, "spec-compile", in, nproc)
}
