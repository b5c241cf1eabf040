package main

import (
	"fmt"
	"time"
)

func setupKernels(e *env) (*corpusInputs, error) {
	return setupCorpus(e, kernelCorpus(), 2, func(u unit) {
		// Warm-up failures resurface, counted, in the measured loop.
		_, _ = buildAndRun(u, false)
		_, _ = buildAndRun(u, true)
	})
}

// buildAndRun is one kernel build: driver.Compile at -j1, then
// Compilation.Run on the vm.
func buildAndRun(u unit, ooelala bool) (outcome, error) {
	c, err := compileUnit(u, ooelala, 1)
	if err != nil {
		return outcome{}, err
	}
	v, cyc, err := c.Run("")
	return outcome{v, cyc}, err
}

// measureKernels compiles and runs every kernel under both
// configurations, round after round in seeded order, timing each
// build end to end. Every round must reproduce the first round's
// results and cycles.
func measureKernels(e *env) (*report, error) {
	in, setupS, err := repeatSetup(corpusSetupReps, func() (*corpusInputs, error) { return setupKernels(e) })
	if err != nil {
		return nil, err
	}
	r := newReport()
	r.set("setup_s", setupS)
	var t tally
	first := make([]*pair, len(in.units))
	var unitLat, reqLat []float64
	mw := startMem()
	start := time.Now()
	for round, done := 0, false; !done; round++ {
		for k, i := range in.ord {
			u := in.units[i]
			t0 := time.Now()
			b, errB := buildAndRun(u, false)
			t1 := time.Now()
			o, errO := buildAndRun(u, true)
			t2 := time.Now()
			unitLat = append(unitLat, ms(t1.Sub(t0)), ms(t2.Sub(t1)))
			reqLat = append(reqLat, ms(t2.Sub(t0)))
			t.check(errB)
			t.check(errO)
			if errB == nil && errO == nil {
				p := pair{b, o}
				if first[i] == nil {
					first[i] = &p
				} else if *first[i] != p {
					t.fail(fmt.Errorf("%s: round %d outcome %+v differs from round 0 %+v", u.Name, round, p, *first[i]))
				}
			}
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
		if first[i] == nil {
			continue // the failed build is already counted
		}
		pairs[i] = *first[i]
		t.check(checkPair(in.refs, u, pairs[i]))
	}
	checkTable4(&t, in.traj, in.units, pairs)
	simMetrics(r, pairs)
	r.complete(endToEndMetrics)
	return t.finish(r), nil
}

func tracedKernels(e *env) (*report, error) {
	in, err := setupKernels(e)
	if err != nil {
		return nil, err
	}
	return tracedCompile(e, "kernels-run", in, 1)
}
