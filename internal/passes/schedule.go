package passes

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/aa"
	"repro/internal/ir"
	"repro/internal/telemetry"
)

// The middle-end is function-local except for the inliner, which splices
// callee bodies into their callers. RunModule therefore schedules the
// per-function pipeline bottom-up over the call graph's strongly
// connected components, the way LLVM's CGSCC pass manager does: an SCC
// starts only once every SCC it calls has finished, and the members of
// one SCC run in order on one worker. Every callee outside the caller's
// SCC is then final and no longer mutated, so the inliner reads the live
// module and always splices the optimized body, whatever the order of
// function definitions. Results (stats, AA counters, telemetry forks)
// merge in the same flattened bottom-up order the sequential loop runs
// in, so IR, remarks, and metrics are byte-stable regardless of worker
// count or interleaving.

// funcResult collects one function's pipeline output for ordered fan-in.
type funcResult struct {
	stats Stats
	aa    aa.Stats
	tel   *telemetry.Session
	err   error
}

// runFuncs optimizes every function in mod in cg's bottom-up SCC order,
// fanning the SCCs out across opts.Jobs workers (0 = GOMAXPROCS). Jobs
// == 1 runs the plain sequential loop over the same order — the
// differential-testing oracle the parallel path must match
// byte-for-byte. Failures (verify-each findings and recovered pass
// panics) do not stop the other functions: every function runs, and the
// errors aggregate with errors.Join in that order, so -j 1 and -j N
// report the same failures in the same order.
func runFuncs(mod *ir.Module, opts Options, aaStats *aa.Stats, cg *CallGraph, sums *aa.Summaries) (Stats, error) {
	var total Stats
	sccs := cg.SCCs()
	order := make([]int, 0, len(mod.Funcs))
	for _, comp := range sccs {
		order = append(order, comp...)
	}
	jobs := opts.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > len(sccs) {
		jobs = len(sccs)
	}
	if jobs <= 1 {
		errs := make([]error, 0, len(order))
		for _, i := range order {
			start := time.Now()
			st, err := runFunc(mod, mod.Funcs[i], opts, aaStats, sums)
			opts.Telemetry.AddLaneBusy(time.Since(start))
			total.Add(st)
			errs = append(errs, err)
		}
		return total, errors.Join(errs...)
	}

	// pending[s] counts the call edges from s into other SCCs; callers[d]
	// lists the caller SCC once per such edge into d, so finishing d
	// releases exactly the edges it owes.
	pending := make([]atomic.Int32, len(sccs))
	callers := make([][]int, len(sccs))
	for s, comp := range sccs {
		for _, v := range comp {
			for _, c := range cg.Nodes[v].Callees {
				if d := cg.Nodes[c].SCC; d != s {
					pending[s].Add(1)
					callers[d] = append(callers[d], s)
				}
			}
		}
	}

	tel := opts.Telemetry
	results := make([]funcResult, len(mod.Funcs))
	ready := make(chan int, len(sccs))
	for s := range sccs {
		if pending[s].Load() == 0 {
			ready <- s
		}
	}
	var done atomic.Int32
	var wg sync.WaitGroup
	wg.Add(jobs)
	for w := 0; w < jobs; w++ {
		go func(lane int) {
			defer wg.Done()
			for s := range ready {
				for _, i := range sccs[s] {
					r := &results[i]
					// The per-function work runs inside a recover shield:
					// runFunc recovers pass panics itself, but a panic in
					// the scheduling shell (telemetry forks) must still
					// not take down the pool or strand callers waiting on
					// this SCC.
					func() {
						defer func() {
							if rec := recover(); rec != nil {
								r.err = newPanicError(mod.Funcs[i].Name, "", rec)
							}
						}()
						o := opts
						o.Telemetry = tel.ForkLane(lane)
						r.tel = o.Telemetry
						start := time.Now()
						r.stats, r.err = runFunc(mod, mod.Funcs[i], o, &r.aa, sums)
						o.Telemetry.AddLaneBusy(time.Since(start))
					}()
				}
				for _, c := range callers[s] {
					if pending[c].Add(-1) == 0 {
						ready <- c
					}
				}
				if done.Add(1) == int32(len(sccs)) {
					close(ready)
				}
			}
		}(w + 1)
	}
	wg.Wait()

	// Fan-in in the sequential loop's order: telemetry names register in
	// the same sequence a sequential run would produce, and errors
	// aggregate exactly as the sequential loop reports them.
	errs := make([]error, 0, len(order))
	for _, i := range order {
		total.Add(results[i].stats)
		if aaStats != nil {
			aaStats.Add(results[i].aa)
		}
		tel.Merge(results[i].tel)
		errs = append(errs, results[i].err)
	}
	return total, errors.Join(errs...)
}
