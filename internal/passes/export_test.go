package passes

import (
	"repro/internal/aa"
	"repro/internal/ir"
)

// Hooks for the external test package passes_test, whose tests import
// internal/workload (which imports passes itself).

// BenchModule lowers src to unoptimized IR with predicates.
var BenchModule = benchModule

// LowerModule lowers src to unoptimized IR, emitting predicates when
// preds is set (the OOElala configuration).
var LowerModule = lowerModule

// DCE runs the dce pass over fn.
func DCE(fn *ir.Func) int { return dce(fn) }

// BuildUses builds fn's use table.
func BuildUses(fn *ir.Func) {
	var t useTable
	t.build(fn)
}

// EarlyCSE runs the earlycse pass over fn.
func EarlyCSE(mod *ir.Module, fn *ir.Func, mgr *aa.Manager) int {
	return earlyCSE(mod, fn, mgr, nil)
}
