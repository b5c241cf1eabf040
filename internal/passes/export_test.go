package passes

import (
	"repro/internal/aa"
	"repro/internal/ir"
)

// Hooks for the external test package passes_test, whose tests import
// internal/workload (which imports passes itself).

// BenchModule lowers src to unoptimized IR.
var BenchModule = benchModule

// EarlyCSE runs the earlycse pass over fn.
func EarlyCSE(mod *ir.Module, fn *ir.Func, mgr *aa.Manager) int {
	return earlyCSE(mod, fn, mgr, nil)
}
