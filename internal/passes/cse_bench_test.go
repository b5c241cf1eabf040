package passes_test

import (
	"testing"

	"repro/internal/aa"
	"repro/internal/ir"
	"repro/internal/passes"
	"repro/internal/workload"
)

// BenchmarkEarlyCSE runs earlycse, with unseq-aa on, over every function
// of one SPEC-shaped translation unit (the first gcc unit of the Table 5
// and 6 corpus), lowered but not yet optimized.
func BenchmarkEarlyCSE(b *testing.B) {
	unit := workload.GenerateUnits(workload.SpecSuite()[0])[0]
	mod := passes.BenchModule(b, unit.Source)
	fns := make([]*ir.Func, len(mod.Funcs))
	mgrs := make([]*aa.Manager, len(mod.Funcs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j, f := range mod.Funcs {
			fns[j] = ir.CloneFunc(f)
			mgrs[j] = aa.NewManager(fns[j], true)
		}
		b.StartTimer()
		for j, f := range fns {
			passes.EarlyCSE(mod, f, mgrs[j])
		}
	}
}
