package passes_test

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/passes"
	"repro/internal/workload"
)

// largestFunc lowers the first gcc unit of the Table 5 and 6 corpus and
// returns its largest function.
func largestFunc(tb testing.TB) *ir.Func {
	unit := workload.GenerateUnits(workload.SpecSuite()[0])[0]
	mod := passes.BenchModule(tb, unit.Source)
	var big *ir.Func
	for _, f := range mod.Funcs {
		if big == nil || f.NumInstrs() > big.NumInstrs() {
			big = f
		}
	}
	return big
}

// TestSideTableAllocs bounds the allocations of dce and of building the
// use table by a constant: their ID-indexed tables cost a fixed number of
// slices (dce one, the use table its offsets and its users), however
// large the function.
func TestSideTableAllocs(t *testing.T) {
	f := largestFunc(t)
	if f.NumInstrs() < 100 {
		t.Fatalf("largest function has only %d instructions", f.NumInstrs())
	}
	passes.DCE(f) // reach the fixpoint, so each run below is alike
	for _, c := range []struct {
		name string
		max  float64
		run  func()
	}{
		{"dce", 1, func() { passes.DCE(f) }},
		{"use table", 2, func() { passes.BuildUses(f) }},
	} {
		n := testing.AllocsPerRun(20, c.run)
		t.Logf("%s on %d instructions: %v allocations per run", c.name, f.NumInstrs(), n)
		if n > c.max {
			t.Errorf("%s: %v allocations per run, want at most %v", c.name, n, c.max)
		}
	}
}

// cloneModule copies mod's functions so a pipeline run can mutate them.
func cloneModule(mod *ir.Module) *ir.Module {
	m := *mod
	m.Funcs = make([]*ir.Func, len(mod.Funcs))
	for i, f := range mod.Funcs {
		m.Funcs[i] = ir.CloneFunc(f)
	}
	return &m
}

// BenchmarkPipeline runs the default pass pipeline on one worker over the
// first gcc unit of the Table 5 and 6 corpus, lowered at each
// configuration.
func BenchmarkPipeline(b *testing.B) {
	unit := workload.GenerateUnits(workload.SpecSuite()[0])[0]
	for _, cfg := range []struct {
		name    string
		ooelala bool
	}{{"baseline", false}, {"ooelala", true}} {
		b.Run(cfg.name, func(b *testing.B) {
			mod := passes.LowerModule(b, unit.Source, cfg.ooelala)
			opts := passes.DefaultOptions()
			opts.UseUnseqAA = cfg.ooelala
			opts.Jobs = 1
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m := cloneModule(mod)
				b.StartTimer()
				if _, err := passes.RunModule(m, opts, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
