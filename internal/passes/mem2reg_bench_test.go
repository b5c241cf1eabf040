package passes

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/ooe"
	"repro/internal/parser"
	"repro/internal/sema"
)

// benchModule lowers src to unoptimized IR (no pass pipeline), so a
// benchmark or unit test can drive a single pass in isolation.
func benchModule(tb testing.TB, src string) *ir.Module {
	tb.Helper()
	return lowerModule(tb, src, true)
}

// lowerModule is benchModule with predicate emission chosen by preds.
func lowerModule(tb testing.TB, src string, preds bool) *ir.Module {
	tb.Helper()
	tu, perrs := parser.ParseFile("bench.c", src, nil)
	if len(perrs) > 0 {
		tb.Fatalf("parse: %v", perrs[0])
	}
	if serrs := sema.Check(tu); len(serrs) > 0 {
		tb.Fatalf("sema: %v", serrs[0])
	}
	an := ooe.New(ooe.Config{}, ooe.FuncMap(tu))
	reports := an.AnalyzeUnit(tu)
	mod, errs := irgen.Generate(tu, reports, irgen.Options{EmitPredicates: preds})
	if len(errs) > 0 {
		tb.Fatalf("irgen: %v", errs[0])
	}
	return mod
}

// mem2regSource builds a function with n once-initialized scalar locals,
// each read several times — every one is a promotable alloca, so the
// pass runs its use-scan to a deep fixpoint.
func mem2regSource(n int) string {
	var sb strings.Builder
	sb.WriteString("int main() {\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "  int v%d = %d;\n", i, i)
	}
	sb.WriteString("  int s = 0;\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "  s = s + v%d + v%d * 2;\n", i, i)
	}
	sb.WriteString("  return s;\n}\n")
	return sb.String()
}

// BenchmarkMem2Reg measures promoting a function with many eligible
// allocas. The interesting cost is the use-map construction: rebuilding
// it per promotion makes the pass quadratic in the number of locals.
func BenchmarkMem2Reg(b *testing.B) {
	for _, n := range []int{16, 64} {
		b.Run(fmt.Sprintf("locals=%d", n), func(b *testing.B) {
			mod := benchModule(b, mem2regSource(n))
			fn := mod.FindFunc("main")
			if fn == nil {
				b.Fatal("no main")
			}
			opts := DefaultOptions()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				clone := ir.CloneFunc(fn)
				am := newAnalysisManager(mod, clone, &opts, nil)
				b.StartTimer()
				mem2reg(clone, am)
			}
		})
	}
}
