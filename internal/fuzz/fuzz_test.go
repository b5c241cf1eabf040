package fuzz

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/parser"
	"repro/internal/sema"
)

// TestGeneratorValid: every generated program must be accepted by the
// frontend — the generator stays inside the supported subset by
// construction, so a parse or sema error is a generator bug.
func TestGeneratorValid(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		p := Generate(seed, DefaultConfig())
		tu, perrs := parser.ParseFile("g.c", p.Source, nil)
		if len(perrs) > 0 {
			t.Fatalf("seed %d: parse: %v\n%s", seed, perrs[0], p.Source)
		}
		if serrs := sema.Check(tu); len(serrs) > 0 {
			t.Fatalf("seed %d: sema: %v\n%s", seed, serrs[0], p.Source)
		}
	}
}

// TestGeneratorDeterministic: the same seed must reproduce the same
// program byte for byte (crash reports name seeds, not sources).
func TestGeneratorDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		a := Generate(seed, DefaultConfig())
		b := Generate(seed, DefaultConfig())
		if a.Source != b.Source || a.Racy != b.Racy {
			t.Fatalf("seed %d: generation is not deterministic", seed)
		}
	}
}

// TestGeneratorCoverage: across a modest seed range the generator must
// exercise the constructs the differential harness exists to test.
func TestGeneratorCoverage(t *testing.T) {
	var all strings.Builder
	for seed := int64(1); seed <= 60; seed++ {
		all.WriteString(Generate(seed, DefaultConfig()).Source)
	}
	src := all.String()
	for _, construct := range []string{
		"restrict", "struct S", "union U", ": 5", "typedef",
		"for (", "if (", "?", ",", "&&", "||", "++", "--",
		"<<", ">>", "/", "%", "*p", "f0(",
	} {
		if !strings.Contains(src, construct) {
			t.Errorf("no generated program used %q", construct)
		}
	}
}

// TestForwardDefinedHelpers: a share of generated programs declare
// their helpers as prototypes and define them after main, so the fuzz
// smoke box's seed range (1..400) exercises callers compiled before
// their callees. Such a program must pass every leg, inline-off
// included.
func TestForwardDefinedHelpers(t *testing.T) {
	found := 0
	for seed := int64(1); seed <= 400; seed++ {
		p := Generate(seed, DefaultConfig())
		m := strings.Index(p.Source, "int main(")
		if m < 0 || !strings.Contains(p.Source[m:], "int f0(int x, int y) {") {
			continue
		}
		if !strings.Contains(p.Source[:m], "int f0(int x, int y);") {
			t.Fatalf("seed %d: f0 defined after main without a prototype:\n%s", seed, p.Source)
		}
		if found++; found > 3 {
			continue
		}
		out := Check(p, HarnessOpts{InlineOff: true})
		if len(out.Legs) == 0 && !out.UB {
			t.Errorf("seed %d: no leg ran", seed)
		}
		for _, f := range out.Findings {
			t.Errorf("seed %d: %s: %s", seed, f.Kind, f.Detail)
		}
	}
	if found == 0 {
		t.Fatal("no seed in 1..400 defined its helpers after main")
	}
}

// TestHarnessCleanOnSeeds is the PR's acceptance gate in miniature:
// a block of seeds must produce no divergence on HEAD.
func TestHarnessCleanOnSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep is slow")
	}
	stats := Run(RunOpts{N: 40, Seed: 1, Config: DefaultConfig()})
	for _, c := range stats.Crashes {
		t.Errorf("seed %d: %s: %s", c.Seed, c.Kind, c.Findings[0].Detail)
	}
}

// TestCrossEngineSweep runs generated programs with the engine
// cross-check on: every leg (and the sanitized build) executes on both
// the bytecode vm and the tree-walking oracle, and any divergence in
// result, cycles, error text, or sanitizer verdict is a finding. Racy
// bias is raised so the sanitized comparison path is exercised too.
func TestCrossEngineSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep is slow")
	}
	cfg := DefaultConfig()
	cfg.RacyBias = 0.2
	stats := Run(RunOpts{N: 40, Seed: 7000, Config: cfg, CrossEngine: true})
	for _, c := range stats.Crashes {
		for _, f := range c.Findings {
			if f.Kind == KindEngineMismatch {
				t.Errorf("seed %d: %s", c.Seed, f.Detail)
			}
		}
	}
}

// TestRegressionCorpus replays every minimized program under
// testdata/fuzz/regressions — each is a previously-fixed miscompile or
// reference-semantics bug and must now check clean through every leg.
func TestRegressionCorpus(t *testing.T) {
	dir := filepath.Join("..", "..", "testdata", "fuzz", "regressions")
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".c") {
			continue
		}
		n++
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out := Check(Program{Source: string(src)}, HarnessOpts{})
		if out.UB {
			t.Errorf("%s: reference semantics reports UB (%s) on a regression program", e.Name(), out.UBReason)
			continue
		}
		for _, f := range out.Findings {
			t.Errorf("%s: %s: %s", e.Name(), f.Kind, f.Detail)
		}
	}
	if n < 8 {
		t.Errorf("expected at least 8 regression programs, found %d", n)
	}
}

// TestRacyProgramsAreFlagged: with a strong racy bias the generator
// must actually produce programs the reference semantics calls UB.
func TestRacyProgramsAreFlagged(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep is slow")
	}
	cfg := DefaultConfig()
	cfg.RacyBias = 0.5
	ub := 0
	for seed := int64(100); seed < 160; seed++ {
		p := Generate(seed, cfg)
		out := Check(p, HarnessOpts{})
		if out.UB {
			ub++
			if !strings.Contains(out.UBReason, "unsequenced") {
				t.Errorf("seed %d: unexpected UB reason %q", seed, out.UBReason)
			}
		}
	}
	if ub == 0 {
		t.Error("racy bias 0.5 produced no UB program in 60 seeds")
	}
}

// knownBad is a deliberately planted miscompile shape: it reproduces
// the unsigned-comparison constant-fold bug class (compare folded with
// signed semantics). The predicate marks any program whose O0 and
// reference verdicts disagree... but since HEAD is fixed, the test
// instead plants a synthetic predicate: the reducer must strip the
// noise lines and keep the 4-line core that mentions both `b - 2` and
// the comparison.
const knownBad = `int g0;
int g1;
int g2;
int g3;
int noise(int x) { return x * 3; }
int main(void) {
  int keep1 = 1;
  unsigned a = 1;
  g0 = noise(4);
  g1 = g0 + 2;
  unsigned b = 0;
  g2 = g1 ^ 5;
  b = b - 2;
  g3 = g2 + g0;
  if (b > a) return 1;
  return 0;
}
`

// TestReducerShrinks: the delta-reducer must shrink knownBad to the
// minimal program still satisfying the predicate — at most 15 lines
// (the acceptance bound), and in practice the 7-line core.
func TestReducerShrinks(t *testing.T) {
	interesting := func(src string) bool {
		// The "bug" predicate: program still contains the wrapping
		// subtraction and the unsigned comparison, and still parses.
		if !strings.Contains(src, "b - 2") || !strings.Contains(src, "b > a") {
			return false
		}
		tu, perrs := parser.ParseFile("r.c", src, nil)
		if len(perrs) > 0 {
			return false
		}
		return len(sema.Check(tu)) == 0
	}
	if !interesting(knownBad) {
		t.Fatal("seed program does not satisfy its own predicate")
	}
	red := Reduce(knownBad, interesting)
	if !interesting(red) {
		t.Fatalf("reduced program lost the property:\n%s", red)
	}
	lines := strings.Count(strings.TrimSpace(red), "\n") + 1
	if lines > 15 {
		t.Errorf("reducer left %d lines (want <= 15):\n%s", lines, red)
	}
	if strings.Contains(red, "noise") || strings.Contains(red, "keep1") {
		t.Errorf("reducer kept removable noise:\n%s", red)
	}
}

// TestCrashReportSeverity: the headline kind must be the most severe
// finding, not the first.
func TestCrashReportSeverity(t *testing.T) {
	out := &Outcome{Findings: []Finding{
		{Kind: KindSanitizerMiss, Detail: "m"},
		{Kind: KindDivergence, Detail: "d"},
	}}
	r := NewCrashReport(Program{Seed: 7}, out)
	if r.Kind != KindDivergence {
		t.Errorf("report kind = %s, want %s", r.Kind, KindDivergence)
	}
}
