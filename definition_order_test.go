package repro_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/driver"
	"repro/internal/ir"
	"repro/internal/workload"
)

// forwardCallee calls a helper defined after main: before bottom-up
// scheduling the inliner spliced its unoptimized body, so the result
// depended on where the definition sat in the file.
const forwardCallee = `static int sum(int *p, int *q, int n);
int a[16], b[16];
int main() {
  for (int i = 0; i < 16; i++) { a[i] = i; b[i] = 2 * i; }
  return sum(a, b, 16);
}
static int sum(int *p, int *q, int n) {
  int s = 0;
  for (int i = 0; i < n; i++) { *p = *p + 1; s += *p + *q; *p = *p - 1; p++; q++; }
  return s;
}
`

// splitTopLevel splits a C source into its function definitions (a
// line ending in "{", or a one-line body, through the matching close
// brace) and everything else, both in source order.
func splitTopLevel(src string) (defs []string, rest string) {
	var other strings.Builder
	lines := strings.SplitAfter(src, "\n")
	for i := 0; i < len(lines); i++ {
		l := lines[i]
		if !strings.Contains(l, "(") || !strings.Contains(l, "{") || strings.HasPrefix(l, " ") {
			other.WriteString(l)
			continue
		}
		def := l
		depth := strings.Count(l, "{") - strings.Count(l, "}")
		for depth > 0 {
			i++
			def += lines[i]
			depth += strings.Count(lines[i], "{") - strings.Count(lines[i], "}")
		}
		defs = append(defs, def)
	}
	return defs, other.String()
}

// definitionOrders returns src with its functions defined callees
// first, and callers first behind prototypes. Both orders carry the
// prototypes so the two sources differ only in definition order.
func definitionOrders(src string) (calleesFirst, callersFirst string) {
	defs, rest := splitTopLevel(src)
	byName := map[string]string{}
	var names []string
	var protos strings.Builder
	for _, d := range defs {
		head, _, _ := strings.Cut(d, " {")
		head = strings.TrimPrefix(head, "static ")
		name := head[strings.LastIndex(head[:strings.Index(head, "(")], " ")+1 : strings.Index(head, "(")]
		if _, dup := byName[name]; dup {
			continue
		}
		byName[name] = d
		names = append(names, name)
		if name != "main" {
			p, _, _ := strings.Cut(d, " {")
			protos.WriteString(p + ";\n")
		}
	}
	// Callees first: a definition is emitted after every function it
	// calls (the programs here have no recursion). Callers first is the
	// reverse.
	var topo []string
	emitted := map[string]bool{}
	var emit func(string)
	emit = func(n string) {
		if emitted[n] {
			return
		}
		emitted[n] = true
		for _, c := range names {
			if c != n && strings.Contains(byName[n], c+"(") {
				emit(c)
			}
		}
		topo = append(topo, n)
	}
	for _, n := range names {
		emit(n)
	}
	var cf, rf strings.Builder
	for i := range topo {
		cf.WriteString(byName[topo[i]])
		rf.WriteString(byName[topo[len(topo)-1-i]])
	}
	return rest + protos.String() + cf.String(), rest + protos.String() + rf.String()
}

// optimizedFuncs compiles src and returns each function's optimized IR
// by name, with every mustnotalias intrinsic's π id rendered through
// its provenance (ids are numbered in source order, so they differ
// between definition orders even when the predicate is the same).
func optimizedFuncs(t *testing.T, name, src string, ooe bool, jobs int) (map[string]string, int64, float64) {
	t.Helper()
	c, err := driver.Compile(name, src, driver.Config{OOElala: ooe, Files: workload.Files(), Jobs: jobs})
	if err != nil {
		t.Fatalf("%s (ooe=%v, -j %d): %v\n%s", name, ooe, jobs, err, src)
	}
	funcs := map[string]string{}
	for _, f := range c.Module.Funcs {
		var b strings.Builder
		b.WriteString(f.String())
		for _, blk := range f.Blocks {
			for _, in := range blk.Instrs {
				if in.Op == ir.OpMustNotAlias {
					p := c.Module.FindProvenance(in.Meta)
					if p == nil {
						t.Fatalf("%s: %s: mustnotalias without provenance (meta %d)", name, f.Name, in.Meta)
					}
					fmt.Fprintf(&b, "; pi %s: %s | %s\n", p.Fn, p.E1, p.E2)
				}
			}
		}
		funcs[f.Name] = b.String()
	}
	res, cycles, err := c.Run("")
	if err != nil {
		t.Fatalf("%s (ooe=%v, -j %d) run: %v", name, ooe, jobs, err)
	}
	return funcs, res, cycles
}

// TestDefinitionOrderIndependent: the pass pipeline runs callees before
// callers whatever the order of definitions in the file, so moving
// callees after their callers (behind prototypes) changes no function's
// optimized IR, the result, or the cycle count, at -j 1 or -j 4.
func TestDefinitionOrderIndependent(t *testing.T) {
	progs := append([]workload.Program{{Name: "forward-callee", Source: forwardCallee}},
		workload.InterprocKernels()...)
	for _, p := range progs {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			first, last := definitionOrders(p.Source)
			if first == last {
				t.Fatalf("reordering did not move any definition:\n%s", first)
			}
			for _, ooe := range []bool{false, true} {
				want, wantRes, wantCyc := optimizedFuncs(t, p.Name, first, ooe, 1)
				for _, src := range []string{first, last} {
					for _, jobs := range []int{1, 4} {
						got, res, cyc := optimizedFuncs(t, p.Name, src, ooe, jobs)
						callersFirst := src == last
						if !reflect.DeepEqual(got, want) {
							for name, body := range want {
								if got[name] != body {
									t.Errorf("ooe=%v callersFirst=%v -j %d: @%s differs:\n--- callees first -j 1:\n%s--- got:\n%s",
										ooe, callersFirst, jobs, name, body, got[name])
								}
							}
							if len(got) != len(want) {
								t.Errorf("ooe=%v callersFirst=%v -j %d: %d functions, want %d",
									ooe, callersFirst, jobs, len(got), len(want))
							}
						}
						if res != wantRes || cyc != wantCyc {
							t.Errorf("ooe=%v callersFirst=%v -j %d: (result, cycles) = (%d, %.0f), want (%d, %.0f)",
								ooe, callersFirst, jobs, res, cyc, wantRes, wantCyc)
						}
					}
				}
			}
		})
	}
}
