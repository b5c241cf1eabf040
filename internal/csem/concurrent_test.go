package csem

import (
	"reflect"
	"strings"
	"sync"
	"testing"
)

// fnPtrProgs exercise both per-machine intern tables: function
// pseudo-addresses (direct designators, & and indirect calls) and
// string literals.
var fnPtrProgs = []string{`
int add(int a, int b) { return a + b; }
int mul(int a, int b) { return a * b; }
int apply(int (*f)(int, int), int x) { return f(x, x + 1); }
int main(void) {
	int (*g)(int, int) = &mul;
	char *s = "abc";
	return apply(add, 2) * 100 + g(4, 5) + s[1];
}
`, `
int g;
int inc(void) { g = g + 1; return g; }
int dbl(void) { g = g * 2; return g; }
int main(void) {
	int (*p)(void) = inc;
	int (*q)(void) = dbl;
	char *t = "xyz";
	return p() + q() + t[2];
}
`}

// TestExploreConcurrent: Explore keeps all interning in per-machine
// state, so concurrent explorations neither race (the race detector
// gates this in CI) nor disturb each other's results.
func TestExploreConcurrent(t *testing.T) {
	opts := ExploreOpts{MaxOrders: 32, Samples: 4, Seed: 1}
	var want []*ExploreResult
	for _, src := range fnPtrProgs {
		want = append(want, explore(t, src, opts))
	}
	const rounds = 4
	got := make([][]*ExploreResult, len(fnPtrProgs))
	errs := make([][]error, len(fnPtrProgs))
	var wg sync.WaitGroup
	for i, src := range fnPtrProgs {
		tu := mustTU(t, src)
		got[i] = make([]*ExploreResult, rounds)
		errs[i] = make([]error, rounds)
		for r := 0; r < rounds; r++ {
			wg.Add(1)
			go func(i, r int) {
				defer wg.Done()
				got[i][r], errs[i][r] = Explore(tu, "main", opts)
			}(i, r)
		}
	}
	wg.Wait()
	for i := range fnPtrProgs {
		for r := 0; r < rounds; r++ {
			if errs[i][r] != nil {
				t.Fatalf("prog %d round %d: %v", i, r, errs[i][r])
			}
			if !reflect.DeepEqual(got[i][r], want[i]) {
				t.Errorf("prog %d round %d: concurrent %+v, sequential %+v", i, r, got[i][r], want[i])
			}
		}
	}
}

// TestFuncAddrDependsOnlyOnProgram: function-pointer values are numbered
// from the translation unit, not from what the process evaluated
// before, so renaming the functions leaves a value built from their
// addresses unchanged.
func TestFuncAddrDependsOnlyOnProgram(t *testing.T) {
	src := `
int first(void) { return 1; }
int second(void) { return 2; }
int main(void) {
	int (*p)(void) = first;
	int (*q)(void) = &second;
	return (int)((long)q - (long)p) * 1000 + (int)(-(long)p);
}
`
	want := explore(t, src, ExploreOpts{})
	if want.UB || len(want.Values) != 1 {
		t.Fatalf("want one defined value, got %+v", want)
	}
	renamed := strings.NewReplacer("first", "uno", "second", "dos").Replace(src)
	if got := explore(t, renamed, ExploreOpts{}); !reflect.DeepEqual(got.Values, want.Values) {
		t.Errorf("renamed program: values %v, want %v", got.Values, want.Values)
	}
}
