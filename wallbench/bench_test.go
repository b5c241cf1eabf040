package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/driver"
	"repro/internal/serve"
	"repro/internal/serve/cache"
	"repro/internal/workload"
)

func testEnv(t *testing.T, seed int64) *env {
	t.Helper()
	dir := t.TempDir()
	return &env{seed: seed, seconds: 0.1, root: "..", refDirs: []string{"refs"}, cacheDir: dir, repeatEvery: defaultRepeatEvery}
}

func TestSeedGivesSameInputDigest(t *testing.T) {
	for _, seed := range []int64{0, 7} {
		a, b := specCorpus(seed), specCorpus(seed)
		if inputDigest(a, order(len(a), seed)) != inputDigest(b, order(len(b), seed)) {
			t.Errorf("seed %d: spec corpus digest differs between two generations", seed)
		}
		s1, s2 := newStream(a, seed, defaultRepeatEvery), newStream(b, seed, defaultRepeatEvery)
		for i := 0; i < 200; i++ {
			x, y := s1.next(), s2.next()
			if x.repeat != y.repeat || x.req.Source != y.req.Source {
				t.Fatalf("seed %d: stream request %d differs", seed, i)
			}
		}
	}
	k := kernelCorpus()
	if inputDigest(k, order(len(k), 3)) != inputDigest(kernelCorpus(), order(len(k), 3)) {
		t.Error("kernel digest differs between two generations")
	}
}

func TestSeedsDrawDifferentCorpora(t *testing.T) {
	count := func(us []unit) map[string]int {
		m := map[string]int{}
		for _, u := range us {
			m[u.Bench]++
		}
		return m
	}
	zero := specCorpus(0)
	var want []workload.Program
	for _, b := range workload.SpecSuite() {
		want = append(want, workload.GenerateUnits(b)...)
	}
	if len(zero) != len(want) {
		t.Fatalf("seed 0 has %d units, GenerateUnits %d", len(zero), len(want))
	}
	for i := range want {
		if zero[i].Name != want[i].Name || zero[i].Source != want[i].Source {
			t.Fatalf("seed 0 unit %d is not GenerateUnits' %s", i, want[i].Name)
		}
	}
	seen := map[string]int64{}
	for _, seed := range []int64{0, 1, 2, 3} {
		c := specCorpus(seed)
		if !reflect.DeepEqual(count(c), count(zero)) {
			t.Errorf("seed %d: unit counts %v, seed 0 %v", seed, count(c), count(zero))
		}
		d := inputDigest(c, order(len(c), 0))
		if prev, ok := seen[d]; ok {
			t.Errorf("seeds %d and %d give the same sources", prev, seed)
		}
		seen[d] = seed
	}
	if k := kernelCorpus(); inputDigest(k, order(len(k), 1)) == inputDigest(k, order(len(k), 2)) {
		t.Error("seeds 1 and 2 give the same kernel order")
	}
}

// TestEverySeedFindsCommittedRefs checks that every seed draws one of
// the corpora whose csem references are committed, so no run computes a
// reference, and that seeds specSeeds apart share a corpus but not an
// order.
func TestEverySeedFindsCommittedRefs(t *testing.T) {
	refs, err := loadRefs("refs")
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{0, 31, 32, 45, -1, -32, 1<<62 + 7} {
		if c := corpusSeed(seed); c < 0 || c >= specSeeds || (c-seed)%specSeeds != 0 {
			t.Errorf("seed %d draws corpus %d", seed, c)
		}
	}
	for c := int64(0); c < specSeeds; c++ {
		for _, u := range specCorpus(c) {
			if _, ok := refs[u.SHA]; !ok {
				t.Fatalf("corpus %d: no committed reference for %s", c, u.Name)
			}
		}
	}
	for _, u := range kernelCorpus() {
		if _, ok := refs[u.SHA]; !ok {
			t.Fatalf("no committed reference for kernel %s", u.Name)
		}
	}
	a, b := specCorpus(corpusSeed(3)), specCorpus(corpusSeed(3+specSeeds))
	if inputDigest(a, order(len(a), 3)) == inputDigest(b, order(len(b), 3+specSeeds)) {
		t.Error("seeds 3 and 35 give the same inputs")
	}
}

// TestPassWrapperKeepsOutput checks the staged, traced layer calls
// (including the wrapped pipeline on several workers) build the same IR
// as driver.Compile.
func TestPassWrapperKeepsOutput(t *testing.T) {
	units := append(specCorpus(0)[:3], kernelCorpus()...)
	rec := newRecorder()
	for _, u := range units {
		for _, ooelala := range []bool{false, true} {
			for _, jobs := range []int{1, 4} {
				c, err := compileUnit(u, ooelala, jobs)
				if err != nil {
					t.Fatal(err)
				}
				mod, _, err := stagedCompile(rec, u.Name, u.Source, ooelala, jobs)
				if err != nil {
					t.Fatal(err)
				}
				if mod.String() != c.Module.String() {
					t.Errorf("%s ooelala=%v jobs=%d: traced IR differs from driver.Compile", u.Name, ooelala, jobs)
				}
			}
		}
	}
	lt := rec.times()
	if lt.calls["pass.earlycse"] == 0 || lt.calls["cpp"] != 4*len(units) {
		t.Errorf("spans: %d earlycse calls, %d cpp calls", lt.calls["pass.earlycse"], lt.calls["cpp"])
	}
}

func TestWrongReferenceRaisesFailures(t *testing.T) {
	e := testEnv(t, 1)
	good, err := measureKernels(e)
	if err != nil {
		t.Fatal(err)
	}
	if good.Failed != 0 || !good.Correct {
		t.Fatalf("with the committed references: %d of %d failed", good.Failed, good.Attempted)
	}
	// A reference set where bicg's checksum is off by one.
	refs, err := loadRefs("refs")
	if err != nil {
		t.Fatal(err)
	}
	bad := refSet{}
	for k, v := range refs {
		if v.Unit == "bicg" {
			v.Value++
		}
		bad[k] = v
	}
	dir := t.TempDir()
	if err := writeRefs(filepath.Join(dir, "refs.json"), bad); err != nil {
		t.Fatal(err)
	}
	e.refDirs = []string{dir}
	r, err := measureKernels(e)
	if err != nil {
		t.Fatal(err)
	}
	if r.Failed == 0 || r.Correct {
		t.Fatalf("a wrong bicg reference went unnoticed: %d of %d failed", r.Failed, r.Attempted)
	}
}

func TestSeed0MatchesTrajectory(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and runs the whole SPEC-shaped corpus")
	}
	r, err := measureSpec(testEnv(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	if r.Failed != 0 {
		t.Fatalf("%d of %d checks failed (Table 6 cycles or csem references)", r.Failed, r.Attempted)
	}
}

func TestEditsAreSingleLiteralChangesThatCompile(t *testing.T) {
	base := append(specCorpus(2)[:4], kernelCorpus()[:2]...)
	s := newStream(base, 2, defaultRepeatEvery)
	seen := map[string]bool{}
	for _, u := range base {
		seen[u.Source] = true
	}
	edits := 0
	for i := 0; i < 40; i++ {
		sr := s.next()
		orig := base[sr.base].Source
		if sr.repeat {
			if !seen[sr.req.Source] {
				t.Fatalf("request %d: a repeat of a source never sent", i)
			}
			continue
		}
		edits++
		if seen[sr.req.Source] {
			t.Fatalf("request %d: edit repeats an earlier source", i)
		}
		seen[sr.req.Source] = true
		if d := lineDiff(orig, sr.req.Source); d != 1 {
			t.Fatalf("request %d: edit changed %d lines", i, d)
		}
		if _, err := driver.Compile(sr.req.Name, sr.req.Source, driver.Config{OOElala: true, Files: workload.Files(), Jobs: 1}); err != nil {
			t.Fatalf("request %d: edit does not compile: %v", i, err)
		}
	}
	if edits == 0 {
		t.Fatal("no edits drawn")
	}
}

// TestRepeatsHitWithManyClients replays the stream, at the default repeat
// share and at one half, with many closed-loop clients against the
// service's cache at the benchmark's capacity. A random delay before each
// lookup lets a client fall behind the others, as on a busy host; every
// repeat must still be answered by the cache and every edit must still
// miss.
func TestRepeatsHitWithManyClients(t *testing.T) {
	defer func(n int) { clients = n }(clients)
	clients = 32
	base := kernelCorpus()
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(1))
	jitter := func(lo, hi time.Duration) time.Duration {
		mu.Lock()
		defer mu.Unlock()
		return lo + time.Duration(rng.Int63n(int64(hi-lo)))
	}
	for _, every := range []int{2, defaultRepeatEvery} {
		c := cache.New(cacheCapacity(len(base)), nil)
		send := func(req serve.CompileRequest) reply {
			time.Sleep(jitter(0, 300*time.Microsecond))
			sum := sha256.Sum256([]byte(req.Source))
			_, hit, err := c.GetOrCompute(cache.Key(sum), func() ([]byte, error) {
				time.Sleep(jitter(time.Millisecond, 3*time.Millisecond))
				return sum[:], nil
			})
			d := hex.EncodeToString(sum[:])
			return reply{hit: hit, key: d, digest: d, err: err}
		}
		fill := fillCache(base, func(u unit) reply { return send(baseRequest(u)) })
		s := newStream(base, 1, every)
		sent, replies, _ := closedLoop(fixed(2000, func(int) streamReq { return s.next() }), func(sr streamReq) reply { return send(sr.req) })
		var tl tally
		integrity(&tl, fill, sent, replies)
		if tl.failed != 0 {
			t.Fatalf("every %d: %d of %d integrity checks failed with %d clients", every, tl.failed, tl.attempted, clients)
		}
	}
}

func lineDiff(a, b string) int {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	if len(la) != len(lb) {
		return -1
	}
	n := 0
	for i := range la {
		if la[i] != lb[i] {
			n++
		}
	}
	return n
}

func TestCoveredUnionsOverlappingChildren(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	parent := span{Start: ms(0), End: ms(100)}
	kids := []span{
		{Start: ms(10), End: ms(40)},
		{Start: ms(30), End: ms(50)},  // overlaps the first
		{Start: ms(90), End: ms(120)}, // clipped to the parent
	}
	if got := covered(parent, kids); got != ms(50) {
		t.Fatalf("covered = %v, want 50ms", got)
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the reported
// metric sets in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, sortedKeys(workloads)) {
		t.Errorf("workloads %v, code %v", names, sortedKeys(workloads))
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, code %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: %s/%s, code %s/%s", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndMetrics)
	same("per_layer", spec.PerLayer, perLayerMetrics())
}

// inputDigest is the SHA-256 over the names and sources of units in
// the order given, so it pins both the corpus and its visiting order.
func inputDigest(units []unit, ord []int) string {
	h := sha256.New()
	for _, i := range ord {
		fmt.Fprintf(h, "%s\x00%s\x00", units[i].Name, units[i].SHA)
	}
	return hex.EncodeToString(h.Sum(nil))
}
