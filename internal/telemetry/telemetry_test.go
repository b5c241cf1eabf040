package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

func TestNilSessionIsNoop(t *testing.T) {
	var s *Session
	stop := s.Span("x")
	stop()
	s.Count("c", 1)
	s.AddGauge("g", 2)
	s.SetGauge("g", 3)
	s.Remark(Remark{Pass: "p"})
	if s.MetricsEnabled() || s.TimingEnabled() || s.RemarksEnabled() {
		t.Fatal("nil session reports enabled streams")
	}
	snap := s.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Durations) != 0 || len(snap.Remarks) != 0 {
		t.Fatalf("nil session collected data: %+v", snap)
	}
}

// TestNoopNoAllocs is the acceptance gate for the "zero-overhead
// default": with telemetry off (nil session), the instrumentation call
// pattern used on the driver hot path must not allocate.
func TestNoopNoAllocs(t *testing.T) {
	var s *Session
	allocs := testing.AllocsPerRun(1000, func() {
		stop := s.Span("phase/opt")
		s.Count("aa/queries", 1)
		s.AddGauge("interp/cycles", 42)
		s.Remark(Remark{Pass: "licm", Function: "f", Kind: "LICMHoisted"})
		stop()
	})
	if allocs != 0 {
		t.Fatalf("no-op telemetry allocated %.1f times per op, want 0", allocs)
	}
}

// Disabled streams on a live session must be no-ops too (e.g. -stats
// without -time-passes must not pay for spans).
func TestDisabledStreamNoAllocs(t *testing.T) {
	s := New(Config{Metrics: true})
	allocs := testing.AllocsPerRun(1000, func() {
		stop := s.Span("phase/opt")
		s.Remark(Remark{Pass: "dse", Kind: "StoreDeleted"})
		stop()
	})
	if allocs != 0 {
		t.Fatalf("disabled spans/remarks allocated %.1f times per op, want 0", allocs)
	}
}

func TestNewDisabledReturnsNil(t *testing.T) {
	if s := New(Config{}); s != nil {
		t.Fatal("New with empty config should return the nil no-op sink")
	}
}

func TestCountersGaugesSpansRemarks(t *testing.T) {
	s := New(Config{Metrics: true, Timing: true, Remarks: true})
	s.Count("a", 2)
	s.Count("b", 1)
	s.Count("a", 3)
	s.SetGauge("g", 7)
	s.AddGauge("g", 1)
	stop := s.Span("phase/parse")
	time.Sleep(time.Millisecond)
	stop()
	s.RecordDuration("phase/parse", 2*time.Millisecond)
	s.Remark(Remark{Pass: "licm", Function: "minmax", Kind: "LICMPromoted",
		EnabledByUnseqAA: true, PredicateMeta: 3})

	snap := s.Snapshot()
	if len(snap.Counters) != 2 || snap.Counters[0].Name != "a" || snap.Counters[0].Value != 5 {
		t.Fatalf("counters wrong: %+v", snap.Counters)
	}
	if len(snap.Gauges) != 1 || snap.Gauges[0].Value != 8 {
		t.Fatalf("gauges wrong: %+v", snap.Gauges)
	}
	if len(snap.Durations) != 1 {
		t.Fatalf("durations wrong: %+v", snap.Durations)
	}
	d := snap.Durations[0]
	if d.Name != "phase/parse" || d.Count != 2 || d.TotalNS < int64(3*time.Millisecond) {
		t.Fatalf("span accumulation wrong: %+v", d)
	}
	var nb int64
	for _, b := range d.Buckets {
		nb += b
	}
	if nb != 2 {
		t.Fatalf("histogram bucket counts = %d, want 2", nb)
	}
	if len(snap.Remarks) != 1 || !snap.Remarks[0].EnabledByUnseqAA {
		t.Fatalf("remarks wrong: %+v", snap.Remarks)
	}
}

func TestSnapshotDiff(t *testing.T) {
	s := New(Config{Metrics: true, Timing: true, Remarks: true})
	s.Count("q", 10)
	s.RecordDuration("p", time.Millisecond)
	s.Remark(Remark{Pass: "dse", Kind: "StoreDeleted"})
	before := s.Snapshot()

	s.Count("q", 5)
	s.Count("r", 1)
	s.RecordDuration("p", time.Millisecond)
	s.Remark(Remark{Pass: "licm", Kind: "LICMHoisted"})
	diff := s.Snapshot().Diff(before)

	got := map[string]int64{}
	for _, c := range diff.Counters {
		got[c.Name] = c.Value
	}
	if got["q"] != 5 || got["r"] != 1 || len(diff.Counters) != 2 {
		t.Fatalf("counter diff wrong: %+v", diff.Counters)
	}
	if len(diff.Durations) != 1 || diff.Durations[0].Count != 1 {
		t.Fatalf("duration diff wrong: %+v", diff.Durations)
	}
	if len(diff.Remarks) != 1 || diff.Remarks[0].Pass != "licm" {
		t.Fatalf("remark diff wrong: %+v", diff.Remarks)
	}
}

func TestExporters(t *testing.T) {
	s := New(Config{Metrics: true, Timing: true, Remarks: true})
	s.Count("aa/unseq_noalias", 4)
	s.SetGauge("interp/cycles", 1234.5)
	s.RecordDuration("phase/opt", 3*time.Millisecond)
	s.Remark(Remark{Pass: "vectorize", Function: "kernel", Loc: "for.header",
		Kind: "LoopVectorized", EnabledByUnseqAA: true, PredicateMeta: 7})
	snap := s.Snapshot()

	var txt bytes.Buffer
	if err := WriteText(&txt, snap); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"phase/opt", "aa/unseq_noalias", "LoopVectorized", "unseq-aa, pred #7"} {
		if !strings.Contains(txt.String(), want) {
			t.Fatalf("text export missing %q:\n%s", want, txt.String())
		}
	}

	var js bytes.Buffer
	if err := WriteJSON(&js, snap); err != nil {
		t.Fatal(err)
	}
	var round Snapshot
	if err := json.Unmarshal(js.Bytes(), &round); err != nil {
		t.Fatalf("JSON export not valid: %v", err)
	}
	if len(round.Remarks) != 1 || !round.Remarks[0].EnabledByUnseqAA || round.Remarks[0].PredicateMeta != 7 {
		t.Fatalf("JSON round trip lost remark attribution: %+v", round.Remarks)
	}
	if !strings.Contains(js.String(), `"enabledByUnseqAA": true`) {
		t.Fatalf("JSON missing enabledByUnseqAA field:\n%s", js.String())
	}

	var prom bytes.Buffer
	if err := WritePrometheus(&prom, snap); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE ooelala_aa_unseq_noalias counter",
		"ooelala_aa_unseq_noalias 4",
		"# TYPE ooelala_phase_seconds histogram",
		`ooelala_phase_seconds_bucket{phase="phase/opt",le="+Inf"} 1`,
		"ooelala_remarks_unseq_enabled_total 1",
	} {
		if !strings.Contains(prom.String(), want) {
			t.Fatalf("prometheus export missing %q:\n%s", want, prom.String())
		}
	}
}

func BenchmarkNoopSpanAndCount(b *testing.B) {
	var s *Session
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		stop := s.Span("phase/opt")
		s.Count("aa/queries", 1)
		stop()
	}
}

// TestWriteTextSpanShares checks that -time-passes counts no time twice:
// top-level spans are shares of their own sum, and nested spans
// (phase/parse/cpp, pass/*) are indented shares of their parent.
func TestWriteTextSpanShares(t *testing.T) {
	ms := func(n int64) int64 { return n * int64(time.Millisecond) }
	snap := &Snapshot{Durations: []DurationStat{
		{Name: "phase/parse", Count: 1, TotalNS: ms(200)},
		{Name: "phase/parse/cpp", Count: 1, TotalNS: ms(50)},
		{Name: "phase/parse/syntax", Count: 1, TotalNS: ms(150)},
		{Name: "pass/earlycse", Count: 4, TotalNS: ms(250)},
		{Name: "pass/licm", Count: 2, TotalNS: ms(125)},
		{Name: "phase/opt", Count: 1, TotalNS: ms(500)},
		{Name: "phase/run", Count: 1, TotalNS: ms(200)},
		{Name: "phase/verify", Count: 1, TotalNS: ms(1)},
	}}
	var txt bytes.Buffer
	if err := WriteText(&txt, snap); err != nil {
		t.Fatal(err)
	}
	type row struct {
		indent int
		pct    float64
	}
	rows := map[string]row{}
	var order []string
	topSum := 0.0
	for _, line := range strings.Split(txt.String(), "\n")[1:] {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		var pct float64
		if _, err := fmt.Sscanf(f[2], "%f%%", &pct); err != nil {
			t.Fatalf("no share in %q: %v", line, err)
		}
		r := row{indent: len(line) - len(strings.TrimLeft(line, " ")), pct: pct}
		rows[f[0]] = r
		order = append(order, f[0])
		if r.indent == 2 {
			topSum += pct
		}
	}
	if math.Abs(topSum-100) > 0.1 {
		t.Fatalf("top-level shares sum to %.2f%%, want 100:\n%s", topSum, txt.String())
	}
	want := map[string]row{
		"phase/parse":        {2, 22.2},
		"phase/parse/cpp":    {4, 25},
		"phase/parse/syntax": {4, 75},
		"phase/opt":          {2, 55.5},
		"pass/earlycse":      {4, 50},
		"pass/licm":          {4, 25},
		"phase/run":          {2, 22.2},
		"phase/verify":       {2, 0.1},
	}
	for name, w := range want {
		if got, ok := rows[name]; !ok || got.indent != w.indent || math.Abs(got.pct-w.pct) > 0.05 {
			t.Errorf("%s: got %+v, want %+v", name, got, w)
		}
	}
	// Children print right under their parent, in first-seen order, after
	// the parent's (self) row.
	wantOrder := []string{"phase/parse", "(self)", "phase/parse/cpp", "phase/parse/syntax",
		"phase/opt", "(self)", "pass/earlycse", "pass/licm", "phase/run", "phase/verify"}
	if strings.Join(order, " ") != strings.Join(wantOrder, " ") {
		t.Errorf("row order %v, want %v", order, wantOrder)
	}
	if t.Failed() {
		t.Logf("report:\n%s", txt.String())
	}
}

func TestMergeMetrics(t *testing.T) {
	parent := New(Config{Metrics: true, Timing: true})
	child := New(Config{Metrics: true, Timing: true, Remarks: true, Audit: true})
	child.Count("aa/queries", 5)
	child.SetGauge("g", 3)
	child.RecordDuration("phase/opt", 2*time.Millisecond)
	child.Remark(Remark{Pass: "licm", Kind: "LICMPromoted"})
	child.RecordAliasQuery(AliasQuery{LocA: "a", LocB: "b", Result: "NoAlias"})

	parent.Count("aa/queries", 1)
	parent.MergeMetrics(child)

	snap := parent.Snapshot()
	got := map[string]int64{}
	for _, c := range snap.Counters {
		got[c.Name] = c.Value
	}
	if got["aa/queries"] != 6 {
		t.Errorf("aa/queries = %d, want 6", got["aa/queries"])
	}
	if len(snap.Gauges) != 1 || snap.Gauges[0].Value != 3 {
		t.Errorf("gauges = %+v, want g=3", snap.Gauges)
	}
	if len(snap.Durations) != 1 || snap.Durations[0].Count != 1 {
		t.Errorf("durations = %+v, want one phase/opt sample", snap.Durations)
	}
	// The unbounded streams must stay behind: MergeMetrics is the fan-in
	// for long-running servers, where remarks/audit would leak.
	if len(snap.Remarks) != 0 {
		t.Errorf("MergeMetrics leaked %d remarks into the parent", len(snap.Remarks))
	}
	if len(snap.AliasQueries) != 0 || snap.AliasQueriesTotal != 0 {
		t.Errorf("MergeMetrics leaked audit state: %d entries, total %d",
			len(snap.AliasQueries), snap.AliasQueriesTotal)
	}

	// Unlike Merge, the child need not be a fork of the parent, and nil
	// on either side is a no-op.
	parent.MergeMetrics(nil)
	(*Session)(nil).MergeMetrics(child)
}

// TestWriteTextSelfRows checks the (self) rows: every span with children
// gets one, indented with the children, and self plus the children's
// times equals the parent's time.
func TestWriteTextSelfRows(t *testing.T) {
	ms := func(n int64) int64 { return n * int64(time.Millisecond) }
	snap := &Snapshot{Durations: []DurationStat{
		{Name: "phase/parse", Count: 1, TotalNS: ms(200)},
		{Name: "phase/parse/cpp", Count: 1, TotalNS: ms(50)},
		{Name: "phase/parse/syntax", Count: 1, TotalNS: ms(120)},
		{Name: "phase/opt", Count: 1, TotalNS: ms(500)},
		{Name: "pass/earlycse", Count: 4, TotalNS: ms(250)},
		{Name: "pass/licm", Count: 2, TotalNS: ms(125)},
		{Name: "phase/run", Count: 1, TotalNS: ms(200)},
	}}
	var txt bytes.Buffer
	if err := WriteText(&txt, snap); err != nil {
		t.Fatal(err)
	}
	type row struct {
		name   string
		indent int
		dur    time.Duration
		pct    float64
	}
	var rows []row
	for _, line := range strings.Split(txt.String(), "\n")[1:] {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		d, err := time.ParseDuration(f[1])
		if err != nil {
			t.Fatalf("no duration in %q: %v", line, err)
		}
		var pct float64
		if _, err := fmt.Sscanf(f[2], "%f%%", &pct); err != nil {
			t.Fatalf("no share in %q: %v", line, err)
		}
		rows = append(rows, row{f[0], len(line) - len(strings.TrimLeft(line, " ")), d, pct})
	}
	wantSelf := map[string]struct {
		dur time.Duration
		pct float64
	}{
		"phase/parse": {30 * time.Millisecond, 15},
		"phase/opt":   {125 * time.Millisecond, 25},
	}
	selfRows := 0
	for i, r := range rows {
		var kids []row
		for _, k := range rows[i+1:] {
			if k.indent <= r.indent {
				break
			}
			if k.indent == r.indent+2 {
				kids = append(kids, k)
			}
		}
		w, hasKids := wantSelf[r.name]
		if !hasKids {
			if len(kids) > 0 {
				t.Errorf("%s: unexpected nested rows %v", r.name, kids)
			}
			continue
		}
		if len(kids) == 0 || kids[0].name != "(self)" {
			t.Errorf("%s: first nested row is not (self): %v", r.name, kids)
			continue
		}
		selfRows++
		if kids[0].dur != w.dur || math.Abs(kids[0].pct-w.pct) > 0.05 {
			t.Errorf("%s (self) = %v %.1f%%, want %v %.1f%%", r.name, kids[0].dur, kids[0].pct, w.dur, w.pct)
		}
		var sum time.Duration
		for _, k := range kids {
			sum += k.dur
		}
		if sum != r.dur {
			t.Errorf("%s: self plus children = %v, want the parent's %v", r.name, sum, r.dur)
		}
	}
	if selfRows != len(wantSelf) {
		t.Errorf("found %d (self) rows, want %d:\n%s", selfRows, len(wantSelf), txt.String())
	}
}
