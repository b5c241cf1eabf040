package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// env is what every workload receives from the command line.
type env struct {
	seed    int64
	seconds float64
	// root is the checkout root (holds BENCH_ooebench.json).
	root string
	// refDirs are searched for csem reference files.
	refDirs []string
	// cacheDir receives span dumps.
	cacheDir string
	// repeatEvery makes every repeatEvery-th serve-replay request a
	// repeat.
	repeatEvery int
}

// benchWorkload is one benchmark workload: measure is the end-to-end run
// (tracing off), traced the per-layer run.
type benchWorkload struct {
	measure func(*env) (*report, error)
	traced  func(*env) (*report, error)
}

var workloads = map[string]benchWorkload{
	"spec-compile": {measure: measureSpec, traced: tracedSpec},
	"kernels-run":  {measure: measureKernels, traced: tracedKernels},
	"serve-replay": {measure: measureServe, traced: tracedServe},
}

// spanPath is where a traced run writes its spans.
func spanPath(e *env, workload string) string {
	return filepath.Join(e.cacheDir, "spans", fmt.Sprintf("%s-%d.jsonl", workload, e.seed))
}

// nproc is the worker count the compile workloads and the service use.
var nproc = runtime.NumCPU()

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newReport() *report { return &report{Metrics: map[string]metric{}} }

// set records a metric in the unit metrics.go defines for it.
func (r *report) set(name string, v float64) {
	unit, ok := metricUnits[name]
	if !ok {
		panic("wallbench: undefined metric " + name)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// tally counts attempted and failed operations; failures are also
// described on standard error (the first few of them).
type tally struct {
	attempted, failed int
	logged            int
}

func (t *tally) fail(err error) {
	t.failed++
	if t.logged < 20 {
		t.logged++
		fmt.Fprintln(os.Stderr, "wallbench: FAIL:", err)
	}
}

// check records one attempted operation that failed if err is non-nil.
func (t *tally) check(err error) {
	t.attempted++
	if err != nil {
		t.fail(err)
	}
}

// finish fills the report's correctness fields.
func (t *tally) finish(r *report) *report {
	r.Attempted, r.Failed = t.attempted, t.failed
	if r.Attempted == 0 {
		r.Attempted = 1
		r.Failed = 1
	}
	r.Correct = r.Failed == 0
	return r
}

// Set-up repetitions: setup_s is the median of this many set-ups. The
// serve set-up compiles the whole base corpus, so it repeats less.
const (
	corpusSetupReps = 5
	serveSetupReps  = 3
)

// repeatSetup runs setup reps times and returns the last result with
// the median duration in seconds.
func repeatSetup[T any](reps int, setup func() (T, error)) (T, float64, error) {
	var (
		last T
		durs []float64
	)
	for i := 0; i < reps; i++ {
		runtime.GC()
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		durs = append(durs, time.Since(t0).Seconds())
		last = v
	}
	return last, median(durs), nil
}

// quantile is the q-quantile of xs by linear interpolation between
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// latencies adds a throughput metric (rate, operations per second over
// elapsed) and the median and 99th-percentile latency (ms_p50, ms_p99).
func latencies(r *report, rate, msName string, lat []float64, elapsed time.Duration) {
	r.set(rate, float64(len(lat))/elapsed.Seconds())
	r.set(msName+"_p50", quantile(lat, 0.50))
	r.set(msName+"_p99", quantile(lat, 0.99))
}

// memWindow measures the Go runtime over an interval.
type memWindow struct {
	alloc0  uint64
	gc0     uint32
	gcCPU0  float64
	allCPU0 float64
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func cpuSeconds() (gc, total float64) {
	metrics.Read(cpuSamples)
	return cpuSamples[0].Value.Float64(), cpuSamples[1].Value.Float64()
}

func startMem() memWindow {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w := memWindow{alloc0: ms.TotalAlloc, gc0: ms.NumGC}
	w.gcCPU0, w.allCPU0 = cpuSeconds()
	return w
}

// memDelta is what the runtime did during a window.
type memDelta struct {
	allocMB   float64
	gcCycles  float64
	gcCPUFrac float64
}

func (w memWindow) stop() memDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc, all := cpuSeconds()
	return memDelta{
		allocMB:   float64(ms.TotalAlloc-w.alloc0) / (1 << 20),
		gcCycles:  float64(ms.NumGC - w.gc0),
		gcCPUFrac: ratio(gc-w.gcCPU0, all-w.allCPU0),
	}
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// memoryMetrics adds alloc_mb_per_unit and peak_rss_mb.
func memoryMetrics(r *report, d memDelta, units int) {
	r.set("alloc_mb_per_unit", ratio(d.allocMB, float64(units)))
	r.set("peak_rss_mb", peakRSSMB())
}

// runtimeMetrics adds the runtime.* per-layer metrics.
func runtimeMetrics(r *report, d memDelta) {
	r.set("runtime.alloc_mb", d.allocMB)
	r.set("runtime.gc_cpu_share", d.gcCPUFrac)
	r.set("runtime.gc_cycles", d.gcCycles)
}

// trajectory is the part of BENCH_ooebench.json the benchmark checks.
type trajectory struct {
	Table4 []struct {
		Kernel  string  `json:"kernel"`
		Speedup float64 `json:"speedup"`
	} `json:"table4"`
	Table6 []struct {
		Bench         string  `json:"bench"`
		CyclesBase    float64 `json:"cyclesBase"`
		CyclesOOElala float64 `json:"cyclesOOElala"`
	} `json:"table6"`
}

func loadTrajectory(root string) (*trajectory, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCH_ooebench.json"))
	if err != nil {
		return nil, err
	}
	var t trajectory
	if err := json.Unmarshal(b, &t); err != nil {
		return nil, fmt.Errorf("BENCH_ooebench.json: %w", err)
	}
	return &t, nil
}

// geomean is the geometric mean of xs.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}
