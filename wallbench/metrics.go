package main

import (
	"reflect"

	"repro/internal/passes"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEndMetrics are reported by every workload with tracing off.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"units_per_s", "1/s"},
	{"unit_ms_p50", "ms"},
	{"unit_ms_p99", "ms"},
	{"req_per_s", "1/s"},
	{"req_ms_p50", "ms"},
	{"req_ms_p99", "ms"},
	{"sim_cycles_ooe", "cycles"},
	{"sim_speedup_geomean", "ratio"},
	{"alloc_mb_per_unit", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayerMetrics are reported by every workload's traced run; a layer
// the workload does not exercise reports 0.
func perLayerMetrics() []metricDef {
	defs := []metricDef{
		{"cpp.ms", "ms"}, {"cpp.tokens_per_s", "1/s"},
		{"parser.ms", "ms"}, {"parser.tokens_per_s", "1/s"},
		{"sema.ms", "ms"},
		{"ooe.ms", "ms"}, {"ooe.full_exprs", "count"}, {"ooe.preds_initial", "count"},
		{"irgen.ms", "ms"}, {"irgen.instrs", "count"},
		{"passes.ms", "ms"}, {"passes.self_ms", "ms"}, {"passes.instrs_after", "count"},
		{"passes.parallel_eff", "ratio"},
	}
	for _, n := range passes.RegisteredPasses() {
		defs = append(defs, metricDef{"pass." + n + ".ms", "ms"}, metricDef{"pass." + n + ".calls", "count"})
	}
	for _, f := range optFields(passes.Stats{}) {
		defs = append(defs, metricDef{"opt." + f.name, "count"})
	}
	defs = append(defs,
		metricDef{"aa.queries", "count"}, metricDef{"aa.noalias_ratio", "ratio"},
		metricDef{"aa.unseq_noalias", "count"}, metricDef{"aa.summary_noalias", "count"},
		metricDef{"ir.verify_ms", "ms"},
		metricDef{"vm.compile_ms", "ms"}, metricDef{"vm.run_ms", "ms"},
		metricDef{"vm.ns_per_cycle", "ns"}, metricDef{"vm.ns_per_instr", "ns"},
		metricDef{"vm.cycles", "count"},
		metricDef{"serve.key_us", "us"}, metricDef{"serve.hit_us", "us"},
		metricDef{"serve.miss_ms", "ms"}, metricDef{"serve.artifact_kb", "KB"},
		metricDef{"serve.overhead_ratio", "ratio"}, metricDef{"serve.hit_ratio", "ratio"},
		metricDef{"serve.lane_wait_ms", "ms"}, metricDef{"serve.unchanged_func_share", "ratio"},
		metricDef{"runtime.alloc_mb", "MB"}, metricDef{"runtime.gc_cpu_share", "ratio"},
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"bench.trace_overhead", "ratio"},
		metricDef{"failed_ratio", "ratio"},
	)
	return defs
}

// metricUnits maps every defined metric to its unit.
var metricUnits = func() map[string]string {
	m := map[string]string{}
	for _, d := range append(endToEndMetrics, perLayerMetrics()...) {
		m[d.name] = d.unit
	}
	return m
}()

// complete sets every metric of defs the report lacks to 0, so each
// workload prints the full set, and checks the report holds no other.
func (r *report) complete(defs []metricDef) {
	for _, d := range defs {
		if _, ok := r.Metrics[d.name]; !ok {
			r.set(d.name, 0)
		}
	}
	for name := range r.Metrics {
		if !hasMetric(defs, name) {
			panic("wallbench: metric " + name + " does not belong in this report")
		}
	}
}

func hasMetric(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.name == name {
			return true
		}
	}
	return false
}

// optField is one passes.Stats counter.
type optField struct {
	name  string
	value int
}

// optFields lists every passes.Stats counter by field name.
func optFields(s passes.Stats) []optField {
	v := reflect.ValueOf(s)
	out := make([]optField, v.NumField())
	for i := range out {
		out[i] = optField{v.Type().Field(i).Name, int(v.Field(i).Int())}
	}
	return out
}
