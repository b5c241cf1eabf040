package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"
)

// WriteText renders a snapshot for humans: non-empty sections only, in
// the LLVM -time-passes / -stats spirit.
func WriteText(w io.Writer, snap *Snapshot) error {
	if snap == nil {
		return nil
	}
	if len(snap.Durations) > 0 {
		fmt.Fprintln(w, "=== Phase timing (wall clock; nested spans as % of parent; (self) = parent minus its children) ===")
		writeSpanTree(w, snap.Durations)
	}
	if len(snap.Counters) > 0 {
		fmt.Fprintln(w, "=== Counters ===")
		for _, c := range snap.Counters {
			fmt.Fprintf(w, "  %-32s %12d\n", c.Name, c.Value)
		}
	}
	if len(snap.Gauges) > 0 {
		fmt.Fprintln(w, "=== Gauges ===")
		for _, g := range snap.Gauges {
			fmt.Fprintf(w, "  %-32s %14.2f\n", g.Name, g.Value)
		}
	}
	if len(snap.Remarks) > 0 {
		fmt.Fprintln(w, "=== Optimization remarks ===")
		for _, r := range snap.Remarks {
			attr := ""
			if r.EnabledByUnseqAA {
				attr = fmt.Sprintf("  [unseq-aa, pred #%d]", r.PredicateMeta)
			}
			loc := ""
			if r.Loc != "" {
				loc = " @" + r.Loc
			}
			fmt.Fprintf(w, "  %s: %s%s: %s%s\n", r.Pass, r.Function, loc, r.Kind, attr)
		}
	}
	return nil
}

// spanParent names the span that encloses name, or "" for a top-level
// span. A hierarchical name nests under its longest path prefix that was
// also recorded (phase/parse/cpp under phase/parse), and pass/* spans
// nest under phase/opt, the optimizer phase that runs them.
func spanParent(name string, recorded map[string]bool) string {
	for p := name; ; {
		i := strings.LastIndexByte(p, '/')
		if i < 0 {
			break
		}
		p = p[:i]
		if recorded[p] {
			return p
		}
	}
	if strings.HasPrefix(name, "pass/") && recorded["phase/opt"] {
		return "phase/opt"
	}
	return ""
}

// writeSpanTree prints the spans as a tree in first-seen order. Each
// nested span is indented under its parent and shown as a share of the
// parent's time; top-level spans are shown as shares of their own sum,
// so no time is counted twice. A span with children gets a (self) row
// first: its time minus its children's, the part no nested span covers
// (for phase/opt, the scheduler, the analysis manager and fork/merge).
// Children that ran in parallel can sum past their parent, which makes
// (self) negative.
func writeSpanTree(w io.Writer, durs []DurationStat) {
	recorded := make(map[string]bool, len(durs))
	for _, d := range durs {
		recorded[d.Name] = true
	}
	children := map[string][]DurationStat{}
	var top time.Duration
	for _, d := range durs {
		p := spanParent(d.Name, recorded)
		children[p] = append(children[p], d)
		if p == "" {
			top += d.Total()
		}
	}
	share := func(part, total time.Duration) float64 {
		if total <= 0 {
			return 0
		}
		return 100 * float64(part) / float64(total)
	}
	var walk func(parent string, total time.Duration, depth int)
	walk = func(parent string, total time.Duration, depth int) {
		kids := children[parent]
		if parent != "" && len(kids) > 0 {
			self := total
			for _, d := range kids {
				self -= d.Total()
			}
			fmt.Fprintf(w, "  %*s%-*s %12v  %5.1f%%\n",
				2*depth, "", max(26-2*depth, 0), "(self)",
				self.Round(time.Microsecond), share(self, total))
		}
		for _, d := range kids {
			fmt.Fprintf(w, "  %*s%-*s %12v  %5.1f%%  (%d× , max %v)\n",
				2*depth, "", max(26-2*depth, 0), d.Name,
				d.Total().Round(time.Microsecond), share(d.Total(), total), d.Count,
				time.Duration(d.MaxNS).Round(time.Microsecond))
			walk(d.Name, d.Total(), depth+1)
		}
	}
	walk("", top, 0)
}

// WriteJSON renders a snapshot as machine-readable JSON.
func WriteJSON(w io.Writer, snap *Snapshot) error {
	if snap == nil {
		snap = &Snapshot{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}

// promName maps a metric name onto the Prometheus charset, prefixed
// with the exporter namespace.
func promName(name string) string {
	var b strings.Builder
	b.WriteString("ooelala_")
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_',
			c >= '0' && c <= '9' && b.Len() > 0:
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

func promLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// WritePrometheus renders a snapshot in the Prometheus text exposition
// format: each counter/gauge becomes its own metric, and duration
// accumulators become one labeled histogram, ooelala_phase_seconds.
func WritePrometheus(w io.Writer, snap *Snapshot) error {
	if snap == nil {
		return nil
	}
	for _, c := range snap.Counters {
		n := promName(c.Name)
		fmt.Fprintf(w, "# HELP %s ooelala counter %s\n# TYPE %s counter\n%s %d\n",
			n, c.Name, n, n, c.Value)
	}
	for _, g := range snap.Gauges {
		n := promName(g.Name)
		fmt.Fprintf(w, "# HELP %s ooelala gauge %s\n# TYPE %s gauge\n%s %g\n",
			n, g.Name, n, n, g.Value)
	}
	if len(snap.Durations) > 0 {
		fmt.Fprintf(w, "# HELP ooelala_phase_seconds compiler phase/pass wall-clock histogram\n")
		fmt.Fprintf(w, "# TYPE ooelala_phase_seconds histogram\n")
		for _, d := range snap.Durations {
			lbl := promLabel(d.Name)
			cum := int64(0)
			for i, b := range bucketBounds {
				cum += d.Buckets[i]
				fmt.Fprintf(w, "ooelala_phase_seconds_bucket{phase=%q,le=%q} %d\n",
					lbl, formatSeconds(b), cum)
			}
			cum += d.Buckets[NumBuckets-1]
			fmt.Fprintf(w, "ooelala_phase_seconds_bucket{phase=%q,le=\"+Inf\"} %d\n", lbl, cum)
			fmt.Fprintf(w, "ooelala_phase_seconds_sum{phase=%q} %g\n", lbl, d.Total().Seconds())
			fmt.Fprintf(w, "ooelala_phase_seconds_count{phase=%q} %d\n", lbl, d.Count)
		}
	}
	if len(snap.Remarks) > 0 {
		unseq := 0
		for _, r := range snap.Remarks {
			if r.EnabledByUnseqAA {
				unseq++
			}
		}
		fmt.Fprintf(w, "# HELP ooelala_remarks_total optimization remarks emitted\n")
		fmt.Fprintf(w, "# TYPE ooelala_remarks_total counter\nooelala_remarks_total %d\n", len(snap.Remarks))
		fmt.Fprintf(w, "# HELP ooelala_remarks_unseq_enabled_total remarks enabled by unsequenced-alias facts\n")
		fmt.Fprintf(w, "# TYPE ooelala_remarks_unseq_enabled_total counter\nooelala_remarks_unseq_enabled_total %d\n", unseq)
	}
	return nil
}

func formatSeconds(d time.Duration) string {
	return fmt.Sprintf("%g", d.Seconds())
}
