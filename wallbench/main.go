// Command wallbench is the wall-clock benchmark of the OOElala compiler:
// it runs one workload (spec-compile, kernels-run or serve-replay) for a
// fixed time, checks every output against csem references and the
// committed cycle trajectory, and prints one JSON result line. With
// --trace 1 it instead makes a traced run that times every layer's
// public calls and prints the per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "wallbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("wallbench", flag.ContinueOnError)
	wl := fs.String("workload", "", "workload: spec-compile, kernels-run or serve-replay")
	seed := fs.Int64("seed", 0, "workload seed")
	seconds := fs.Float64("seconds", 20, "measured interval in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	dir := fs.String("dir", "wallbench", "benchmark directory (holds refs/)")
	cache := fs.String("cache", ".bench_build", "directory for span dumps")
	genSeeds := fs.String("gen-refs", "", "write csem references for these spec seeds (e.g. 0-31) and exit")
	genKernels := fs.Bool("gen-kernels", false, "write the kernel csem references and exit")
	repeatEvery := fs.Int("repeat-every", defaultRepeatEvery, "serve-replay: every N-th request repeats an earlier one (N >= 2)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	refDir := filepath.Join(*dir, "refs")
	if *genSeeds != "" || *genKernels {
		seeds, err := parseSeeds(*genSeeds)
		if err != nil {
			return err
		}
		return genRefs(refDir, seeds, *genKernels)
	}
	if *repeatEvery < 2 {
		return fmt.Errorf("--repeat-every must be at least 2, not %d", *repeatEvery)
	}
	e := &env{seed: *seed, seconds: *seconds, root: filepath.Join(*dir, ".."), cacheDir: *cache, repeatEvery: *repeatEvery}
	e.refDirs = []string{refDir}
	w, ok := workloads[*wl]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", *wl, strings.Join(sortedKeys(workloads), ", "))
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, not %d", *trace)
	}
	var (
		rep *report
		err error
	)
	if *trace == 1 {
		rep, err = w.traced(e)
	} else {
		rep, err = w.measure(e)
	}
	if err != nil {
		return err
	}
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// parseSeeds parses "3", "0-31" or "1,4,9-12".
func parseSeeds(s string) ([]int64, error) {
	var out []int64
	if s == "" {
		return nil, nil
	}
	for _, part := range strings.Split(s, ",") {
		lo, hi, isRange := strings.Cut(part, "-")
		a, err := strconv.ParseInt(lo, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed list %q", s)
		}
		b := a
		if isRange {
			if b, err = strconv.ParseInt(hi, 10, 64); err != nil || b < a {
				return nil, fmt.Errorf("bad seed list %q", s)
			}
		}
		for x := a; x <= b; x++ {
			out = append(out, x)
		}
	}
	return out, nil
}
