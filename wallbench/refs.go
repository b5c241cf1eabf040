package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/csem"
	"repro/internal/parser"
	"repro/internal/sema"
	"repro/internal/workload"
)

// refEntry is one stored reference: the checksum main() returns for a
// source, computed by the csem reference interpreter.
type refEntry struct {
	Unit  string `json:"unit"`
	Value int64  `json:"value"`
}

// refSet maps a source's hex SHA-256 to its reference.
type refSet map[string]refEntry

// loadRefs reads every *.json reference file in the given directories.
// A directory that does not exist contributes nothing.
func loadRefs(dirs ...string) (refSet, error) {
	refs := refSet{}
	for _, dir := range dirs {
		files, err := filepath.Glob(filepath.Join(dir, "*.json"))
		if err != nil {
			return nil, err
		}
		for _, f := range files {
			b, err := os.ReadFile(f)
			if err != nil {
				return nil, err
			}
			var part refSet
			if err := json.Unmarshal(b, &part); err != nil {
				return nil, fmt.Errorf("%s: %w", f, err)
			}
			for k, v := range part {
				refs[k] = v
			}
		}
	}
	return refs, nil
}

// csemStepBudget lets the reference interpreter finish the largest
// kernels (the Polybench ones take tens of millions of steps).
const csemStepBudget = 2_000_000_000

// csemRef computes the reference checksum of u with the csem abstract
// machine via csem.Explore, independent of the compiler under test. The
// programs are deterministic, so one enumerated order plus one sampled
// order suffice, and both must agree on a single defined value.
// csem keeps process-wide state, so calls must not run concurrently.
func csemRef(u unit) (int64, error) {
	tu, perrs := parser.ParseFile(u.Name, u.Source, workload.Files())
	if len(perrs) > 0 {
		return 0, fmt.Errorf("%s: parse: %v", u.Name, perrs[0])
	}
	if serrs := sema.Check(tu); len(serrs) > 0 {
		return 0, fmt.Errorf("%s: sema: %v", u.Name, serrs[0])
	}
	res, err := csem.Explore(tu, "main", csem.ExploreOpts{MaxOrders: 1, Samples: 1, MaxSteps: csemStepBudget})
	if err != nil {
		return 0, fmt.Errorf("%s: csem: %w", u.Name, err)
	}
	if res.UB {
		return 0, fmt.Errorf("%s: csem: undefined behaviour: %s", u.Name, res.UBReason)
	}
	if len(res.Values) != 1 {
		return 0, fmt.Errorf("%s: csem: %d distinct results %v", u.Name, len(res.Values), res.Values)
	}
	return res.Values[0], nil
}

// computeRefs returns references for every unit of units that refs
// lacks, computing them one at a time.
func computeRefs(units []unit, refs refSet) (refSet, error) {
	out := refSet{}
	for _, u := range units {
		if _, ok := refs[u.SHA]; ok {
			continue
		}
		if _, ok := out[u.SHA]; ok {
			continue
		}
		v, err := csemRef(u)
		if err != nil {
			return nil, err
		}
		out[u.SHA] = refEntry{Unit: u.Name, Value: v}
	}
	return out, nil
}

// writeRefs stores refs as indented JSON (keys sorted by encoding/json),
// through a temporary file so a reader never sees a partial file.
func writeRefs(path string, refs refSet) error {
	b, err := json.MarshalIndent(refs, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(b, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// genRefs writes the committed reference files: refs/kernels.json and
// one refs/spec-<seed>.json per seed.
func genRefs(refDir string, seeds []int64, kernels bool) error {
	if kernels {
		r, err := computeRefs(kernelCorpus(), refSet{})
		if err != nil {
			return err
		}
		if err := writeRefs(filepath.Join(refDir, "kernels.json"), r); err != nil {
			return err
		}
	}
	for _, s := range seeds {
		r, err := computeRefs(specCorpus(s), refSet{})
		if err != nil {
			return err
		}
		if err := writeRefs(filepath.Join(refDir, fmt.Sprintf("spec-%d.json", s)), r); err != nil {
			return err
		}
	}
	return nil
}

// checkRef compares a compiled result against the reference for u.
func checkRef(refs refSet, u unit, got int64) error {
	ref, ok := refs[u.SHA]
	if !ok {
		return fmt.Errorf("%s: no reference for source %s", u.Name, u.SHA[:12])
	}
	if ref.Value != got {
		return fmt.Errorf("%s: result %d, csem reference %d", u.Name, got, ref.Value)
	}
	return nil
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
