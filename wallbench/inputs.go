package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/workload"
)

// unit is one translation unit the benchmark hands to the compiler.
type unit struct {
	// Bench is the SPEC benchmark the unit belongs to ("" for kernels).
	Bench  string
	Name   string
	Source string
	// SHA is the hex SHA-256 of Source, the key of its csem reference.
	SHA string
}

func newUnit(bench, name, src string) unit {
	sum := sha256.Sum256([]byte(src))
	return unit{Bench: bench, Name: name, Source: src, SHA: hex.EncodeToString(sum[:])}
}

// specCorpus is the SPEC-shaped corpus of Tables 5/6 for a seed. Seed 0
// is exactly workload.GenerateUnits over SpecSuite; any other seed folds
// itself into each benchmark name, which reseeds the generator while the
// calibration fields (unit counts, densities, filler reps) stay fixed.
// Units come back grouped by benchmark in generation order, the order
// Table 6 sums cycles in.
func specCorpus(seed int64) []unit {
	var out []unit
	for _, b := range workload.SpecSuite() {
		bench := b.Name
		if seed != 0 {
			b.Name = fmt.Sprintf("%s.s%d", bench, seed)
		}
		for _, p := range workload.GenerateUnits(b) {
			out = append(out, newUnit(bench, p.Name, p.Source))
		}
	}
	return out
}

// specSeeds is how many SPEC corpora have committed csem references
// (refs/spec-0.json to refs/spec-31.json). A run draws corpus
// corpusSeed(seed); the full seed still orders the units and the serve
// stream. csem needs about 70 s per corpus, too long to spend in a run.
const specSeeds = 32

// corpusSeed is the SPEC corpus a workload seed draws: seed mod
// specSeeds, so seeds 0 to 31 give 32 distinct corpora.
func corpusSeed(seed int64) int64 {
	s := seed % specSeeds
	if s < 0 {
		s += specSeeds
	}
	return s
}

// kernelCorpus is the fixed kernel set: the six Table 4 Polybench
// kernels, the two extra Polybench kernels and the three interprocedural
// kernels.
func kernelCorpus() []unit {
	var ps []workload.Program
	ps = append(ps, workload.PolybenchKernels()...)
	ps = append(ps, workload.ExtraPolybenchKernels()...)
	ps = append(ps, workload.InterprocKernels()...)
	out := make([]unit, len(ps))
	for i, p := range ps {
		out[i] = newUnit("", p.Name, p.Source)
	}
	return out
}

// order is the seeded visiting order over n units.
func order(n int, seed int64) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}

// literal is the byte range of one decimal integer literal inside a
// function body.
type literal struct{ start, end int }

// bodyLiterals finds the decimal integer literals that sit inside
// braces, outside preprocessor lines, comments and floating constants:
// the places a single-function edit may touch.
func bodyLiterals(src string) []literal {
	var lits []literal
	depth := 0
	lineStart := true
	directive := false
	for i := 0; i < len(src); i++ {
		c := src[i]
		switch {
		case c == '\n':
			lineStart, directive = true, false
			continue
		case lineStart && c == '#':
			directive = true
		case c == '/' && i+1 < len(src) && src[i+1] == '/':
			for i < len(src) && src[i] != '\n' {
				i++
			}
			i--
			continue
		case c == '{':
			depth++
		case c == '}':
			depth--
		case c >= '0' && c <= '9':
			j := i
			for j < len(src) && isIdentByte(src[j]) {
				j++
			}
			prevOK := i == 0 || !(isIdentByte(src[i-1]) || src[i-1] == '.')
			nextOK := j >= len(src) || src[j] != '.'
			if depth > 0 && !directive && prevOK && nextOK && isDigits(src[i:j]) {
				lits = append(lits, literal{i, j})
			}
			i = j - 1
		}
		if c != ' ' && c != '\t' {
			lineStart = false
		}
	}
	return lits
}

func isIdentByte(c byte) bool {
	return c == '_' || c >= '0' && c <= '9' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isDigits(s string) bool {
	return strings.Trim(s, "0123456789") == ""
}
