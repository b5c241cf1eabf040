package passes

import (
	"fmt"
	"strings"

	"repro/internal/ir"
)

// CallGraph is the module's static call graph, shared by the pipeline
// scheduler and the bottom-up summary pass: both walk its SCCs callees
// first, so a callee's optimized body (for the inliner) and its mod/ref
// facts (for the summaries) are final before any caller outside its SCC
// reads them. Edges come from direct calls and from function references
// used as values in the original (pre-pipeline) bodies; optimization
// never introduces a callee outside this closure, because inlining only
// splices bodies of functions the graph already reaches.
type CallGraph struct {
	mod *ir.Module
	idx map[string]int

	Nodes []*CGNode

	// sccs lists strongly connected components in bottom-up order:
	// every callee of a component's members is either inside the
	// component or in an earlier one. Singleton components with a
	// self-edge are recursive.
	sccs [][]int
}

// CGNode is one function's adjacency.
type CGNode struct {
	Fn *ir.Func
	// Callees are module-function indices in first-occurrence order,
	// deduplicated.
	Callees []int
	// Externals are direct callee names with no body in the module
	// (library calls), deduplicated in first-occurrence order.
	Externals []string
	// Indirect marks a call through a function pointer: the possible
	// callees are unknown, so summary clients must degrade to ⊤.
	Indirect bool
	// Recursive marks membership in a multi-node SCC or a self-edge.
	Recursive bool
	// SCC is the index of this node's component in SCCs() order.
	SCC int
}

// BuildCallGraph scans mod's current bodies.
func BuildCallGraph(mod *ir.Module) *CallGraph {
	n := len(mod.Funcs)
	cg := &CallGraph{
		mod:   mod,
		idx:   make(map[string]int, n),
		Nodes: make([]*CGNode, n),
	}
	for i, f := range mod.Funcs {
		cg.idx[f.Name] = i
	}
	for i, f := range mod.Funcs {
		node := &CGNode{Fn: f}
		seen := map[int]bool{}
		seenExt := map[string]bool{}
		add := func(name string) {
			if j, ok := cg.idx[name]; ok {
				if !seen[j] {
					seen[j] = true
					node.Callees = append(node.Callees, j)
				}
			} else if !seenExt[name] {
				seenExt[name] = true
				node.Externals = append(node.Externals, name)
			}
		}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpCall {
					if in.Callee != "" {
						add(in.Callee)
					} else {
						node.Indirect = true
					}
				}
				for _, a := range in.Args {
					if fr, ok := a.(*ir.FuncRef); ok {
						add(fr.Name)
					}
				}
			}
		}
		cg.Nodes[i] = node
	}
	cg.computeSCCs()
	return cg
}

// Index returns the module index of the named function, or -1.
func (cg *CallGraph) Index(name string) int {
	if i, ok := cg.idx[name]; ok {
		return i
	}
	return -1
}

// computeSCCs runs Tarjan's algorithm. The natural emission order of
// Tarjan — a component is emitted only after every component it can
// reach — is exactly the bottom-up order the scheduler and the summary
// pass need. Roots are tried in module order, so when every callee is
// defined before its callers the order is plain source order.
func (cg *CallGraph) computeSCCs() {
	n := len(cg.Nodes)
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	next := 0

	// Iterative Tarjan: frame.ci is the next callee edge to visit.
	type frame struct{ v, ci int }
	var dfs []frame
	push := func(v int) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		dfs = append(dfs, frame{v: v})
	}
	for root := 0; root < n; root++ {
		if index[root] != -1 {
			continue
		}
		push(root)
		for len(dfs) > 0 {
			fr := &dfs[len(dfs)-1]
			v := fr.v
			if fr.ci < len(cg.Nodes[v].Callees) {
				w := cg.Nodes[v].Callees[fr.ci]
				fr.ci++
				if index[w] == -1 {
					push(w)
				} else if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
				continue
			}
			if low[v] == index[v] {
				var comp []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				// Reverse pop order so members list in module order-ish
				// (DFS discovery order), keeping dumps stable.
				for l, r := 0, len(comp)-1; l < r; l, r = l+1, r-1 {
					comp[l], comp[r] = comp[r], comp[l]
				}
				scc := len(cg.sccs)
				recursive := len(comp) > 1
				for _, w := range comp {
					cg.Nodes[w].SCC = scc
					if !recursive {
						for _, c := range cg.Nodes[w].Callees {
							if c == w {
								recursive = true
							}
						}
					}
				}
				for _, w := range comp {
					cg.Nodes[w].Recursive = recursive
				}
				cg.sccs = append(cg.sccs, comp)
			}
			dfs = dfs[:len(dfs)-1]
			if len(dfs) > 0 {
				p := dfs[len(dfs)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
		}
	}
}

// SCCs returns the strongly connected components in bottom-up order
// (callees before callers). Each component holds module function
// indices.
func (cg *CallGraph) SCCs() [][]int { return cg.sccs }

// BottomUp returns the functions grouped by SCC in bottom-up order.
func (cg *CallGraph) BottomUp() [][]*ir.Func {
	out := make([][]*ir.Func, len(cg.sccs))
	for i, comp := range cg.sccs {
		fns := make([]*ir.Func, len(comp))
		for j, v := range comp {
			fns[j] = cg.Nodes[v].Fn
		}
		out[i] = fns
	}
	return out
}

// Reachable returns, for every function index, the set of function
// indices transitively reachable through the graph's edges — the
// callees whose summaries and bodies a function's FuncKey folds in.
func (cg *CallGraph) Reachable() []map[int]struct{} {
	n := len(cg.Nodes)
	reach := make([]map[int]struct{}, n)
	for i := 0; i < n; i++ {
		r := make(map[int]struct{})
		stack := append([]int(nil), cg.Nodes[i].Callees...)
		for len(stack) > 0 {
			j := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if _, ok := r[j]; ok {
				continue
			}
			r[j] = struct{}{}
			stack = append(stack, cg.Nodes[j].Callees...)
		}
		reach[i] = r
	}
	return reach
}

// String renders the graph for -print-callgraph: per-function edges,
// then the bottom-up SCC order the summary pass runs in.
func (cg *CallGraph) String() string {
	var b strings.Builder
	b.WriteString("callgraph:\n")
	for _, node := range cg.Nodes {
		b.WriteString("  " + node.Fn.Name + " ->")
		if len(node.Callees) == 0 && len(node.Externals) == 0 && !node.Indirect {
			b.WriteString(" (leaf)")
		}
		for _, c := range node.Callees {
			b.WriteString(" " + cg.Nodes[c].Fn.Name)
		}
		for _, e := range node.Externals {
			b.WriteString(" " + e + "(extern)")
		}
		if node.Indirect {
			b.WriteString(" <indirect>")
		}
		if node.Recursive {
			b.WriteString(" [recursive]")
		}
		b.WriteByte('\n')
	}
	b.WriteString("bottom-up SCC order:\n")
	for i, comp := range cg.sccs {
		names := make([]string, len(comp))
		for j, v := range comp {
			names[j] = cg.Nodes[v].Fn.Name
		}
		fmt.Fprintf(&b, "  scc %d: {%s}\n", i, strings.Join(names, ", "))
	}
	return b.String()
}
