package passes

import "repro/internal/ir"

// Per-function side tables indexed by instruction ID.
//
// Instruction IDs are unique within a function and never reused
// (ir.Block.Append and InsertBefore draw them from the function's
// counter), so a pass can keep per-instruction state in a slice indexed
// by ID instead of a map keyed by ir.Value. A table is sized to
// f.IDBound() when it is built and reads an instruction with a larger ID
// (one created after the build) as absent. A table checks that an
// instruction is f's own (its block belongs to f) before it reads the
// entry for its ID, so an instruction of another function that carries
// the same ID never reads or writes f's entry.

// owns reports whether x is an instruction of f that a table of n IDs
// covers. A removed instruction keeps its block, so it still counts as
// f's.
func owns(f *ir.Func, n int, x *ir.Instr) bool {
	return x.ID < n && x.Block() != nil && x.Block().Fn == f
}

// resize returns s with length n and every element zeroed, reusing its
// storage when it is large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// forwarder batches replace-all-uses. A pass records old -> new with
// forward instead of rewriting every use at once; it resolves an
// instruction's args (resolveArgs or visit) before it reads them and
// calls sweep before it returns, which rewrites the remaining uses in one
// scan of the function rather than one scan per replacement.
type forwarder struct {
	fn *ir.Func
	// state holds one word per instruction ID: 0 while the instruction is
	// unseen, -1 once visit reached it, and k > 0 once it was replaced by
	// repl[k-1].
	state []int32
	repl  []replacement
	// pending counts replacements the function body may still hold.
	pending int
	// eager is set once visit met a use laid out before its definition;
	// from then on every forward sweeps at once.
	eager bool
}

type replacement struct {
	old *ir.Instr
	new ir.Value
}

func newForwarder(f *ir.Func) *forwarder {
	return &forwarder{fn: f, state: make([]int32, f.IDBound())}
}

// word returns the state word of ID id, growing the table for an
// instruction created after it was built.
func (fw *forwarder) word(id int) *int32 {
	if id >= len(fw.state) {
		fw.state = append(fw.state, make([]int32, id+1-len(fw.state))...)
	}
	return &fw.state[id]
}

// forward records that every use of old is to read new.
func (fw *forwarder) forward(old *ir.Instr, new ir.Value) {
	fw.repl = append(fw.repl, replacement{old: old, new: fw.value(new)})
	*fw.word(old.ID) = int32(len(fw.repl))
	fw.pending++
	if fw.eager {
		fw.sweep()
	}
}

// value returns what v stands for after the replacements recorded so far.
func (fw *forwarder) value(v ir.Value) ir.Value {
	for {
		x, ok := v.(*ir.Instr)
		if !ok || x.ID >= len(fw.state) {
			return v
		}
		k := fw.state[x.ID]
		if k <= 0 || fw.repl[k-1].old != x {
			return v
		}
		v = fw.repl[k-1].new
	}
}

// resolveArgs rewrites in's args to their replacements.
func (fw *forwarder) resolveArgs(in *ir.Instr) {
	if len(fw.repl) == 0 {
		return
	}
	for i, a := range in.Args {
		if v := fw.value(a); v != a {
			in.Args[i] = v
		}
	}
}

// visit marks in as reached by a walk over the function in layout order
// and resolves its args. A walk that also reads instructions it reached
// earlier (earlycse's alias queries follow pointer operands back to their
// definitions) sees only resolved args as long as every arg is defined
// before its use in the layout: a replaced instruction is the one being
// visited, so no earlier instruction can use it. An arg the walk has not
// reached yet breaks that, so visit then sweeps the function and makes
// every later forward sweep at once, which is what rewriting all uses per
// replacement would do. (An instruction of another function that shares
// an ID with a reached one reads as reached; that is harmless, since
// nothing here rewrites another function's instructions.)
func (fw *forwarder) visit(in *ir.Instr) {
	if w := fw.word(in.ID); *w == 0 {
		*w = -1
	}
	for i, a := range in.Args {
		x, ok := a.(*ir.Instr)
		if !ok {
			continue
		}
		if x.ID >= len(fw.state) || fw.state[x.ID] == 0 {
			if !fw.eager {
				fw.eager = true
				fw.sweep()
			}
			continue
		}
		if fw.state[x.ID] > 0 {
			in.Args[i] = fw.value(x)
		}
	}
}

// sweep rewrites every use of a replaced instruction in the function.
func (fw *forwarder) sweep() {
	if fw.pending == 0 {
		return
	}
	for _, b := range fw.fn.Blocks {
		for _, in := range b.Instrs {
			fw.resolveArgs(in)
		}
	}
	fw.pending = 0
}

// useTable lists, for every instruction of one function, the
// instructions that use it as an operand, in layout order (an
// instruction using a value twice is listed twice). Rows are stored back
// to back: the users of the row for ID i are users[start[i]:start[i+1]].
type useTable struct {
	fn    *ir.Func
	start []int32
	users []*ir.Instr
}

// build recomputes the table for f, reusing the table's storage.
func (t *useTable) build(f *ir.Func) {
	n := f.IDBound()
	t.fn = f
	t.start = resize(t.start, n+1)
	// Count each row's users, then turn the counts into end offsets.
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				if x, ok := a.(*ir.Instr); ok && owns(f, n, x) {
					t.start[x.ID]++
				}
			}
		}
	}
	sum := int32(0)
	for i := range n {
		sum += t.start[i]
		t.start[i] = sum
	}
	t.start[n] = sum
	t.users = resize(t.users, int(sum))
	// Fill back to front: each row comes out in layout order and its
	// start offset moves back to its first user.
	for bi := len(f.Blocks) - 1; bi >= 0; bi-- {
		ins := f.Blocks[bi].Instrs
		for ii := len(ins) - 1; ii >= 0; ii-- {
			in := ins[ii]
			for ai := len(in.Args) - 1; ai >= 0; ai-- {
				if x, ok := in.Args[ai].(*ir.Instr); ok && owns(f, n, x) {
					t.start[x.ID]--
					t.users[t.start[x.ID]] = in
				}
			}
		}
	}
}

// of returns the instructions using in. It is empty for nil, for an
// instruction created after the table was built and for one of another
// function.
func (t *useTable) of(in *ir.Instr) []*ir.Instr {
	if in == nil || !owns(t.fn, len(t.start)-1, in) {
		return nil
	}
	return t.users[t.start[in.ID]:t.start[in.ID+1]]
}
