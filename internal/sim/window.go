package sim

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"simsweep/internal/aig"
	"simsweep/internal/par"
)

// Spec describes a simulation window before its cone is materialised: the
// root nodes whose truth tables are wanted, the input nodes of the window,
// and the indices (into the caller's pair batch) of the candidate pairs the
// window decides. Window merging operates on Specs.
type Spec struct {
	Roots   []int32 // root node ids, deduplicated
	Inputs  []int32 // sorted input node ids
	PairIdx []int32 // indices into the batch pair slice
}

// Window is a materialised simulation window: the Spec plus the cone of AND
// nodes between the inputs and the roots, in topological (ascending-id)
// order. Per the paper, a window contains the intersection of the TFIs of
// the roots with the TFOs of the inputs, plus the roots themselves.
type Window struct {
	Spec
	Nodes []int32
	// Fan holds, per node, its two fanins as window-local slot<<1 | compl:
	// inputs occupy slots [0, len(Inputs)), Nodes[j] occupies slot
	// len(Inputs)+j.
	Fan []int32
}

// NumSlots returns the number of simulation-table entries the window needs.
func (w *Window) NumSlots() int { return len(w.Inputs) + len(w.Nodes) }

// TTWords returns the full truth-table length of the window in 64-bit
// words: max(1, 2^(k−6)) for k inputs.
func (w *Window) TTWords() int {
	k := len(w.Inputs)
	if k <= 6 {
		return 1
	}
	return 1 << uint(k-6)
}

// Builder materialises windows. It marks nodes with generation stamps in
// dense per-node arrays instead of hash maps, so one build costs time in the
// window's size only, and it fills the window's local fan-in table in the
// same pass that assigns slots. The zero value is ready to use; a Builder is
// not safe for concurrent use, and BuildWindows keeps one per worker.
type Builder struct {
	// stamp marks node ids per build: gen-1 for the window's inputs, gen
	// for the cone nodes visited. Entries from older builds never match, so
	// nothing is cleared between builds.
	stamp []uint32
	gen   uint32
	// slot is the window-local slot of every node stamped in this build.
	slot  []int32
	stack []int32
	nodes []int32
	// arena and sizes are BuildWindows' per-chunk scratch: the packed node
	// lists and fan tables, and each window's node count (-1: failed).
	arena []int32
	sizes []int32
}

// next starts a build over a graph of n nodes and returns its input and
// node stamps. When the generation counter would wrap, the stamps are
// cleared and counting restarts, so a stale stamp can never alias.
func (b *Builder) next(n int) (in, node uint32) {
	if len(b.stamp) < n {
		b.stamp = append(b.stamp, make([]uint32, n-len(b.stamp))...)
		b.slot = append(b.slot, make([]int32, n-len(b.slot))...)
	}
	if b.gen >= math.MaxUint32-2 {
		clear(b.stamp)
		b.gen = 0
	}
	b.gen += 2
	return b.gen - 1, b.gen
}

// appendWindow materialises spec's cone and appends its node list and then
// its fan table to out, returning the extended slice and the node count.
// It fails if the cone escapes the inputs: some path from a root reaches a
// PI or the constant that is not an input, which means the inputs were not
// a cut of the roots. A constant root is not a window node (the checker
// compares against constant zero directly).
func (b *Builder) appendWindow(out []int32, g *aig.AIG, spec Spec) ([]int32, int, error) {
	in, mark := b.next(g.NumNodes())
	stamp, slot := b.stamp, b.slot
	for j, id := range spec.Inputs {
		stamp[id] = in
		slot[id] = int32(j)
	}
	stack := b.stack[:0]
	nodes := b.nodes[:0]
	for _, r := range spec.Roots {
		if r != 0 && stamp[r] != in && stamp[r] != mark {
			stamp[r] = mark
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !g.IsAnd(int(id)) {
			b.stack, b.nodes = stack, nodes
			return out, 0, fmt.Errorf("sim: window inputs do not cut node %d from the roots", id)
		}
		nodes = append(nodes, id)
		f0, f1 := g.Fanins(int(id))
		for _, f := range [2]int32{int32(f0.ID()), int32(f1.ID())} {
			if stamp[f] != in && stamp[f] != mark {
				stamp[f] = mark
				stack = append(stack, f)
			}
		}
	}
	slices.Sort(nodes)
	b.stack, b.nodes = stack, nodes

	// Ascending ids are a topological order, so both fanins of a node
	// already hold their slots (inputs, or nodes earlier in the list) when
	// the node is reached: slots and the fan table fill in one pass.
	nIn := int32(len(spec.Inputs))
	out = append(out, nodes...)
	for j, id := range nodes {
		slot[id] = nIn + int32(j)
		f0, f1 := g.Fanins(int(id))
		out = append(out, slot[f0.ID()]<<1|int32(f0&1), slot[f1.ID()]<<1|int32(f1&1))
	}
	return out, len(nodes), nil
}

// Build materialises the cone of spec's roots stopped at its inputs. It
// fails if the inputs do not cut the roots from the PIs.
func (b *Builder) Build(g *aig.AIG, spec Spec) (*Window, error) {
	buf, n, err := b.appendWindow(nil, g, spec)
	if err != nil {
		return nil, err
	}
	return &Window{Spec: spec, Nodes: buf[:n:n], Fan: buf[n:]}, nil
}

// builders holds the Builders of BuildWindows' workers between launches.
var builders = sync.Pool{New: func() any { return new(Builder) }}

// BuildWindows materialises every spec in one "window.build" launch on dev,
// with one Builder per worker. out[i] is spec i's window, or nil when its
// inputs do not cut its roots (Build's error case). Each launch chunk packs
// its windows' node lists and fan tables into one allocation. A non-nil
// error is a failed launch (a recovered kernel panic): every window is then
// suspect and out is nil.
func BuildWindows(dev *par.Device, g *aig.AIG, specs []Spec) ([]*Window, error) {
	wins := make([]Window, len(specs))
	out := make([]*Window, len(specs))
	err := dev.LaunchChunked("window.build", len(specs), func(lo, hi int) {
		b := builders.Get().(*Builder)
		defer builders.Put(b)
		arena := b.arena[:0]
		sizes := b.sizes[:0]
		for i := lo; i < hi; i++ {
			var n int
			var err error
			arena, n, err = b.appendWindow(arena, g, specs[i])
			if err != nil {
				n = -1
			}
			sizes = append(sizes, int32(n))
		}
		b.arena, b.sizes = arena, sizes
		buf := slices.Clone(arena)
		for k, n := range sizes {
			if n < 0 {
				continue
			}
			i := lo + k
			wins[i] = Window{Spec: specs[i], Nodes: buf[:n:n], Fan: buf[n : 3*n : 3*n]}
			out[i] = &wins[i]
			buf = buf[3*n:]
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// MergeSpecs performs window merging (paper §III-B3): the specs are sorted
// in lexicographic order of their input vectors, then consecutive specs are
// merged greedily while the merged input set stays within ks inputs. The
// returned specs carry the unions of roots and pair indices.
func MergeSpecs(specs []Spec, ks int) []Spec {
	if len(specs) <= 1 {
		return specs
	}
	sorted := make([]Spec, len(specs))
	copy(sorted, specs)
	sort.SliceStable(sorted, func(i, j int) bool {
		return lexLess(sorted[i].Inputs, sorted[j].Inputs)
	})
	var out []Spec
	cur := cloneSpec(sorted[0])
	for _, s := range sorted[1:] {
		u := unionSorted(cur.Inputs, s.Inputs)
		if len(u) <= ks {
			cur.Inputs = u
			cur.Roots = unionSorted(cur.Roots, s.Roots)
			cur.PairIdx = append(cur.PairIdx, s.PairIdx...)
			continue
		}
		out = append(out, cur)
		cur = cloneSpec(s)
	}
	return append(out, cur)
}

func cloneSpec(s Spec) Spec {
	return Spec{
		Roots:   append([]int32(nil), s.Roots...),
		Inputs:  append([]int32(nil), s.Inputs...),
		PairIdx: append([]int32(nil), s.PairIdx...),
	}
}

func lexLess(a, b []int32) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

func unionSorted(a, b []int32) []int32 {
	out := make([]int32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}
