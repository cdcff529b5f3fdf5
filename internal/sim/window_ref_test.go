package sim

import (
	"fmt"
	"sort"
	"testing"

	"simsweep/internal/aig"
)

// referenceWindow is the map-based window builder the stamp Builder
// replaced, kept as the oracle of the differential tests: a DFS over two
// maps, a reflective sort, and a fan table filled from an id -> slot map in
// a second pass.
func referenceWindow(g *aig.AIG, spec Spec) (*Window, error) {
	stop := make(map[int]bool, len(spec.Inputs))
	for _, id := range spec.Inputs {
		stop[int(id)] = true
	}
	seen := make(map[int]bool)
	var nodes []int32
	var stack []int
	for _, r := range spec.Roots {
		id := int(r)
		if !seen[id] && !stop[id] {
			seen[id] = true
			stack = append(stack, id)
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if id == 0 {
			continue // constant root, handled specially by the checker
		}
		if g.IsPI(id) {
			return nil, fmt.Errorf("sim: window inputs do not cut PI %d from the roots", id)
		}
		nodes = append(nodes, int32(id))
		f0, f1 := g.Fanins(id)
		for _, f := range [2]aig.Lit{f0, f1} {
			fid := f.ID()
			if !seen[fid] && !stop[fid] {
				seen[fid] = true
				stack = append(stack, fid)
			}
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })

	slot := make(map[int]int32, len(spec.Inputs)+len(nodes))
	for j, id := range spec.Inputs {
		slot[int(id)] = int32(j)
	}
	for j, id := range nodes {
		slot[int(id)] = int32(len(spec.Inputs) + j)
	}
	fan := make([]int32, 0, 2*len(nodes))
	for _, id := range nodes {
		f0, f1 := g.Fanins(int(id))
		for _, f := range [2]aig.Lit{f0, f1} {
			c := int32(0)
			if f.IsCompl() {
				c = 1
			}
			fan = append(fan, slot[f.ID()]<<1|c)
		}
	}
	return &Window{Spec: spec, Nodes: nodes, Fan: fan}, nil
}

// buildWindow materialises one window with a fresh Builder, for tests that
// feed hand-made specs to the checker.
func buildWindow(g *aig.AIG, spec Spec) (*Window, error) {
	return new(Builder).Build(g, spec)
}

// mustWindow is buildWindow for specs known to be cuts.
func mustWindow(tb testing.TB, g *aig.AIG, spec Spec) *Window {
	tb.Helper()
	w, err := buildWindow(g, spec)
	if err != nil {
		tb.Fatal(err)
	}
	return w
}
