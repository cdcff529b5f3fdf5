// Package miter builds and reduces miters for combinational equivalence
// checking. A miter (Brand 1993) shares the primary inputs of the two
// circuits under comparison and XORs corresponding primary-output pairs;
// the circuits are equivalent iff every miter output is constant zero.
//
// Reduction is performed FRAIG-style: given a set of proved node
// equivalences, the miter is rebuilt through the structural hash table with
// every proved member replaced by its representative literal, then cleaned
// to the cones of its outputs. Node merging therefore never mutates a graph
// in place.
package miter

import (
	"fmt"

	"simsweep/internal/aig"
)

// Build constructs the miter of a and b. The circuits must agree in PI and
// PO counts; PIs are matched positionally, as are POs.
func Build(a, b *aig.AIG) (*aig.AIG, error) {
	if a.NumPIs() != b.NumPIs() {
		return nil, fmt.Errorf("miter: PI count mismatch: %d vs %d", a.NumPIs(), b.NumPIs())
	}
	if a.NumPOs() != b.NumPOs() {
		return nil, fmt.Errorf("miter: PO count mismatch: %d vs %d", a.NumPOs(), b.NumPOs())
	}
	m := aig.New()
	m.Name = "miter"
	pis := make([]aig.Lit, a.NumPIs())
	for i := range pis {
		pis[i] = m.AddPI()
	}
	outA := appendShared(m, a, pis)
	outB := appendShared(m, b, pis)
	for i := range outA {
		m.AddPO(m.Xor(outA[i], outB[i]))
	}
	return m, nil
}

// appendShared copies g into m reusing the shared PI literals, returning
// the mapped PO literals.
func appendShared(m *aig.AIG, g *aig.AIG, pis []aig.Lit) []aig.Lit {
	lit := make([]aig.Lit, g.NumNodes())
	lit[0] = aig.False
	piIdx := 0
	for id := 1; id < g.NumNodes(); id++ {
		if g.IsPI(id) {
			lit[id] = pis[piIdx]
			piIdx++
			continue
		}
		f0, f1 := g.Fanins(id)
		lit[id] = m.And(
			lit[f0.ID()].NotIf(f0.IsCompl()),
			lit[f1.ID()].NotIf(f1.IsCompl()),
		)
	}
	outs := make([]aig.Lit, g.NumPOs())
	for i := range outs {
		po := g.PO(i)
		outs[i] = lit[po.ID()].NotIf(po.IsCompl())
	}
	return outs
}

// Merge records one proved equivalence: node Member computes
// Target-as-a-literal (which may be a constant, e.g. aig.False for a proved
// constant-zero node). Target must refer to a node with a smaller id than
// Member so rebuilding in id order sees the target first.
type Merge struct {
	Member int32
	Target aig.Lit
}

// Reduce rebuilds g with all merges applied, cleans dangling logic, and
// returns the reduced AIG together with the old-node → new-literal mapping
// (the mapping covers only nodes still reachable in the intermediate
// rebuild; merged-away members map to their representative's image).
func Reduce(g *aig.AIG, merges []Merge) (*aig.AIG, []aig.Lit, error) {
	repl := make([]aig.Lit, g.NumNodes())
	has := make([]bool, g.NumNodes())
	for _, m := range merges {
		if int(m.Member) >= g.NumNodes() {
			return nil, nil, fmt.Errorf("miter: merge member %d out of range", m.Member)
		}
		if m.Target.ID() >= int(m.Member) {
			return nil, nil, fmt.Errorf("miter: merge target %v not older than member %d", m.Target, m.Member)
		}
		if has[m.Member] {
			return nil, nil, fmt.Errorf("miter: node %d merged twice", m.Member)
		}
		repl[m.Member] = m.Target
		has[m.Member] = true
	}

	out := aig.New()
	out.Name = g.Name
	lit := make([]aig.Lit, g.NumNodes())
	lit[0] = aig.False
	for id := 1; id < g.NumNodes(); id++ {
		if has[id] {
			t := repl[id]
			lit[id] = lit[t.ID()].NotIf(t.IsCompl())
			continue
		}
		if g.IsPI(id) {
			lit[id] = out.AddPI()
			continue
		}
		f0, f1 := g.Fanins(id)
		lit[id] = out.And(
			lit[f0.ID()].NotIf(f0.IsCompl()),
			lit[f1.ID()].NotIf(f1.IsCompl()),
		)
	}
	for i := 0; i < g.NumPOs(); i++ {
		po := g.PO(i)
		out.AddPO(lit[po.ID()].NotIf(po.IsCompl()))
	}
	clean, cleanMap := Clean(out)
	final := make([]aig.Lit, g.NumNodes())
	for id := range lit {
		l := lit[id]
		final[id] = cleanMap[l.ID()].NotIf(l.IsCompl())
	}
	return clean, final, nil
}

// Clean rebuilds g keeping only the logic reachable from its POs. All PIs
// are preserved (positionally) even when unused, so pattern banks indexed
// by PI stay valid. The returned mapping sends old node ids to new
// literals; unreachable AND nodes map to aig.False.
func Clean(g *aig.AIG) (*aig.AIG, []aig.Lit) {
	needed := make([]bool, g.NumNodes())
	var stack []int
	for i := 0; i < g.NumPOs(); i++ {
		id := g.PO(i).ID()
		if !needed[id] {
			needed[id] = true
			stack = append(stack, id)
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !g.IsAnd(id) {
			continue
		}
		f0, f1 := g.Fanins(id)
		for _, f := range [2]aig.Lit{f0, f1} {
			if fid := f.ID(); !needed[fid] {
				needed[fid] = true
				stack = append(stack, fid)
			}
		}
	}
	out := aig.New()
	out.Name = g.Name
	lit := make([]aig.Lit, g.NumNodes())
	lit[0] = aig.False
	for id := 1; id < g.NumNodes(); id++ {
		if g.IsPI(id) {
			lit[id] = out.AddPI()
			continue
		}
		if !needed[id] {
			lit[id] = aig.False
			continue
		}
		f0, f1 := g.Fanins(id)
		lit[id] = out.And(
			lit[f0.ID()].NotIf(f0.IsCompl()),
			lit[f1.ID()].NotIf(f1.IsCompl()),
		)
	}
	for i := 0; i < g.NumPOs(); i++ {
		po := g.PO(i)
		out.AddPO(lit[po.ID()].NotIf(po.IsCompl()))
	}
	return out, lit
}

// IsProved reports whether every miter output is the constant-zero literal,
// i.e. the two circuits are proved equivalent.
func IsProved(g *aig.AIG) bool {
	for i := 0; i < g.NumPOs(); i++ {
		if g.PO(i) != aig.False {
			return false
		}
	}
	return true
}

// Fires reports whether the input assignment cex drives some output of
// the miter g to 1, i.e. whether cex is a genuine counter-example.
func Fires(g *aig.AIG, cex []bool) bool {
	for _, v := range g.Eval(cex) {
		if v {
			return true
		}
	}
	return false
}

// IsDisprovedStructurally reports whether some miter output is the
// constant-one literal.
func IsDisprovedStructurally(g *aig.AIG) bool {
	for i := 0; i < g.NumPOs(); i++ {
		if g.PO(i) == aig.True {
			return true
		}
	}
	return false
}
