// Package cnf encodes AIG logic into CNF for the SAT backend via the
// Tseitin transformation. Encoding is lazy and cone-of-influence driven:
// only the logic feeding requested literals is translated, which keeps the
// clause database proportional to what each equivalence query touches.
package cnf

import (
	"simsweep/internal/aig"
	"simsweep/internal/sat"
)

// Encoder translates nodes of one AIG into variables of one SAT solver.
// The mapping persists across calls, so repeated queries share clauses.
type Encoder struct {
	g     *aig.AIG
	s     *sat.Solver
	varOf []int32 // node id -> SAT variable, -1 when not yet encoded
	// fanin maps each SAT variable to the variables its defining clauses
	// mention: an AND node's fanins, an XOR assumption's operands, none
	// (-1) for PIs and the constant.
	fanin [][2]int32
	mark  []uint32 // per SAT variable: == stamp when in the current scope
	stamp uint32
	scope []int
	stack []int32
}

// NewEncoder creates an encoder of g into s.
func NewEncoder(g *aig.AIG, s *sat.Solver) *Encoder {
	varOf := make([]int32, g.NumNodes())
	for i := range varOf {
		varOf[i] = -1
	}
	return &Encoder{g: g, s: s, varOf: varOf}
}

// newVar creates a solver variable defined over the variables f0 and f1
// (-1 for none). The encoder owns every variable of its solver: one
// created by anyone else would have no definition to scope by, so it
// panics instead of computing a wrong scope.
func (e *Encoder) newVar(f0, f1 int32) int32 {
	v := int32(e.s.NewVar())
	if int(v) != len(e.fanin) {
		panic("cnf: solver has variables the encoder did not create")
	}
	e.fanin = append(e.fanin, [2]int32{f0, f1})
	return v
}

// Solver returns the underlying solver.
func (e *Encoder) Solver() *sat.Solver { return e.s }

// VarOf returns the SAT variable already assigned to node id, or -1.
func (e *Encoder) VarOf(id int) int32 { return e.varOf[id] }

// LitOf encodes (if necessary) the cone of the AIG literal l and returns
// the corresponding SAT literal.
func (e *Encoder) LitOf(l aig.Lit) sat.Lit {
	v := e.encode(l.ID())
	return sat.MkLit(int(v), l.IsCompl())
}

// encode returns the SAT variable of node id, emitting Tseitin clauses for
// its cone on first use. Iterative DFS keeps deep cones off the Go stack.
func (e *Encoder) encode(root int) int32 {
	if e.varOf[root] >= 0 {
		return e.varOf[root]
	}
	stack := []int{root}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		if e.varOf[id] >= 0 {
			stack = stack[:len(stack)-1]
			continue
		}
		if !e.g.IsAnd(id) {
			// PI or constant: a fresh variable; the constant is
			// pinned to false.
			v := e.newVar(-1, -1)
			e.varOf[id] = v
			if id == 0 {
				e.s.AddClause(sat.MkLit(int(v), true))
			}
			stack = stack[:len(stack)-1]
			continue
		}
		f0, f1 := e.g.Fanins(id)
		v0, v1 := e.varOf[f0.ID()], e.varOf[f1.ID()]
		if v0 < 0 || v1 < 0 {
			if v0 < 0 {
				stack = append(stack, f0.ID())
			}
			if v1 < 0 {
				stack = append(stack, f1.ID())
			}
			continue
		}
		v := e.newVar(v0, v1)
		e.varOf[id] = v
		a := sat.MkLit(int(v0), f0.IsCompl())
		b := sat.MkLit(int(v1), f1.IsCompl())
		c := sat.MkLit(int(v), false)
		// c ↔ a ∧ b
		e.s.AddClause(c.Neg(), a)
		e.s.AddClause(c.Neg(), b)
		e.s.AddClause(c, a.Neg(), b.Neg())
		stack = stack[:len(stack)-1]
	}
	return e.varOf[root]
}

// XorAssumption creates a fresh variable t constrained to t ↔ (a ⊕ b) over
// the AIG literals a and b, and returns the assumption literal asserting
// the XOR — the standard way to pose "are a and b different?" as an
// incremental query.
func (e *Encoder) XorAssumption(a, b aig.Lit) sat.Lit {
	la := e.LitOf(a)
	lb := e.LitOf(b)
	t := sat.MkLit(int(e.newVar(int32(la.Var()), int32(lb.Var()))), false)
	// t ↔ (la ⊕ lb)
	e.s.AddClause(t.Neg(), la, lb)
	e.s.AddClause(t.Neg(), la.Neg(), lb.Neg())
	e.s.AddClause(t, la.Neg(), lb)
	e.s.AddClause(t, la, lb.Neg())
	return t
}

// Solve decides the query posed by assumptions, each a literal returned by
// LitOf or XorAssumption of this encoder, deciding only inside the
// fanin cone of the assumptions (sat.Solver.SolveScoped). The scope is
// computed here, by a DFS over the encoded definitions, so it is always
// fanin-closed: every Tseitin AND clause and XOR-assumption clause
// mentions the variables of one such cone, and a conflict-free assignment
// of the cone is the cone evaluated on its own PIs. Every other clause,
// learnt ones included, is then satisfied by evaluating the rest of the
// AIG on any PI values, so a Sat answer is a real model of the cone.
//
// The contract holds only while every clause of the solver comes from
// this encoder (or is learnt from them); a caller adding clauses of its
// own must use the solver's full Solve. Assumptions must be literals of
// this encoder.
//
// After Sat, Model is meaningful for the nodes in the cone of the
// assumptions; other encoded nodes may read as unassigned (false).
func (e *Encoder) Solve(assumptions ...sat.Lit) sat.Status {
	e.stamp++
	if e.stamp == 0 {
		clear(e.mark)
		e.stamp = 1
	}
	for len(e.mark) < len(e.fanin) {
		e.mark = append(e.mark, 0)
	}
	e.scope = e.scope[:0]
	stack := e.stack[:0]
	for _, a := range assumptions {
		stack = append(stack, int32(a.Var()))
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if v < 0 || e.mark[v] == e.stamp {
			continue
		}
		e.mark[v] = e.stamp
		e.scope = append(e.scope, int(v))
		stack = append(stack, e.fanin[v][0], e.fanin[v][1])
	}
	e.stack = stack
	return e.s.SolveScoped(e.scope, assumptions...)
}

// Model reads the value of AIG node id from the model after a Sat answer;
// ok is false when the node was never encoded (its value is unconstrained).
func (e *Encoder) Model(id int) (value, ok bool) {
	v := e.varOf[id]
	if v < 0 {
		return false, false
	}
	return e.s.Value(int(v)), true
}
