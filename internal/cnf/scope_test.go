package cnf

import (
	"math/rand"
	"testing"

	"simsweep/internal/aig"
	"simsweep/internal/gen"
	"simsweep/internal/sat"
)

// scopedQuery is one cone query: a pair XOR of a and b, or (pair false)
// a PO constancy check of a.
type scopedQuery struct {
	a, b aig.Lit
	pair bool
	po   int // index of a's PO in the test AIG; b's follows it
}

// randomQueries picks node pairs and POs of g and adds a PO for every
// literal involved, so aig.Eval can read their values.
func randomQueries(g *aig.AIG, rng *rand.Rand, n int) []scopedQuery {
	nodes := []int{}
	for id := 1; id < g.NumNodes(); id++ {
		if g.IsAnd(id) || g.IsPI(id) {
			nodes = append(nodes, id)
		}
	}
	lit := func() aig.Lit { return aig.MakeLit(nodes[rng.Intn(len(nodes))], rng.Intn(2) == 1) }
	origPOs := g.NumPOs()
	var qs []scopedQuery
	for i := 0; i < n; i++ {
		if rng.Intn(4) == 0 {
			po := g.PO(rng.Intn(origPOs))
			qs = append(qs, scopedQuery{a: po, po: g.NumPOs()})
			g.AddPO(po)
			continue
		}
		a, b := lit(), lit()
		qs = append(qs, scopedQuery{a: a, b: b, pair: true, po: g.NumPOs()})
		g.AddPO(a)
		g.AddPO(b)
	}
	return qs
}

// modelInputs reads the PI assignment of enc's current model; unencoded
// PIs are unconstrained and read as false.
func modelInputs(g *aig.AIG, enc *Encoder) []bool {
	in := make([]bool, g.NumPIs())
	for i := range in {
		v, ok := enc.Model(g.PIID(i))
		in[i] = v && ok
	}
	return in
}

// TestScopedSolveMatchesFullSolve checks the scoped query against the
// full one on random AIGs: one incremental encoder per side, the same
// query sequence, equal statuses, and every scoped Sat model a real
// witness under aig.Eval.
func TestScopedSolveMatchesFullSolve(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := gen.Random(6+rng.Intn(6), 3, 40+rng.Intn(80), seed)
		qs := randomQueries(g, rng, 30)
		scoped := NewEncoder(g, sat.New())
		full := NewEncoder(g, sat.New())
		for qi, q := range qs {
			var sl, fl sat.Lit
			if !q.pair {
				sl, fl = scoped.LitOf(q.a), full.LitOf(q.a)
			} else {
				sl, fl = scoped.XorAssumption(q.a, q.b), full.XorAssumption(q.a, q.b)
			}
			got := scoped.Solve(sl)
			want := full.Solver().Solve(fl)
			if got != want {
				t.Fatalf("seed %d query %d: scoped %v, full %v", seed, qi, got, want)
			}
			if got != sat.Sat {
				continue
			}
			out := g.Eval(modelInputs(g, scoped))
			if !q.pair {
				if !out[q.po] {
					t.Fatalf("seed %d query %d: scoped model leaves the PO at 0", seed, qi)
				}
			} else if out[q.po] == out[q.po+1] {
				t.Fatalf("seed %d query %d: scoped model does not distinguish the pair", seed, qi)
			}
		}
	}
}

// TestScopedSolveStaysInCone puts two disjoint cones into one solver and
// checks that a Sat query on the small cone decides nothing outside its
// scope, while the full Solve on a fresh copy does.
func TestScopedSolveStaysInCone(t *testing.T) {
	g := aig.New()
	x, y := g.AddPI(), g.AddPI()
	and, or := g.And(x, y), g.Or(x, y)
	// A large cone over 30 other PIs.
	rng := rand.New(rand.NewSource(5))
	pool := []aig.Lit{}
	for i := 0; i < 30; i++ {
		pool = append(pool, g.AddPI())
	}
	for i := 0; i < 300; i++ {
		a := pool[len(pool)-1-rng.Intn(len(pool)/2)].NotIf(rng.Intn(2) == 1)
		b := pool[rng.Intn(len(pool))].NotIf(rng.Intn(2) == 1)
		pool = append(pool, g.And(a, b))
	}
	big := pool[len(pool)-1]

	decisions := func(scoped bool) (int64, int) {
		s := sat.New()
		enc := NewEncoder(g, s)
		enc.LitOf(big)
		assume := enc.XorAssumption(and, or)
		before := s.Stats().Decisions
		var st sat.Status
		if scoped {
			st = enc.Solve(assume)
		} else {
			st = s.Solve(assume)
		}
		if st != sat.Sat {
			t.Fatalf("x∧y vs x∨y = %v, want SAT", st)
		}
		return s.Stats().Decisions - before, len(enc.scope)
	}
	dec, scope := decisions(true)
	if dec > int64(scope) {
		t.Fatalf("scoped call made %d decisions over a scope of %d variables", dec, scope)
	}
	if full, _ := decisions(false); full <= int64(scope) {
		t.Fatalf("full Solve made only %d decisions; the test no longer separates the two", full)
	}
}

// TestScopedThenFullSolve mixes the two entry points on one solver: after
// scoped queries, the full Solve must still return a model of the whole
// formula.
func TestScopedThenFullSolve(t *testing.T) {
	g := gen.Random(10, 4, 120, 3)
	s := sat.New()
	enc := NewEncoder(g, s)
	for i := 0; i < g.NumPOs(); i++ {
		enc.Solve(enc.LitOf(g.PO(i)))
	}
	for i := 0; i < g.NumPOs(); i++ {
		l := enc.LitOf(g.PO(i))
		if s.Solve(l) != sat.Sat {
			continue
		}
		for id := 1; id < g.NumNodes(); id++ {
			if !g.IsAnd(id) {
				continue
			}
			f0, f1 := g.Fanins(id)
			v0, _ := enc.Model(f0.ID())
			v1, _ := enc.Model(f1.ID())
			v, ok := enc.Model(id)
			if ok && v != ((v0 != f0.IsCompl()) && (v1 != f1.IsCompl())) {
				t.Fatalf("PO %d: full model breaks AND node %d", i, id)
			}
		}
	}
}

// TestForeignVariablePanics checks the encoder's ownership guard: a
// variable created on its solver by anyone else would have no definition
// to scope by, so the next encoding panics rather than mis-scope.
func TestForeignVariablePanics(t *testing.T) {
	g := aig.New()
	x, y := g.AddPI(), g.AddPI()
	s := sat.New()
	enc := NewEncoder(g, s)
	enc.LitOf(x)
	s.NewVar()
	defer func() {
		if recover() == nil {
			t.Fatal("encoding after a foreign NewVar did not panic")
		}
	}()
	enc.LitOf(y)
}
