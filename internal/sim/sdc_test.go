package sim

import (
	"testing"

	"simsweep/internal/aig"
)

func TestSDCsPaperExample(t *testing.T) {
	// Paper §II-A: n1 = x + y, n2 = y·z, n3 = n1·n2. The cut {n1, n2}
	// of n3 has exactly one SDC: (n1=0, n2=1) — y·z can only be 1 when
	// y is 1, which forces x+y to 1.
	g := aig.New()
	x := g.AddPI()
	y := g.AddPI()
	z := g.AddPI()
	n1 := g.Or(x, y)
	n2 := g.And(y, z)
	n3 := g.And(n1, n2)
	_ = n3
	g.AddPO(n3)

	// Cut variables in slice order: var0 = node(n1), var1 = node(n2).
	// n1 is a complemented literal (Or); the SDC is over NODE values:
	// node(n1) = NOR(x,y). Literal-level SDC (n1=0, n2=1) means node
	// values (nor=1, and=1), i.e. pattern index 0b11 = 3.
	sdcs, err := SDCs(g, []int32{int32(n1.ID()), int32(n2.ID())}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if sdcs.CountOnes() != 1 {
		t.Fatalf("SDC count = %d, want 1 (table %s)", sdcs.CountOnes(), sdcs)
	}
	wantIdx := 0
	if !n1.IsCompl() {
		t.Fatal("test assumes Or() yields a complemented literal")
	}
	// node(n1)=1 means x+y=0; node(n2)=1 means yz=1: pattern (1,1).
	wantIdx = 0b11
	if !sdcs.Bit(wantIdx) {
		t.Fatalf("SDC at index %d missing: %s", wantIdx, sdcs)
	}
}

func TestSDCsNoneForIndependentCut(t *testing.T) {
	// Two cut nodes over disjoint supports: all four patterns occur.
	g := aig.New()
	a := g.AddPI()
	b := g.AddPI()
	c := g.AddPI()
	d := g.AddPI()
	u := g.And(a, b)
	v := g.And(c, d)
	g.AddPO(g.And(u, v))
	sdcs, err := SDCs(g, []int32{int32(u.ID()), int32(v.ID())}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !sdcs.IsConst0() {
		t.Fatalf("independent cut has SDCs: %s", sdcs)
	}
}

func TestSDCsRejectOversizedSupport(t *testing.T) {
	g := aig.New()
	var lits []aig.Lit
	for i := 0; i < 10; i++ {
		lits = append(lits, g.AddPI())
	}
	acc := lits[0]
	for _, l := range lits[1:] {
		acc = g.And(acc, l)
	}
	g.AddPO(acc)
	if _, err := SDCs(g, []int32{int32(acc.ID())}, 4); err == nil {
		t.Fatal("oversized support accepted")
	}
}

func TestLocalMismatchIsSDC(t *testing.T) {
	// Reuse the SDC-inconclusive scenario: r = a&b, n = r & (a|b); the
	// local mismatch over the cut {r, or-node} must be classified as an
	// SDC, confirming the pair may still be equivalent.
	g := aig.New()
	a := g.AddPI()
	b := g.AddPI()
	r := g.And(a, b)
	or := g.Or(a, b)
	n := g.And(r, or)
	g.AddPO(n)
	cut := []int32{int32(r.ID()), int32(or.ID())}
	w, err := buildWindow(g, Spec{Roots: []int32{int32(r.ID()), int32(n.ID())}, Inputs: cut, PairIdx: []int32{0}})
	if err != nil {
		t.Fatal(err)
	}
	res := NewExhaustive(dev(), 0).CheckBatch([]Pair{{A: int32(r.ID()), B: int32(n.ID())}}, []*Window{w})
	if res.Equal[0] || res.CEX(0) == nil {
		t.Fatal("expected a local mismatch")
	}
	isSDC, err := LocalMismatchIsSDC(g, res.CEX(0), 16)
	if err != nil {
		t.Fatal(err)
	}
	if !isSDC {
		t.Fatal("mismatch of an equivalent pair not classified as SDC")
	}

	// A genuine difference must NOT be classified as SDC.
	m := g.And(r, g.Xor(a, b)) // constant 0, differs from r at (a=1,b=1)
	sup := g.SupportOfMany([]int{r.ID(), m.ID()})
	gw, err := buildWindow(g, Spec{Roots: []int32{int32(r.ID()), int32(m.ID())}, Inputs: sup, PairIdx: []int32{0}})
	if err != nil {
		t.Fatal(err)
	}
	res = NewExhaustive(dev(), 0).CheckBatch([]Pair{{A: int32(r.ID()), B: int32(m.ID())}}, []*Window{gw})
	if res.Equal[0] {
		t.Fatal("inequivalent pair proved")
	}
	isSDC, err = LocalMismatchIsSDC(g, res.CEX(0), 16)
	if err != nil {
		t.Fatal(err)
	}
	if isSDC {
		t.Fatal("real counter-example classified as SDC")
	}
}
