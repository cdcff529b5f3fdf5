package miter

import (
	"math/rand"
	"testing"
	"testing/quick"

	"simsweep/internal/aig"
)

// twoAdders returns two structurally different 4-bit adders.
func twoAdders() (*aig.AIG, *aig.AIG) {
	build := func(variant bool) *aig.AIG {
		g := aig.New()
		var a, b [4]aig.Lit
		for i := range a {
			a[i] = g.AddPI()
		}
		for i := range b {
			b[i] = g.AddPI()
		}
		carry := aig.False
		for i := 0; i < 4; i++ {
			var sum aig.Lit
			if variant {
				sum = g.Xor(g.Xor(a[i], b[i]), carry)
				carry = g.Or(g.And(a[i], b[i]), g.And(carry, g.Or(a[i], b[i])))
			} else {
				t := g.Xor(b[i], carry)
				sum = g.Xor(a[i], t)
				carry = g.Or(g.And(a[i], b[i]), g.And(g.Xor(a[i], b[i]), carry))
			}
			g.AddPO(sum)
		}
		g.AddPO(carry)
		return g
	}
	return build(false), build(true)
}

func TestBuildMiterOfEquivalentCircuits(t *testing.T) {
	a, b := twoAdders()
	m, err := Build(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumPIs() != a.NumPIs() || m.NumPOs() != a.NumPOs() {
		t.Fatalf("miter interface %d/%d", m.NumPIs(), m.NumPOs())
	}
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 64; k++ {
		in := make([]bool, m.NumPIs())
		for i := range in {
			in[i] = rng.Intn(2) == 1
		}
		for i, v := range m.Eval(in) {
			if v {
				t.Fatalf("miter PO %d fired for equivalent circuits", i)
			}
		}
	}
}

func TestBuildMiterDetectsDifference(t *testing.T) {
	a, b := twoAdders()
	// Corrupt b: complement one PO.
	b.SetPO(2, b.PO(2).Not())
	m, err := Build(a, b)
	if err != nil {
		t.Fatal(err)
	}
	fired := false
	rng := rand.New(rand.NewSource(2))
	for k := 0; k < 64 && !fired; k++ {
		in := make([]bool, m.NumPIs())
		for i := range in {
			in[i] = rng.Intn(2) == 1
		}
		out := m.Eval(in)
		fired = out[2]
	}
	if !fired {
		t.Fatal("corrupted miter never fired")
	}
}

func TestBuildRejectsMismatchedInterfaces(t *testing.T) {
	a := aig.New()
	a.AddPI()
	a.AddPO(aig.False)
	b := aig.New()
	b.AddPI()
	b.AddPI()
	b.AddPO(aig.False)
	if _, err := Build(a, b); err == nil {
		t.Fatal("PI mismatch accepted")
	}
	c := aig.New()
	c.AddPI()
	if _, err := Build(a, c); err == nil {
		t.Fatal("PO mismatch accepted")
	}
}

func TestReduceMergesEquivalentNodes(t *testing.T) {
	g := aig.New()
	a := g.AddPI()
	b := g.AddPI()
	x1 := g.Xor(a, b)
	x2 := g.And(g.Or(a, b), g.And(a, b).Not()) // also XOR, different structure
	g.AddPO(g.Xor(x1, x2))                     // miter-like output, constant 0
	before := g.NumAnds()

	// Prove by hand: node(x1) computes XNOR, node(x2) computes XOR.
	m := Merge{Member: int32(x2.ID()), Target: aig.MakeLit(x1.ID(), true)}
	if x2.ID() < x1.ID() {
		m = Merge{Member: int32(x1.ID()), Target: aig.MakeLit(x2.ID(), true)}
	}
	red, mapping, err := Reduce(g, []Merge{m})
	if err != nil {
		t.Fatal(err)
	}
	if !IsProved(red) {
		t.Fatalf("reduced miter not proved: PO = %v", red.PO(0))
	}
	if red.NumAnds() != 0 {
		t.Fatalf("reduced miter has %d ANDs, want 0 (before: %d)", red.NumAnds(), before)
	}
	if mapping[0] != aig.False {
		t.Fatal("constant mapping broken")
	}
	if red.NumPIs() != g.NumPIs() {
		t.Fatal("PIs lost in reduction")
	}
}

func TestReduceValidatesMerges(t *testing.T) {
	g := aig.New()
	a := g.AddPI()
	b := g.AddPI()
	ab := g.And(a, b)
	g.AddPO(ab)
	if _, _, err := Reduce(g, []Merge{{Member: int32(a.ID()), Target: aig.MakeLit(ab.ID(), false)}}); err == nil {
		t.Fatal("merge into younger target accepted")
	}
	if _, _, err := Reduce(g, []Merge{
		{Member: int32(ab.ID()), Target: aig.False},
		{Member: int32(ab.ID()), Target: aig.True},
	}); err == nil {
		t.Fatal("double merge accepted")
	}
	if _, _, err := Reduce(g, []Merge{{Member: 10000, Target: aig.False}}); err == nil {
		t.Fatal("out-of-range member accepted")
	}
}

func TestReduceTransitiveChains(t *testing.T) {
	// c merges into b, b merges into a: c must land on a.
	g := aig.New()
	x := g.AddPI()
	y := g.AddPI()
	aN := g.And(x, y)
	bN := g.And(g.And(x, y), g.Or(x, y)) // equals x&y
	cN := g.And(bN, g.Or(x, y))          // equals x&y
	g.AddPO(cN)
	red, _, err := Reduce(g, []Merge{
		{Member: int32(bN.ID()), Target: aig.MakeLit(aN.ID(), false)},
		{Member: int32(cN.ID()), Target: aig.MakeLit(bN.ID(), false)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if red.NumAnds() != 1 {
		t.Fatalf("chain reduction left %d ANDs, want 1", red.NumAnds())
	}
	// Function preserved.
	for k := 0; k < 4; k++ {
		in := []bool{k&1 == 1, k&2 == 2}
		if red.Eval(in)[0] != g.Eval(in)[0] {
			t.Fatalf("function changed at input %d", k)
		}
	}
}

func TestCleanDropsDanglingKeepsPIs(t *testing.T) {
	g := aig.New()
	a := g.AddPI()
	b := g.AddPI()
	c := g.AddPI()
	used := g.And(a, b)
	g.And(b, c) // dangling
	g.AddPO(used)
	clean, mapping := Clean(g)
	if clean.NumAnds() != 1 {
		t.Fatalf("clean left %d ANDs, want 1", clean.NumAnds())
	}
	if clean.NumPIs() != 3 {
		t.Fatalf("clean dropped PIs: %d", clean.NumPIs())
	}
	if mapping[used.ID()].ID() == 0 {
		t.Fatal("used node mapped to constant")
	}
}

func TestFires(t *testing.T) {
	g := aig.New()
	a := g.AddPI()
	g.AddPO(aig.False)
	g.AddPO(a)
	if Fires(g, []bool{false}) {
		t.Fatal("input 0 fires a miter whose outputs are 0 and a")
	}
	if !Fires(g, []bool{true}) {
		t.Fatal("input 1 does not fire output a")
	}
}

func TestIsProvedAndDisproved(t *testing.T) {
	g := aig.New()
	a := g.AddPI()
	g.AddPO(aig.False)
	if !IsProved(g) {
		t.Fatal("all-zero miter not proved")
	}
	g.AddPO(a)
	if IsProved(g) {
		t.Fatal("non-constant miter proved")
	}
	if IsDisprovedStructurally(g) {
		t.Fatal("non-constant miter structurally disproved")
	}
	g.AddPO(aig.True)
	if !IsDisprovedStructurally(g) {
		t.Fatal("constant-one PO not detected")
	}
}

func TestQuickMiterOfIdenticalCircuitsReducesToZero(t *testing.T) {
	// Property: the miter of a circuit against itself strashes to
	// constant-zero POs (perfect structural sharing).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := aig.New()
		lits := []aig.Lit{}
		for i := 0; i < 4; i++ {
			lits = append(lits, g.AddPI())
		}
		for i := 0; i < 25; i++ {
			a := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 1)
			b := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 1)
			lits = append(lits, g.And(a, b))
		}
		g.AddPO(lits[len(lits)-1])
		m, err := Build(g, g)
		if err != nil {
			return false
		}
		return IsProved(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickReducePreservesPOFunctions(t *testing.T) {
	// Property: reducing with a *correct* merge never changes PO
	// functions. We merge a re-built duplicate of a random node.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := aig.New()
		lits := []aig.Lit{}
		for i := 0; i < 4; i++ {
			lits = append(lits, g.AddPI())
		}
		for i := 0; i < 20; i++ {
			a := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 1)
			b := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 1)
			lits = append(lits, g.And(a, b))
		}
		// Build an equivalent-but-distinct node: x & x via double
		// negation trick (x | x) re-expressed.
		target := lits[len(lits)-1]
		if !g.IsAnd(target.ID()) {
			return true
		}
		f0, f1 := g.Fanins(target.ID())
		dup := g.And(g.And(f0, f1), g.Or(f0, f1)) // same function as target node
		if dup.ID() <= target.ID() || dup.IsCompl() {
			return true // strashed away or phase-altered; nothing to merge
		}
		g.AddPO(dup)
		g.AddPO(target)
		red, _, err := Reduce(g, []Merge{{Member: int32(dup.ID()), Target: target.Regular()}})
		if err != nil {
			return false
		}
		for k := 0; k < 16; k++ {
			in := make([]bool, 4)
			for i := range in {
				in[i] = rng.Intn(2) == 1
			}
			oa, ob := g.Eval(in), red.Eval(in)
			for i := range oa {
				if oa[i] != ob[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
