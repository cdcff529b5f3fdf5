package sim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"simsweep/internal/aig"
	"simsweep/internal/fault"
	"simsweep/internal/gen"
	"simsweep/internal/par"
)

// greedyCut returns a cut of root with at most k leaves: starting from
// {root}, the highest-id AND leaf is replaced by its fanins while the leaf
// count stays within k. The result always cuts root from the PIs.
func greedyCut(g *aig.AIG, root int32, k int) []int32 {
	leaves := []int32{root}
	for {
		slices.Sort(leaves)
		i := len(leaves) - 1
		for i >= 0 && !g.IsAnd(int(leaves[i])) {
			i--
		}
		if i < 0 {
			return leaves
		}
		f0, f1 := g.Fanins(int(leaves[i]))
		next := slices.Delete(slices.Clone(leaves), i, i+1)
		for _, f := range []int32{int32(f0.ID()), int32(f1.ID())} {
			if !slices.Contains(next, f) {
				next = append(next, f)
			}
		}
		if len(next) > k {
			return leaves
		}
		leaves = next
	}
}

// randomSpecs draws window specs over g: local cuts of one or two roots,
// global supports, cuts with one leaf dropped (usually leaky) and random
// node sets (usually leaky), with duplicate and constant roots mixed in.
func randomSpecs(g *aig.AIG, rng *rand.Rand, n int) []Spec {
	var ands []int32
	for id := 1; id < g.NumNodes(); id++ {
		if g.IsAnd(id) {
			ands = append(ands, int32(id))
		}
	}
	specs := make([]Spec, 0, n)
	for len(specs) < n {
		r1 := ands[rng.Intn(len(ands))]
		r2 := ands[rng.Intn(len(ands))]
		var roots []int32
		var inputs []int32
		switch rng.Intn(5) {
		case 0: // local cut of one root
			roots = []int32{r1}
			inputs = greedyCut(g, r1, 2+rng.Intn(7))
		case 1: // a common cut of two roots: the union of their cuts
			roots = []int32{min(r1, r2), max(r1, r2)}
			inputs = unionSorted(greedyCut(g, r1, 4), greedyCut(g, r2, 4))
		case 2: // global support, with a duplicated and a constant root
			roots = []int32{r1, 0, r1}
			inputs = g.SupportOfMany([]int{int(r1)})
		case 3: // a cut with one leaf dropped
			roots = []int32{r1}
			inputs = greedyCut(g, r1, 6)
			drop := rng.Intn(len(inputs))
			inputs = slices.Delete(slices.Clone(inputs), drop, drop+1)
		default: // random nodes, the root possibly among them
			roots = []int32{r1}
			for j := rng.Intn(6); j >= 0; j-- {
				inputs = append(inputs, int32(rng.Intn(int(r1)+1)))
			}
			slices.Sort(inputs)
			inputs = slices.Compact(inputs)
		}
		specs = append(specs, Spec{Roots: roots, Inputs: inputs, PairIdx: []int32{int32(len(specs))}})
	}
	return specs
}

// sameWindow compares a built window with the reference's: both failed, or
// both succeeded with identical node lists, fan tables and specs.
func sameWindow(got *Window, gotErr error, want *Window, wantErr error) error {
	if (gotErr != nil) != (wantErr != nil) || (got == nil) != (want == nil) {
		return fmt.Errorf("error %v, reference error %v", gotErr, wantErr)
	}
	if want == nil {
		return nil
	}
	if !slices.Equal(got.Nodes, want.Nodes) {
		return fmt.Errorf("nodes %v, reference %v", got.Nodes, want.Nodes)
	}
	if !slices.Equal(got.Fan, want.Fan) {
		return fmt.Errorf("fan table %v, reference %v", got.Fan, want.Fan)
	}
	if !slices.Equal(got.Roots, want.Roots) || !slices.Equal(got.Inputs, want.Inputs) || !slices.Equal(got.PairIdx, want.PairIdx) {
		return fmt.Errorf("spec %+v, reference %+v", got.Spec, want.Spec)
	}
	return nil
}

// TestBuilderMatchesReference is the differential property test of the
// stamp Builder and of BuildWindows against the map-based reference, on
// random graphs and benchmark families, with plain and merged specs.
func TestBuilderMatchesReference(t *testing.T) {
	graphs := map[string]*aig.AIG{
		"random-a": gen.Random(12, 4, 300, 1),
		"random-b": gen.Random(24, 8, 900, 2),
	}
	for _, name := range []string{"multiplier", "vga_lcd", "ac97_ctrl", "voter"} {
		g, err := gen.Benchmark(name, 1+map[string]int{"multiplier": 5}[name])
		if err != nil {
			t.Fatal(err)
		}
		graphs[name] = g
	}
	dev := par.NewDevice(4)
	for name, g := range graphs {
		rng := rand.New(rand.NewSource(int64(len(name))))
		specs := randomSpecs(g, rng, 400)
		merged := MergeSpecs(specs, 12)
		if len(merged) == len(specs) {
			t.Fatalf("%s: no spec merged", name)
		}
		var b Builder // one builder across every spec: stamps must not leak
		for set, ss := range [][]Spec{specs, merged} {
			wins, err := BuildWindows(dev, g, ss)
			if err != nil {
				t.Fatal(err)
			}
			failed := 0
			for i, s := range ss {
				want, wantErr := referenceWindow(g, s)
				if wantErr != nil {
					failed++
				}
				got, gotErr := b.Build(g, s)
				if err := sameWindow(got, gotErr, want, wantErr); err != nil {
					t.Fatalf("%s set %d spec %d (%+v): Builder: %v", name, set, i, s, err)
				}
				if err := sameWindow(wins[i], nil, want, nil); err != nil {
					t.Fatalf("%s set %d spec %d (%+v): BuildWindows: %v", name, set, i, s, err)
				}
			}
			if set == 0 && (failed == 0 || failed == len(ss)) {
				t.Fatalf("%s: %d of %d specs leak; the draw exercises only one outcome", name, failed, len(ss))
			}
		}
	}
}

// TestBuilderEdgeCases covers a root that is also an input, a constant
// root, a PI root outside the inputs, and the generation counter wrapping.
func TestBuilderEdgeCases(t *testing.T) {
	g := aig.New()
	a, b, c := g.AddPI(), g.AddPI(), g.AddPI()
	ab := g.And(a, b)
	top := g.And(ab.Not(), c)
	id := func(l aig.Lit) int32 { return int32(l.ID()) }
	var bl Builder

	// A root that is an input is a slot, not a node.
	spec := Spec{Roots: []int32{id(ab), id(top)}, Inputs: []int32{id(ab), id(c)}}
	w, err := bl.Build(g, spec)
	want, wantErr := referenceWindow(g, spec)
	if err := sameWindow(w, err, want, wantErr); err != nil || !slices.Equal(w.Nodes, []int32{id(top)}) {
		t.Fatalf("root-as-input window: nodes %v fan %v: %v", w.Nodes, w.Fan, err)
	}
	if s, ok := w.slotOf(id(ab)); !ok || s != 0 {
		t.Fatalf("input root slot = %d,%v, want 0", s, ok)
	}

	// A constant root contributes no node; the checker compares against 0.
	w, err = bl.Build(g, Spec{Roots: []int32{0}, Inputs: []int32{id(a)}})
	if err != nil || len(w.Nodes) != 0 || len(w.Fan) != 0 {
		t.Fatalf("constant-root window: %+v, %v", w, err)
	}

	// A PI root that is not an input escapes the cut.
	if _, err := bl.Build(g, Spec{Roots: []int32{id(a)}, Inputs: []int32{id(b)}}); err == nil {
		t.Fatal("PI root outside the inputs accepted")
	}

	// Generation wrap: a fresh builder stamps cone 1 in its first
	// generation; the last generation before the wrap builds a disjoint
	// cone 2; the first build after the wrap reuses the first generation's
	// stamp values and must not see cone 1's old marks.
	d, e := g.AddPI(), g.AddPI()
	x := g.And(d, e.Not())
	cone1 := Spec{Roots: []int32{id(top)}, Inputs: []int32{id(a), id(b), id(c)}}
	cone2 := Spec{Roots: []int32{id(x)}, Inputs: []int32{id(d), id(e)}}
	var wb Builder
	for i, s := range []Spec{cone1, cone2, cone1} {
		if i == 1 {
			wb.gen = math.MaxUint32 - 3
		}
		want, _ := referenceWindow(g, s)
		got, err := wb.Build(g, s)
		if err := sameWindow(got, err, want, nil); err != nil {
			t.Fatalf("build %d around the wrap (gen %d): %v", i, wb.gen, err)
		}
	}
	if wb.gen != 2 {
		t.Fatalf("generation %d after the wrap, want 2", wb.gen)
	}
	if _, err := wb.Build(g, Spec{Roots: []int32{id(top)}, Inputs: []int32{id(ab)}}); err == nil {
		t.Fatal("leaky inputs accepted after the wrap")
	}
}

// buildWindowsFixture draws n local-cut specs over a control fabric, the
// shape of an L-phase flush.
func buildWindowsFixture(tb testing.TB, n int) (*aig.AIG, []Spec) {
	tb.Helper()
	g, err := gen.Benchmark("vga_lcd", 2)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	specs := make([]Spec, n)
	for i := range specs {
		for {
			r := int32(1 + rng.Intn(g.NumNodes()-1))
			if g.IsAnd(int(r)) {
				specs[i] = Spec{Roots: []int32{r}, Inputs: greedyCut(g, r, 8), PairIdx: []int32{int32(i)}}
				break
			}
		}
	}
	return g, specs
}

// TestBuildWindowsAllocs bounds the allocations of one BuildWindows call:
// the window slab, the result slice, the launch and one packed buffer per
// chunk — never one per window.
func TestBuildWindowsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	g, specs := buildWindowsFixture(t, 2000)
	dev := par.NewDevice(4)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := BuildWindows(dev, g, specs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 64 {
		t.Fatalf("BuildWindows of %d specs: %.0f allocs/op, want at most 64", len(specs), allocs)
	}
}

// BenchmarkBuildWindows materialises an L-phase-sized flush of local-cut
// windows in one launch.
func BenchmarkBuildWindows(b *testing.B) {
	g, specs := buildWindowsFixture(b, 4096)
	dev := par.NewDevice(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildWindows(dev, g, specs); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCheckIntoWithdrawsOnlyItsBatch checks two batches into one Result:
// a healthy one, then one whose kernel panics. The faulted batch's pairs
// are withdrawn; the healthy batch's proofs stay.
func TestCheckIntoWithdrawsOnlyItsBatch(t *testing.T) {
	_, pairs, windows := deepParityBatch(t, 4, 9)
	res := Result{Equal: make([]bool, len(pairs)), Mismatch: make([]Mismatch, len(pairs))}
	NewExhaustive(dev(), 0).CheckInto(&res, pairs, windows[:2])
	faulty := par.NewDevice(2)
	faulty.SetFaults(fault.MustParse("par.worker.panic:at=1", 1))
	NewExhaustive(faulty, 0).CheckInto(&res, pairs, windows[2:])
	if res.Err == nil {
		t.Fatal("injected kernel panic not reported")
	}
	if !slices.Equal(res.Equal, []bool{true, true, false, false}) {
		t.Fatalf("equal = %v, want the healthy batch's proofs only", res.Equal)
	}
}

// TestCheckBatchRootOutsideWindow: a pair whose root is neither an input
// nor a node of its window cannot be simulated and stays unproven, while
// its window's other pair is still decided.
func TestCheckBatchRootOutsideWindow(t *testing.T) {
	g := aig.New()
	a, b, c := g.AddPI(), g.AddPI(), g.AddPI()
	n := g.And(a, b)
	other := g.And(b, c)
	w := mustWindow(t, g, Spec{Roots: []int32{int32(n.ID())}, Inputs: g.SupportOf(n.ID()), PairIdx: []int32{0, 1}})
	pairs := []Pair{
		{A: int32(n.ID()), B: int32(n.ID())},     // trivially equal
		{A: int32(other.ID()), B: int32(n.ID())}, // other is outside the window
	}
	res := NewExhaustive(dev(), 0).CheckBatch(pairs, []*Window{w})
	if !res.Equal[0] || res.Equal[1] || res.CEX(1) != nil {
		t.Fatalf("equal = %v, cex(1) = %v: want pair 0 proved and pair 1 unproven", res.Equal, res.CEX(1))
	}
}
