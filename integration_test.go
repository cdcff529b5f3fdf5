package simsweep

// Cross-module integration tests: every benchmark family through the full
// generate → optimize → miter → check pipeline, engine agreement, CEX
// validity, and the AIGER interchange loop.

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// familyScale picks a small instance per family for integration testing.
func familyScale(name string) int {
	switch name {
	case "hyp":
		return 4
	case "sqrt":
		return 8
	case "voter":
		return 2
	case "ac97_ctrl", "vga_lcd":
		return 2
	default:
		return 6
	}
}

func TestIntegrationAllFamiliesVerifyAfterOptimization(t *testing.T) {
	for _, name := range BenchmarkNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			g, err := Generate(name, familyScale(name))
			if err != nil {
				t.Fatal(err)
			}
			o := Optimize(g)
			res, err := CheckEquivalence(g, o, Options{Seed: 21})
			if err != nil {
				t.Fatal(err)
			}
			if res.Outcome != Equivalent {
				t.Fatalf("%s: optimizer+checker disagree: %v (reduced %.1f%%)",
					name, res.Outcome, res.ReducedPercent)
			}
		})
	}
}

func TestIntegrationSimEngineAloneOnAllFamilies(t *testing.T) {
	// The sim engine alone must never produce a wrong verdict; it may be
	// undecided but on these small instances it should prove most.
	proved := 0
	for _, name := range BenchmarkNames() {
		g, err := Generate(name, familyScale(name))
		if err != nil {
			t.Fatal(err)
		}
		o := Optimize(g)
		res, err := CheckEquivalence(g, o, Options{Engine: EngineSim, Seed: 22})
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome == NotEquivalent {
			t.Fatalf("%s: sim engine disproved an equivalent pair", name)
		}
		if res.Outcome == Equivalent {
			proved++
		}
	}
	if proved < 5 {
		t.Fatalf("sim engine alone proved only %d of %d families", proved, len(BenchmarkNames()))
	}
}

func TestIntegrationMutationsAreCaught(t *testing.T) {
	// Inject a distinct structural bug into each family's optimized copy
	// and require detection plus a valid counter-example.
	rng := rand.New(rand.NewSource(23))
	for _, name := range []string{"multiplier", "voter", "sin", "ac97_ctrl"} {
		g, err := Generate(name, familyScale(name))
		if err != nil {
			t.Fatal(err)
		}
		o := Optimize(g)
		bad := o.Copy()
		po := rng.Intn(bad.NumPOs())
		// Mutation: XOR the chosen output with an AND of two inputs.
		a := bad.PI(rng.Intn(bad.NumPIs()))
		b := bad.PI(rng.Intn(bad.NumPIs()))
		mutant := bad.And(a, b)
		if mutant == False {
			mutant = a
		}
		bad.SetPO(po, bad.Xor(bad.PO(po), mutant))

		m, err := BuildMiter(g, bad)
		if err != nil {
			t.Fatal(err)
		}
		res, err := CheckMiter(m, Options{Seed: 24})
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome != NotEquivalent {
			t.Fatalf("%s: mutation escaped (%v)", name, res.Outcome)
		}
		fired := false
		for _, v := range m.Eval(res.CEX) {
			fired = fired || v
		}
		if !fired {
			t.Fatalf("%s: CEX does not fire the miter", name)
		}
	}
}

func TestIntegrationAIGERInterchangeAcrossEngines(t *testing.T) {
	// Write both halves to AIGER (one binary, one ASCII), read back, and
	// check with the portfolio: exercises I/O + all engines in one run.
	g, err := Generate("sqrt", 8)
	if err != nil {
		t.Fatal(err)
	}
	o := Optimize(g)
	var bin, asc bytes.Buffer
	if err := WriteAIGER(&bin, g, true); err != nil {
		t.Fatal(err)
	}
	if err := WriteAIGER(&asc, o, false); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadAIGER(&bin)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := ReadAIGER(&asc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := CheckEquivalence(g2, o2, Options{Engine: EnginePortfolio, Seed: 25})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Equivalent {
		t.Fatalf("outcome = %v via %s", res.Outcome, res.EngineUsed)
	}
}

func TestIntegrationDeterministicVerdicts(t *testing.T) {
	// Same seed -> same verdict and same reduction; the engine is
	// deterministic modulo goroutine scheduling.
	g, err := Generate("square", 6)
	if err != nil {
		t.Fatal(err)
	}
	o := Optimize(g)
	var firstReduced float64
	for i := 0; i < 3; i++ {
		res, err := CheckEquivalence(g, o, Options{Engine: EngineSim, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome != Equivalent {
			t.Fatalf("run %d: %v", i, res.Outcome)
		}
		if i == 0 {
			firstReduced = res.ReducedPercent
		} else if res.ReducedPercent != firstReduced {
			t.Fatalf("run %d: reduction %.3f differs from %.3f", i, res.ReducedPercent, firstReduced)
		}
	}
}

func TestIntegrationEquivalentButDissimilarImplementations(t *testing.T) {
	// Hand-build two genuinely different adder architectures (ripple vs
	// carry-select) and prove them equivalent — no optimizer involved,
	// so the miter has real structural distance.
	const n = 8
	ripple := NewAIG()
	{
		a := make([]Lit, n)
		b := make([]Lit, n)
		for i := range a {
			a[i] = ripple.AddPI()
		}
		for i := range b {
			b[i] = ripple.AddPI()
		}
		c := False
		for i := 0; i < n; i++ {
			s := ripple.Xor(ripple.Xor(a[i], b[i]), c)
			c = ripple.Or(ripple.And(a[i], b[i]), ripple.And(c, ripple.Xor(a[i], b[i])))
			ripple.AddPO(s)
		}
		ripple.AddPO(c)
	}
	sel := NewAIG()
	{
		a := make([]Lit, n)
		b := make([]Lit, n)
		for i := range a {
			a[i] = sel.AddPI()
		}
		for i := range b {
			b[i] = sel.AddPI()
		}
		// Carry-select: compute each half for carry-in 0 and 1, pick.
		half := func(lo, hi int, cin Lit) ([]Lit, Lit) {
			var sums []Lit
			c := cin
			for i := lo; i < hi; i++ {
				sums = append(sums, sel.Xor(sel.Xor(a[i], b[i]), c))
				c = sel.Or(sel.And(a[i], b[i]), sel.And(c, sel.Or(a[i], b[i])))
			}
			return sums, c
		}
		lowSums, lowCarry := half(0, n/2, False)
		hi0, c0 := half(n/2, n, False)
		hi1, c1 := half(n/2, n, True)
		for _, s := range lowSums {
			sel.AddPO(s)
		}
		for i := range hi0 {
			sel.AddPO(sel.Mux(lowCarry, hi1[i], hi0[i]))
		}
		sel.AddPO(sel.Mux(lowCarry, c1, c0))
	}
	for _, engine := range []Engine{EngineSim, EngineSAT, EngineHybrid} {
		res, err := CheckEquivalence(ripple, sel, Options{Engine: engine, Seed: 31})
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome != Equivalent {
			t.Fatalf("%s: ripple vs carry-select = %v", engine, res.Outcome)
		}
	}
}

// TestIntegrationDeterministicControlSweep pins run-to-run determinism of
// the whole hybrid flow on a control fabric, where simulation leaves many
// candidate classes open: one seed must give one merge journal, one
// reduction and one SAT call count. The class order was once taken from a
// Go map, which made the candidate order, and with it all three, vary
// between runs.
func TestIntegrationDeterministicControlSweep(t *testing.T) {
	g, err := Generate("vga_lcd", 2)
	if err != nil {
		t.Fatal(err)
	}
	o := Optimize(g)
	type run struct {
		journal  []ProvedPair
		reduced  float64
		satCalls int
	}
	var first run
	for i := 0; i < 3; i++ {
		tr := NewTracer(1 << 16)
		res, err := CheckEquivalence(g, o, Options{Seed: 7, Workers: 2, Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome != Equivalent {
			t.Fatalf("run %d: %v", i, res.Outcome)
		}
		r := run{journal: res.Journal, reduced: res.ReducedPercent}
		for _, e := range tr.Events() {
			if e.Name == "sat.pair" || e.Name == "sat.po" {
				r.satCalls++
			}
		}
		if i == 0 {
			first = r
			continue
		}
		if !reflect.DeepEqual(r.journal, first.journal) {
			t.Fatalf("run %d: journal of %d merges differs from the first run's %d", i, len(r.journal), len(first.journal))
		}
		if r.reduced != first.reduced || r.satCalls != first.satCalls {
			t.Fatalf("run %d: reduced %.3f%%, %d SAT calls; first run %.3f%%, %d SAT calls",
				i, r.reduced, r.satCalls, first.reduced, first.satCalls)
		}
	}
}
