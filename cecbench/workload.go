package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"

	"simsweep"
	"simsweep/internal/aig"
	"simsweep/internal/gen"
	"simsweep/internal/miter"
	"simsweep/internal/opt"
	"simsweep/internal/par"
)

// benchCase is one miter of a workload: a benchmark family at a scale,
// doubled once (the paper's "_1xd" construction), checked against its
// resyn2-optimized copy. Bug seeds a rare-activation bug into the
// optimized copy, which makes the miter NEQ by construction.
type benchCase struct {
	Family string
	Scale  int
	Bug    bool
}

func (c benchCase) String() string {
	s := fmt.Sprintf("%s_%d_1xd", c.Family, c.Scale)
	if c.Bug {
		s += "_bug"
	}
	return s
}

// workload is a named list of miters. Why records the reason the workload
// is in the benchmark: which layers it stresses and which it bypasses.
type workload struct {
	Name  string
	Why   string
	Cases []benchCase
}

// workloads are the benchmark's traffic. Sizes keep one round of a
// workload (every miter checked once) to about three seconds and its
// set-up to a few, so a run's medians are taken over several rounds.
var workloads = []workload{
	{
		Name: "datapath-eq",
		Why: "EQ arithmetic miters that simulation proves alone (0 SAT calls): P-phase exhaustive windows, " +
			"plus L-phase cuts on the multiplier",
		Cases: []benchCase{
			{Family: "multiplier", Scale: 12},
			{Family: "square", Scale: 10},
			{Family: "log2", Scale: 16},
		},
	},
	{
		Name: "control-eq",
		Why: "EQ control fabrics that simulation only partly reduces, so the SAT stage takes about half " +
			"of the wall time",
		Cases: []benchCase{
			{Family: "ac97_ctrl", Scale: 12},
			{Family: "vga_lcd", Scale: 7},
		},
	},
	{
		Name: "bughunt-neq",
		Why: "NEQ miters with one rare-activation bug: disproof with early exit, by exhaustive P windows " +
			"(multiplier) or by the SAT stage after idle G/L phases (control)",
		Cases: []benchCase{
			{Family: "multiplier", Scale: 11, Bug: true},
			{Family: "ac97_ctrl", Scale: 12, Bug: true},
			{Family: "vga_lcd", Scale: 6, Bug: true},
		},
	},
}

// generate builds a case's circuit. Control fabrics take their scale as a
// word count, with the fabric seeds gen.Benchmark uses: gen.Benchmark
// offers only multiples of four words, and vga_lcd at 8 words checks in
// over 6 s, at 4 words in 20 s of exhaustive P phase.
func generate(c benchCase) (*aig.AIG, error) {
	switch c.Family {
	case "ac97_ctrl":
		return gen.Control(gen.StyleAC97, c.Scale, 97)
	case "vga_lcd":
		return gen.Control(gen.StyleVGA, c.Scale, 64)
	}
	return gen.Benchmark(c.Family, c.Scale)
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// A seeded bug ANDs up to maxBugLiterals PI literals, on an output whose
// support has at least minBugLiterals PIs: it activates on at most one in
// 2^minBugLiterals input patterns, out of reach of random simulation.
// Where the support is wider than the engine's exhaustive PO limit (KP =
// 32), so is the bug, and only the SAT stage can find it.
const (
	minBugLiterals = 20
	maxBugLiterals = 40
)

// instance is a generated miter with its known answer. Witness, for NEQ
// miters, is a PI assignment that sets some output.
type instance struct {
	Miter   *aig.AIG
	Witness []bool
}

// buildInstance generates a case from the seed: generate → double →
// resyn2 → (bug) → miter. The program under test only ever sees the
// resulting miter. Each step into the program runs inside a span on the
// benchmark's own track of tr (nil: untraced). The miter keeps the
// generator's PI order: renumbering the PIs by a seeded permutation moved
// one multiplier bug's P phase between 0.8 s and 2.5 s, so the seed would
// have picked the difficulty.
func buildInstance(c benchCase, seed int64, dev *par.Device, tr *simsweep.Tracer) (*instance, error) {
	buf := tr.Buf(benchTrack)
	step := func(name string, fn func()) {
		sp := buf.Begin(catBench, name)
		fn()
		sp.End()
	}
	var g *aig.AIG
	var err error
	step("gen", func() { g, err = generate(c) })
	if err != nil {
		return nil, err
	}
	step("aig.double", func() { g = aig.DoubleN(g, 1) })
	var o *aig.AIG
	step("opt.resyn2", func() { o = opt.Resyn2(g, dev) })

	var witness []bool
	if c.Bug {
		h := fnv.New64a()
		fmt.Fprintf(h, "%d/%v", seed, c)
		if o, witness, err = injectBug(o, rand.New(rand.NewSource(int64(h.Sum64())))); err != nil {
			return nil, fmt.Errorf("%v: %w", c, err)
		}
	}
	var m *aig.AIG
	step("miter.build", func() { m, err = miter.Build(g, o) })
	if err != nil {
		return nil, err
	}
	m.Name = c.String()
	if witness != nil && !anyTrue(m.Eval(witness)) {
		return nil, fmt.Errorf("%v: seeded bug is not activated by its witness", c)
	}
	return &instance{Miter: m, Witness: witness}, nil
}

// injectBug XORs output j of g with the AND of up to maxBugLiterals PIs of
// j's support: a corner-case bug that activates only when all of them are
// 1, as on all-ones operands. The result differs from g exactly on those
// patterns. The bug's place is fixed so that its cost is: output j is the
// first output of widest support, and the all-ones minterm is the last
// pattern exhaustive simulation of the support reaches under any input
// order. The seed draws which PIs the bug reads when the support is wider
// than maxBugLiterals, and the witness's other PIs.
func injectBug(g *aig.AIG, rng *rand.Rand) (*aig.AIG, []bool, error) {
	var sup []int
	j := -1
	for po := 0; po < g.NumPOs(); po++ {
		if s := supportPIs(g, g.PO(po)); len(s) > len(sup) {
			j, sup = po, s
		}
	}
	if len(sup) < minBugLiterals {
		return nil, nil, fmt.Errorf("no output has a support of %d PIs", minBugLiterals)
	}
	witness := make([]bool, g.NumPIs())
	for i := range witness {
		witness[i] = rng.Intn(2) == 1
	}
	rng.Shuffle(len(sup), func(a, b int) { sup[a], sup[b] = sup[b], sup[a] })
	out := g.Copy()
	bug := aig.True
	for _, pi := range sup[:min(len(sup), maxBugLiterals)] {
		bug = out.And(bug, out.PI(pi))
		witness[pi] = true
	}
	out.SetPO(j, out.Xor(out.PO(j), bug))
	return out, witness, nil
}

// supportPIs returns the PI positions in the cone of l, ascending.
func supportPIs(g *aig.AIG, l aig.Lit) []int {
	piPos := make(map[int]int, g.NumPIs())
	for i := 0; i < g.NumPIs(); i++ {
		piPos[g.PIID(i)] = i
	}
	var sup []int
	seen := map[int]bool{l.ID(): true}
	stack := []int{l.ID()}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if p, ok := piPos[id]; ok {
			sup = append(sup, p)
			continue
		}
		if !g.IsAnd(id) {
			continue
		}
		f0, f1 := g.Fanins(id)
		for _, f := range [2]aig.Lit{f0, f1} {
			if !seen[f.ID()] {
				seen[f.ID()] = true
				stack = append(stack, f.ID())
			}
		}
	}
	sort.Ints(sup)
	return sup
}

func anyTrue(v []bool) bool {
	for _, b := range v {
		if b {
			return true
		}
	}
	return false
}
