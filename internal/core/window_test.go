package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"simsweep/internal/aig"
	"simsweep/internal/fault"
	"simsweep/internal/gen"
	"simsweep/internal/opt"
	"simsweep/internal/par"
	"simsweep/internal/sim"
)

// launchSequence runs one check on a single-worker device and returns the
// name of every launch that executed its body. On one worker each such
// launch runs as one chunk, so its position (1-based) is the visit number
// of the par.worker.panic hook that fires inside it.
func launchSequence(m *aig.AIG, cfg Config) ([]string, Result) {
	dev := par.NewDevice(1)
	var seq []string
	dev.SetObserver(func(name string, items int, _ time.Duration) {
		if items > 0 {
			seq = append(seq, name)
		}
	})
	cfg.Dev = dev
	return seq, CheckMiter(m, cfg)
}

// TestWindowBuildPanicWithdrawsVerdict fires par.worker.panic inside the
// first window.build launch of a P phase and of an L phase. The phase must
// abort with a fault naming the kernel, and the verdict must be withdrawn
// to Undecided, never flipped.
func TestWindowBuildPanicWithdrawsVerdict(t *testing.T) {
	mult, err := gen.Multiplier(6)
	if err != nil {
		t.Fatal(err)
	}
	vga, err := gen.Benchmark("vga_lcd", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		m     *aig.AIG
		after string // sabotage the first window.build after this launch
	}{
		{"multiplier P", mustMiter(t, mult, opt.Resyn2(mult, nil)), ""},
		{"vga_lcd L", mustMiter(t, vga, opt.Resyn2(vga, nil)), "cuts.strata"},
	} {
		cfg := smallConfig()
		seq, healthy := launchSequence(tc.m, cfg)
		if healthy.Outcome == NotEquivalent || healthy.Degraded {
			t.Fatalf("%s: healthy run %v degraded=%v", tc.name, healthy.Outcome, healthy.Degraded)
		}
		at, armed := -1, tc.after == ""
		for i, name := range seq {
			if armed && name == "window.build" {
				at = i + 1
				break
			}
			armed = armed || name == tc.after
		}
		if at < 0 {
			t.Fatalf("%s: no window.build launch in %v", tc.name, seq)
		}
		dev := par.NewDevice(1)
		dev.SetFaults(fault.MustParse(fmt.Sprintf("par.worker.panic:at=%d", at), 1))
		cfg.Dev = dev
		res := CheckMiter(tc.m, cfg)
		if res.Outcome != Undecided || !res.Degraded {
			t.Fatalf("%s: sabotaged build gave %v degraded=%v, want Undecided and degraded", tc.name, res.Outcome, res.Degraded)
		}
		if len(res.Faults) != 1 || !strings.Contains(res.Faults[0], "window.build") {
			t.Fatalf("%s: faults %v, want one naming window.build", tc.name, res.Faults)
		}
	}
}

// TestMergedWindowFallback drives checkChunked's over-budget path: with the
// work budget at the largest unmerged window, every merged window is over
// budget and its pairs fall back to their own windows, built in a second
// launch. The verdicts and counter-examples must equal those of an
// unmerged run.
func TestMergedWindowFallback(t *testing.T) {
	g, err := gen.Multiplier(4)
	if err != nil {
		t.Fatal(err)
	}
	m := mustMiter(t, g, opt.Resyn2(g, nil))
	// Each miter PO (provably zero) and every tenth AND node (a false
	// candidate constant) as a constant hypothesis over its support.
	var pairs []sim.Pair
	var specs []sim.Spec
	add := func(id int) {
		specs = append(specs, sim.Spec{
			Roots:   []int32{int32(id)},
			Inputs:  m.SupportOf(id),
			PairIdx: []int32{int32(len(pairs))},
		})
		pairs = append(pairs, sim.Pair{B: int32(id)})
	}
	for i := 0; i < m.NumPOs(); i++ {
		if id := m.PO(i).ID(); id != 0 {
			add(id)
		}
	}
	for id := 1; id < m.NumNodes(); id += 10 {
		if m.IsAnd(id) {
			add(id)
		}
	}
	wins, err := sim.BuildWindows(par.NewDevice(1), m, specs)
	if err != nil {
		t.Fatal(err)
	}
	budget := int64(0)
	for _, w := range wins {
		budget = max(budget, windowWork(w))
	}

	check := func(ks int) (sim.Result, int) {
		cfg := smallConfig()
		cfg.fill()
		cfg.MaxWindowWork = budget
		e := &engine{cfg: &cfg, cur: m}
		e.ex = sim.NewExhaustive(cfg.Dev, cfg.MemBudgetWords)
		res := e.checkChunked(pairs, specs, ks)
		return res, cfg.Dev.Stats()["window.build"].Launches
	}
	plain, plainLaunches := check(0)
	merged, mergedLaunches := check(16)
	if plainLaunches != 1 || mergedLaunches != 2 {
		t.Fatalf("window.build launches: %d unmerged, %d merged; want 1 and 2 (merged, then fallback)", plainLaunches, mergedLaunches)
	}
	proved := 0
	for i := range pairs {
		if plain.Equal[i] != merged.Equal[i] {
			t.Fatalf("pair %d: equal %v unmerged, %v after the fallback", i, plain.Equal[i], merged.Equal[i])
		}
		pc, mc := plain.CEX(i), merged.CEX(i)
		if (pc == nil) != (mc == nil) || pc != nil && !slices.Equal(pc.Values, mc.Values) {
			t.Fatalf("pair %d: counter-example %+v unmerged, %+v after the fallback", i, pc, mc)
		}
		if plain.Equal[i] {
			proved++
		}
	}
	if proved == 0 || proved == len(pairs) {
		t.Fatalf("%d of %d pairs proved; the fixture must mix proofs and refutations", proved, len(pairs))
	}
}
