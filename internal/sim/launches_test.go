package sim

import (
	"testing"

	"simsweep/internal/aig"
	"simsweep/internal/par"
)

// TestWindowDispatchLaunchCount regression-guards the barrier reduction of
// the window-parallel restructure: the checker must issue exactly one
// kernel launch per simulation round, at least 10x fewer than the previous
// per-level dispatch (seed + one launch per window level + compare, every
// round) on deep windows.
func TestWindowDispatchLaunchCount(t *testing.T) {
	g, pairs, windows := deepParityBatch(t, 8, 12)
	total := 0
	for _, w := range windows {
		total += w.NumSlots()
	}
	dev := par.NewDevice(4)
	ex := NewExhaustive(dev, total*2) // E=2 -> 32 rounds at k=12
	res := ex.CheckBatch(pairs, windows)
	for i := range pairs {
		if !res.Equal[i] {
			t.Fatalf("parity pair %d disproved", i)
		}
	}
	if res.Rounds < 16 {
		t.Fatalf("budget did not force a deep sweep: %d rounds", res.Rounds)
	}

	stats := dev.Stats()
	launches := 0
	for name, ks := range stats {
		if len(name) >= 10 && name[:10] == "exhaustive" {
			launches += ks.Launches
		}
	}
	if got := stats["exhaustive.window"].Launches; got != res.Rounds || launches != res.Rounds {
		t.Fatalf("exhaustive launches = %d (window kernel %d), want exactly one per round (%d)\n%s",
			launches, got, res.Rounds, dev.Profile())
	}

	// The pre-restructure dispatch count: per round, one seed launch, one
	// launch per window level and one compare launch.
	maxLevel := 0
	for _, w := range windows {
		if d := windowDepth(g, w); d > maxLevel {
			maxLevel = d
		}
	}
	oldLaunches := res.Rounds * (maxLevel + 2)
	if launches*10 > oldLaunches {
		t.Fatalf("launch reduction below 10x: %d launches vs %d with per-level barriers\n%s",
			launches, oldLaunches, dev.Profile())
	}
}

// windowDepth computes the window-topological depth a per-level dispatch
// would have barriered on.
func windowDepth(g *aig.AIG, w *Window) int {
	level := make(map[int32]int, len(w.Nodes))
	max := 0
	for _, id := range w.Nodes {
		f0, f1 := g.Fanins(int(id))
		l := 0
		if fl := level[int32(f0.ID())]; fl > l {
			l = fl
		}
		if fl := level[int32(f1.ID())]; fl > l {
			l = fl
		}
		level[id] = l + 1
		if l+1 > max {
			max = l + 1
		}
	}
	return max
}

// TestSlicedWindowMatchesUnsliced forces the word-slicing path (a tiny
// SliceWork splits every window into per-word tasks) and checks verdicts
// and counter-examples agree with the unsliced run.
func TestSlicedWindowMatchesUnsliced(t *testing.T) {
	_, pairs, windows := deepParityBatch(t, 4, 9)
	// Add a refutable pair: root 0 of window 0 against constant zero.
	w0 := windows[0]
	pi := int32(len(pairs))
	pairs = append(pairs, Pair{A: 0, B: w0.Roots[0]})
	w0.PairIdx = append(w0.PairIdx, pi)

	run := func(sliceWork int) Result {
		ex := NewExhaustive(par.NewDevice(4), 0)
		ex.SliceWork = sliceWork
		return ex.CheckBatch(pairs, windows)
	}
	plain := run(0)
	sliced := run(1) // every window splits into single-word tasks
	for i := range pairs {
		if plain.Equal[i] != sliced.Equal[i] {
			t.Fatalf("pair %d: sliced verdict %v != unsliced %v", i, sliced.Equal[i], plain.Equal[i])
		}
		if (plain.CEX(i) == nil) != (sliced.CEX(i) == nil) {
			t.Fatalf("pair %d: CEX presence differs", i)
		}
		if plain.CEX(i) != nil && plain.CEX(i).Index != sliced.CEX(i).Index {
			t.Fatalf("pair %d: CEX index %d != %d", i, sliced.CEX(i).Index, plain.CEX(i).Index)
		}
	}
	if plain.Equal[pi] {
		t.Fatal("refutable constant pair proved")
	}
}

// TestCheckBatchScratchReuse runs several batches through one checker to
// exercise the pooled buffers across differently shaped batches.
func TestCheckBatchScratchReuse(t *testing.T) {
	ex := NewExhaustive(par.NewDevice(2), 0)
	for _, shape := range []struct{ nw, k int }{{2, 4}, {6, 8}, {1, 10}, {3, 5}} {
		_, pairs, windows := deepParityBatch(t, shape.nw, shape.k)
		res := ex.CheckBatch(pairs, windows)
		for i := range pairs {
			if !res.Equal[i] {
				t.Fatalf("shape %+v: pair %d disproved", shape, i)
			}
		}
	}
}
