package sim

import (
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"simsweep/internal/fault"
	"simsweep/internal/par"
	"simsweep/internal/trace"
	"simsweep/internal/tt"
)

// Pair is a candidate equivalence checked by exhaustive simulation: the
// hypothesis B ≡ A ⊕ Compl over the node ids A and B. A may be 0, the
// constant-false node, for candidate-constant checks (including miter PO
// checking, where the hypothesis is PO ≡ 0).
type Pair struct {
	A, B  int32
	Compl bool
}

// CEX is a counter-example disproving a pair: an assignment to the window
// inputs under which the two roots differ. Index is the truth-table bit
// index the mismatch was found at.
type CEX struct {
	Inputs []int32
	Values []bool
	Index  uint64
}

// Mismatch locates a refutation without decoding it: the window the pair
// was refuted over (nil when it was not refuted) and the truth-table bit
// index of the first differing assignment.
type Mismatch struct {
	Win   *Window
	Index uint64
}

// Result reports the verdicts of a CheckBatch call, indexed like the pair
// slice passed in. Equal[i] is true when the truth tables matched over the
// window; Mismatch[i].Win is non-nil when they did not, and CEX(i) decodes
// that refutation on demand. The interpretation is the caller's: for
// global-function windows a mismatch is a disproof, for local-function
// windows it is inconclusive (satisfiability don't cares).
type Result struct {
	Equal    []bool
	Mismatch []Mismatch

	// Rounds is the number of simulation rounds executed; WordsSimulated
	// counts node·word units of work, for the benchmark harness.
	Rounds         int
	WordsSimulated int64

	// Err is non-nil when a simulation kernel failed (a recovered worker
	// panic). The batch's verdicts are then conservative: the Equal entry
	// of every pair of the batch is false and no mismatch is recorded, so a
	// faulted batch can never prove or disprove a pair — it only loses
	// progress.
	Err error
	// Stopped reports that the Exhaustive.Stop callback cancelled the batch
	// between rounds. As with Err, every verdict is withdrawn: a cancelled
	// batch proves and disproves nothing.
	Stopped bool
}

// Exhaustive is the exhaustive simulator (Algorithm 1). BudgetWords caps
// the simulation-table size M in 64-bit words; the per-entry size E is
// chosen on the fly as the largest power of two such that E·N ≤ M for N
// total slots, and simulation proceeds in rounds over truth-table word
// ranges [rE, (r+1)E).
//
// Parallelism is organised around the cross-window dimension: each round
// dispatches one kernel whose tasks are whole windows (windows are
// independent, so no inter-window barrier exists), and a window whose
// slot·word work exceeds SliceWork is split along the truth-table word
// dimension so a single huge window still saturates the device. Inside a
// task, nodes simulate in ascending-id order — a topological schedule for
// free, since AIG ids are topological — and each pair is compared as soon
// as both of its roots are simulated, so a window whose last pair is
// refuted stops simulating mid-round.
type Exhaustive struct {
	Dev         *par.Device
	BudgetWords int
	// SliceWork approximates the slot·word work of one dispatched task;
	// windows above it are split along the word dimension. A non-positive
	// value selects the built-in default.
	SliceWork int
	// Trace, when non-nil and enabled, receives one span per CheckBatch
	// (windows, pairs, slots, entry words, rounds) and one per simulation
	// round (tasks dispatched, word-sliced task fan-out). Costs one atomic
	// load per batch when disabled.
	Trace *trace.Tracer
	// Faults, when armed, is consulted once per simulation round for the
	// sim.round.stall hook (a hit sleeps the control goroutine for the
	// hook's delay, provoking the engine's phase watchdog). Nil-safe.
	Faults *fault.Injector
	// Stop, when non-nil, is polled at every round boundary; a true return
	// cancels the batch, withdrawing every verdict (Result.Stopped). The
	// engine wires its watchdog-aware cancellation check in here, so a
	// phase stuck inside a multi-round batch is still cancellable.
	Stop func() bool
}

// defaultSliceWork is the per-task slot·word granularity above which a
// window is sliced along the truth-table word dimension.
const defaultSliceWork = 1 << 15

// NewExhaustive returns a checker over dev with the given memory budget in
// words (a non-positive budget selects 1<<22 words, 32 MiB).
func NewExhaustive(dev *par.Device, budgetWords int) *Exhaustive {
	if budgetWords <= 0 {
		budgetWords = 1 << 22
	}
	return &Exhaustive{Dev: dev, BudgetWords: budgetWords}
}

// winPair is the per-window precomputation of one candidate pair.
type winPair struct {
	pi      int32 // index into the batch pair slice
	slotA   int32 // window-local slot of root A; -1 for constant zero
	slotB   int32 // window-local slot of root B
	ready   int32 // window nodes that must simulate before comparing
	compl   bool
	dead    bool  // refuted in an earlier resolution step
	claimed int32 // atomic claim flag for word-sliced rounds
}

// winState is the per-window precomputation for a batch.
type winState struct {
	win     *Window
	base    int32 // first slot offset in the simulation table
	nIn     int32
	ttWords int32
	pairs   []winPair // sorted by ascending ready point
	alive   int32     // unresolved pairs (owned by the resolution step)

	// Shared state of word-sliced rounds: slices count refutations with
	// aliveAtomic and raise abort once every pair of the window is
	// refuted, so sibling slices stop simulating mid-round.
	aliveAtomic int32
	abort       int32
}

// simTask is one dispatched unit of a round: a window (or a word-range
// slice of a large window). Each task is executed by exactly one goroutine,
// so its mismatch buffer needs no synchronisation; verdicts are applied in
// a sequential resolution step after the launch, in task order, which keeps
// results deterministic under parallel execution.
type simTask struct {
	st        *winState
	t0, t1    int32 // word range within the round's [0, E) segment
	sliced    bool
	mism      []mismatch
	simulated int64 // slot·word units actually simulated
}

// mismatch records the first differing word/bit a task found for a pair.
type mismatch struct {
	lp  int32 // index into winState.pairs
	t   int32 // word offset within the round segment
	bit int8
}

// batchScratches holds the batch buffers between CheckInto calls. It is
// shared by every checker, so one check reuses the simulation table the
// previous check grew instead of growing its own.
var batchScratches sync.Pool // *batchScratch

// batchScratch holds the reusable buffers of one CheckBatch call.
type batchScratch struct {
	simt   []uint64
	wpairs []winPair
	states []winState
	tasks  []simTask
}

func (e *Exhaustive) getScratch() *batchScratch {
	if sc, ok := batchScratches.Get().(*batchScratch); ok {
		return sc
	}
	return &batchScratch{}
}

func (e *Exhaustive) putScratch(sc *batchScratch) {
	// Drop object references so pooled buffers do not pin windows or
	// mismatch buffers from the previous batch.
	for i := range sc.states {
		sc.states[i] = winState{}
	}
	for i := range sc.tasks {
		sc.tasks[i] = simTask{}
	}
	sc.states = sc.states[:0]
	sc.tasks = sc.tasks[:0]
	batchScratches.Put(sc)
}

// CheckBatch exhaustively checks all pairs over their windows, which must
// come from a Builder or BuildWindows (their fan tables drive simulation).
// Each window's PairIdx entries index into pairs. Both roots of every pair
// must be inputs or nodes of the window (or the constant node 0); a pair
// whose root is neither stays unproven.
func (e *Exhaustive) CheckBatch(pairs []Pair, windows []*Window) Result {
	res := Result{
		Equal:    make([]bool, len(pairs)),
		Mismatch: make([]Mismatch, len(pairs)),
	}
	e.CheckInto(&res, pairs, windows)
	return res
}

// CheckInto is CheckBatch writing into res, whose Equal and Mismatch slices
// are indexed like pairs. It sets the entries of the windows' pairs only,
// leaving every other entry as it was, adds to Rounds and WordsSimulated,
// and sets Err or Stopped when the batch faulted or was cancelled, which
// withdraws the verdicts of the batch's pairs only. A caller that checks one
// long pair list in several batches shares one Result across them instead
// of allocating pair-list-sized verdicts per batch.
func (e *Exhaustive) CheckInto(res *Result, pairs []Pair, windows []*Window) {
	// A pair is "equal" when its window survives all rounds without a
	// mismatch.
	for _, w := range windows {
		for _, pi := range w.PairIdx {
			res.Equal[pi] = true
			res.Mismatch[pi] = Mismatch{}
		}
	}
	withdraw := func() {
		for _, w := range windows {
			for _, pi := range w.PairIdx {
				res.Equal[pi] = false
				res.Mismatch[pi] = Mismatch{}
			}
		}
	}
	if len(windows) == 0 {
		return
	}

	sc := e.getScratch()
	defer e.putScratch(sc)

	totalSlots, totalPairs := 0, 0
	maxTT := 1
	for _, w := range windows {
		totalSlots += w.NumSlots()
		totalPairs += len(w.PairIdx)
		if tw := w.TTWords(); tw > maxTT {
			maxTT = tw
		}
	}
	if totalSlots == 0 {
		totalSlots = 1
	}

	// Entry size E: the largest power of two with E·N ≤ M, clamped to
	// [1, maxTT] (line 2 of Algorithm 1).
	E := 1
	for E*2*totalSlots <= e.BudgetWords && E*2 <= maxTT {
		E *= 2
	}
	if cap(sc.simt) < totalSlots*E {
		sc.simt = make([]uint64, totalSlots*E)
	}
	simt := sc.simt[:totalSlots*E]

	// Per-window setup, sequential and small: the windows carry their fan
	// tables, so only the pairs' root slots are looked up here.
	if cap(sc.wpairs) < totalPairs {
		sc.wpairs = make([]winPair, totalPairs)
	}
	wpairs := sc.wpairs[:totalPairs]
	if cap(sc.states) < len(windows) {
		sc.states = make([]winState, len(windows))
	}
	states := sc.states[:len(windows)]

	base, po := int32(0), 0
	for wi, w := range windows {
		st := &states[wi]
		*st = winState{
			win:     w,
			base:    base,
			nIn:     int32(len(w.Inputs)),
			ttWords: int32(w.TTWords()),
		}
		st.pairs = wpairs[po:po]
		for _, pi := range w.PairIdx {
			p := pairs[pi]
			wp := winPair{pi: pi, slotA: -1, compl: p.Compl}
			var okA, okB bool
			wp.slotB, okB = w.slotOf(p.B)
			okA = p.A == 0
			if !okA {
				wp.slotA, okA = w.slotOf(p.A)
			}
			if !okA || !okB {
				res.Equal[pi] = false // a root outside the window: unprovable
				continue
			}
			wp.ready = max(wp.slotB, wp.slotA, st.nIn-1) - st.nIn + 1
			st.pairs = append(st.pairs, wp)
		}
		st.alive = int32(len(st.pairs))
		sortPairsByReady(st.pairs)
		po += len(st.pairs)
		base += int32(w.NumSlots())
	}

	sliceWork := e.SliceWork
	if sliceWork <= 0 {
		sliceWork = defaultSliceWork
	}

	// Tracing is off on the common path: tb stays nil and every emit
	// below is a no-op costing a nil check.
	var tb *trace.Buf
	if e.Trace.Enabled() {
		tb = e.Trace.Buf(trace.ControlTrack)
	}
	bsp := tb.Begin(trace.CatSim, "exhaustive.batch")

	nrounds := (maxTT + E - 1) / E
	rounds := 0 // rounds executed
	defer func() { res.Rounds += rounds }()
	tasks := sc.tasks[:0]
	for r := 0; r < nrounds; r++ {
		// An injected round stall parks the control goroutine here; the
		// poll right after is the batch's cancellation point, so a watchdog
		// or client cancel arriving during the stall (or a previous round)
		// aborts the batch instead of waiting out the remaining dispatches.
		e.Faults.Stall(fault.HookSimStall)
		if e.Stop != nil && e.Stop() {
			withdraw()
			res.Stopped = true
			break
		}
		// Build the round's task list: one task per active window, or
		// several word-range slices for windows above the slice budget.
		tasks = tasks[:0]
		for wi := range states {
			st := &states[wi]
			if st.alive <= 0 || int(st.ttWords) <= r*E {
				continue
			}
			nslices := 1
			if work := st.win.NumSlots() * E; work > sliceWork && E > 1 {
				nslices = (work + sliceWork - 1) / sliceWork
				if nslices > E {
					nslices = E
				}
			}
			if nslices == 1 {
				tasks = append(tasks, simTask{st: st, t0: 0, t1: int32(E)})
				continue
			}
			st.aliveAtomic = st.alive
			st.abort = 0
			for k := range st.pairs {
				st.pairs[k].claimed = 0
			}
			step := (E + nslices - 1) / nslices
			for t0 := 0; t0 < E; t0 += step {
				t1 := t0 + step
				if t1 > E {
					t1 = E
				}
				tasks = append(tasks, simTask{st: st, t0: int32(t0), t1: int32(t1), sliced: true})
			}
		}
		if len(tasks) == 0 {
			break
		}
		rounds++

		rsp := tb.Begin(trace.CatSim, "exhaustive.round")
		if tb != nil {
			sliced := 0
			for i := range tasks {
				if tasks[i].sliced {
					sliced++
				}
			}
			rsp.Arg("round", int64(r))
			rsp.Arg("words", int64(E))
			rsp.Arg("tasks", int64(len(tasks)))
			rsp.Arg("sliced_tasks", int64(sliced))
		}

		// One launch per round over independent window tasks — the
		// cross-window dimension needs no inter-window barrier, and the
		// word-level and level-wise dimensions run inside each task.
		rr := r
		err := e.Dev.LaunchChunked("exhaustive.window", len(tasks), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				tasks[i].run(simt, E, rr)
			}
		})
		rsp.End()
		if err != nil {
			// A kernel panicked: the simulation table and the per-task
			// mismatch buffers are unreliable. Withdraw every verdict —
			// Equal entries were optimistically true and are now unproven,
			// and recorded mismatches may be garbage — and report the fault.
			withdraw()
			res.Err = err
			sc.tasks = tasks
			bsp.End()
			return
		}

		// Sequential resolution in task order (windows ascending, word
		// ranges ascending): verdicts and counter-examples are identical
		// to a serial sweep regardless of execution interleaving.
		for i := range tasks {
			tk := &tasks[i]
			res.WordsSimulated += tk.simulated
			st := tk.st
			for _, m := range tk.mism {
				wp := &st.pairs[m.lp]
				if wp.dead {
					continue
				}
				wp.dead = true
				st.alive--
				res.Equal[wp.pi] = false
				res.Mismatch[wp.pi] = Mismatch{Win: st.win, Index: uint64(rr*E+int(m.t))*64 + uint64(m.bit)}
			}
		}
	}
	sc.tasks = tasks
	if tb != nil {
		bsp.Arg("windows", int64(len(windows)))
		bsp.Arg("pairs", int64(len(pairs)))
		bsp.Arg("entry_words", int64(E))
		bsp.Arg("rounds", int64(rounds))
	}
	bsp.End()
}

// run seeds, simulates and compares one window (or word slice) for one
// round. Nodes simulate in ascending slot order; each pair compares at its
// ready point, and simulation stops as soon as no undecided pair needs
// further node values.
func (tk *simTask) run(simt []uint64, E, r int) {
	st := tk.st
	base := int(st.base)
	nIn := int(st.nIn)
	t0, t1 := int(tk.t0), int(tk.t1)

	// Seed projection-table segments at the window inputs (Algorithm 1
	// line 9): generated arithmetically, never materialised in full.
	for j := 0; j < nIn; j++ {
		off := (base + j) * E
		for t := t0; t < t1; t++ {
			simt[off+t] = tt.ProjectionWord(j, r*E+t)
		}
	}

	// uncompared counts the pairs still awaiting their ready point;
	// maxReady is the node prefix the surviving pairs actually need.
	uncompared := 0
	maxReady := int32(0)
	for k := range st.pairs {
		if !st.pairs[k].dead {
			uncompared++
			if st.pairs[k].ready > maxReady {
				maxReady = st.pairs[k].ready
			}
		}
	}
	next := 0
	uncompared -= tk.compareReady(simt, E, &next, 0)

	nodesDone := 0
	for j := 0; j < int(maxReady) && uncompared > 0; j++ {
		f0 := st.win.Fan[2*j]
		f1 := st.win.Fan[2*j+1]
		s0 := (base + int(f0>>1)) * E
		s1 := (base + int(f1>>1)) * E
		dst := (base + nIn + j) * E
		m0 := -uint64(f0 & 1)
		m1 := -uint64(f1 & 1)
		for t := t0; t < t1; t++ {
			simt[dst+t] = (simt[s0+t] ^ m0) & (simt[s1+t] ^ m1)
		}
		nodesDone++
		uncompared -= tk.compareReady(simt, E, &next, int32(j+1))
		if tk.sliced && j&63 == 63 && atomic.LoadInt32(&st.abort) != 0 {
			break // every pair refuted by sibling slices: stop mid-round
		}
	}
	tk.simulated = int64(nIn+nodesDone) * int64(t1-t0)
}

// compareReady compares every not-yet-compared pair whose ready point has
// been reached and returns how many live pairs it compared. Mismatches are
// recorded locally; sliced tasks additionally claim the refutation so the
// window can abort once no pair is left alive.
func (tk *simTask) compareReady(simt []uint64, E int, next *int, ready int32) int {
	st := tk.st
	compared := 0
	for *next < len(st.pairs) && st.pairs[*next].ready <= ready {
		lp := *next
		*next++
		wp := &st.pairs[lp]
		if wp.dead {
			continue
		}
		compared++
		t, bit, mism := tk.comparePair(simt, E, wp)
		if !mism {
			continue
		}
		tk.mism = append(tk.mism, mismatch{lp: int32(lp), t: int32(t), bit: int8(bit)})
		if tk.sliced && atomic.CompareAndSwapInt32(&wp.claimed, 0, 1) {
			if atomic.AddInt32(&st.aliveAtomic, -1) == 0 {
				atomic.StoreInt32(&st.abort, 1)
			}
		}
	}
	return compared
}

// comparePair scans the task's word range of the pair's root segments and
// returns the first mismatching word offset and bit, if any. A slotA of -1
// compares against constant zero.
func (tk *simTask) comparePair(simt []uint64, E int, wp *winPair) (int, int, bool) {
	st := tk.st
	base := int(st.base)
	t0, t1 := int(tk.t0), int(tk.t1)
	mask := uint64(0)
	if wp.compl {
		mask = ^uint64(0)
	}
	offB := (base + int(wp.slotB)) * E
	if wp.slotA < 0 {
		for t := t0; t < t1; t++ {
			if v := simt[offB+t] ^ mask; v != 0 {
				return t, bits.TrailingZeros64(v), true
			}
		}
		return 0, 0, false
	}
	offA := (base + int(wp.slotA)) * E
	for t := t0; t < t1; t++ {
		if v := simt[offA+t] ^ simt[offB+t] ^ mask; v != 0 {
			return t, bits.TrailingZeros64(v), true
		}
	}
	return 0, 0, false
}

// sortPairsByReady is a stable insertion sort (pair lists are tiny, and
// stability keeps resolution order deterministic).
func sortPairsByReady(ps []winPair) {
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && ps[j-1].ready > ps[j].ready; j-- {
			ps[j-1], ps[j] = ps[j], ps[j-1]
		}
	}
}

// slotOf returns the window-local slot of node id: an input's position, or
// len(Inputs) plus its position in the sorted node list.
func (w *Window) slotOf(id int32) (int32, bool) {
	if j := slices.Index(w.Inputs, id); j >= 0 {
		return int32(j), true
	}
	if j, ok := slices.BinarySearch(w.Nodes, id); ok {
		return int32(len(w.Inputs) + j), true
	}
	return 0, false
}

// CEX decodes the refutation of pair i into an assignment to its window's
// inputs, or returns nil when pair i was not refuted. Bit j of the
// truth-table index is the value of window input j (the projection-table
// convention).
func (r *Result) CEX(i int) *CEX {
	m := r.Mismatch[i]
	if m.Win == nil {
		return nil
	}
	k := len(m.Win.Inputs)
	index := m.Index
	if k < 64 {
		index &= (uint64(1) << uint(k)) - 1
	}
	cex := &CEX{
		Inputs: append([]int32(nil), m.Win.Inputs...),
		Values: make([]bool, k),
		Index:  index,
	}
	for j := 0; j < k; j++ {
		cex.Values[j] = (index>>uint(j))&1 == 1
	}
	return cex
}
