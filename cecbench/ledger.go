package main

import (
	"fmt"
	"sort"
	"time"

	"simsweep"
	"simsweep/internal/core"
	"simsweep/internal/par"
	"simsweep/internal/sat"
	"simsweep/internal/trace"
)

// benchTrack is the trace track of the benchmark's own spans, apart from
// the engine's control track (0) and the device's worker tracks (1..W).
const benchTrack int32 = 1 << 20

// catBench is the trace category of the benchmark's own spans.
const catBench = "bench"

// traceCapacity is the event capacity of the tracer of one traced check.
// It must hold every event of the largest check: trace.dropped is
// asserted to be 0. Multiplier 12 usually records about 6,600 events, but
// up to 64,000 when the device's partial.level launches split into many
// more per-worker spans.
const traceCapacity = 1 << 18

// buildSteps maps the benchmark's span around each call of the build layer
// to its metric.
var buildSteps = []struct{ span, metric string }{
	{"gen", "gen.s"}, {"aig.double", "aig.double_s"}, {"opt.resyn2", "opt.resyn2_s"}, {"miter.build", "miter.build_s"},
}

// kernels are the device kernels of the default check path, reported as
// par.<kernel>_s, _launches and _items (deltas of Device.Stats).
var kernels = []string{"exhaustive.window", "cuts.strata", "partial.level"}

// layerUnits lists every per-layer metric in report order with its unit.
// The keys of a check's ledger are a subset; the build steps, min/max
// columns, allocation and trace rows are added when the run is reported.
var layerUnits = []struct{ name, unit string }{
	{"gen.s", "s"}, {"aig.double_s", "s"}, {"opt.resyn2_s", "s"}, {"miter.build_s", "s"},
	{"core.P_s", "s"}, {"core.G_s", "s"}, {"core.L_s", "s"},
	{"core.L_phases", "count"}, {"core.L_idle_phases", "count"},
	{"core.proved", "count"}, {"core.disproved", "count"},
	{"core.reduced_pct", "%"}, {"core.reduced_pct_min", "%"}, {"core.reduced_pct_max", "%"},
	{"par.exhaustive.window_s", "s"}, {"par.exhaustive.window_launches", "count"}, {"par.exhaustive.window_items", "count"},
	{"par.cuts.strata_s", "s"}, {"par.cuts.strata_launches", "count"}, {"par.cuts.strata_items", "count"},
	{"par.partial.level_s", "s"}, {"par.partial.level_launches", "count"}, {"par.partial.level_items", "count"},
	{"satsweep.s", "s"}, {"satsweep.calls", "count"}, {"satsweep.calls_min", "count"}, {"satsweep.calls_max", "count"},
	{"satsweep.unsat", "count"}, {"satsweep.sat", "count"}, {"satsweep.unknown", "count"},
	{"satsweep.conflicts", "count"}, {"satsweep.unsat_ratio", "ratio"},
	{"check.alloc_mb", "MB"}, {"check.other_s", "s"},
	{"trace.overhead_pct", "%"}, {"trace.dropped", "count"},
}

// ledgerRow is the per-layer ledger of one traced check.
type ledgerRow struct {
	name    string
	runtime time.Duration
	outcome simsweep.Outcome
	vals    map[string]float64
	// initialAnds and finalAnds weight the round's reduction.
	initialAnds, finalAnds int
	dropped                int64
	err                    error
}

// checkLedger builds the ledger of one traced check from the result, the
// spans the program and the benchmark recorded into tr, and the device's
// kernel statistics before and after the check.
func checkLedger(inst *instance, res simsweep.Result, tr *simsweep.Tracer, before, after map[string]par.KernelStats) ledgerRow {
	r := ledgerRow{name: inst.Miter.Name, runtime: res.Runtime, outcome: res.Outcome, vals: map[string]float64{}}
	var phase [3]time.Duration
	for _, p := range res.SimPhases {
		phase[p.Kind] += p.Duration
		r.vals["core.proved"] += float64(p.Proved)
		r.vals["core.disproved"] += float64(p.Disproved)
		if p.Kind == core.PhaseL {
			r.vals["core.L_phases"]++
			if p.Proved == 0 && p.Disproved == 0 {
				r.vals["core.L_idle_phases"]++
			}
		}
	}
	r.vals["core.P_s"] = phase[core.PhaseP].Seconds()
	r.vals["core.G_s"] = phase[core.PhaseG].Seconds()
	r.vals["core.L_s"] = phase[core.PhaseL].Seconds()
	if res.SimStats != nil {
		r.initialAnds, r.finalAnds = res.SimStats.InitialAnds, res.SimStats.FinalAnds
	}
	r.vals["satsweep.s"] = res.SATTime.Seconds()
	other := res.Runtime - phase[core.PhaseP] - phase[core.PhaseG] - phase[core.PhaseL] - res.SATTime
	r.vals["check.other_s"] = other.Seconds()
	if other < 0 {
		r.err = fmt.Errorf("%s: P+G+L+satsweep = %v exceeds Result.Runtime %v", r.name, res.Runtime-other, res.Runtime)
	}
	for _, k := range kernels {
		d := after[k]
		d.Launches -= before[k].Launches
		d.Items -= before[k].Items
		d.Time -= before[k].Time
		r.vals["par."+k+"_s"] = d.Time.Seconds()
		r.vals["par."+k+"_launches"] = float64(d.Launches)
		r.vals["par."+k+"_items"] = float64(d.Items)
	}

	checkSpans := 0
	for _, e := range tr.Events() {
		switch {
		case e.Name == "sat.pair" || e.Name == "sat.po":
			r.vals["satsweep.calls"]++
			r.vals["satsweep.conflicts"] += float64(eventArg(e.Args[:e.NArg], "conflicts"))
			switch sat.Status(eventArg(e.Args[:e.NArg], "status")) {
			case sat.Sat:
				r.vals["satsweep.sat"]++
			case sat.Unsat:
				r.vals["satsweep.unsat"]++
			default:
				r.vals["satsweep.unknown"]++
			}
		case e.Cat == catBench && e.Name == "check":
			checkSpans++
			if time.Duration(e.Dur) < res.Runtime {
				r.err = fmt.Errorf("%s: check span %v shorter than Result.Runtime %v", r.name, time.Duration(e.Dur), res.Runtime)
			}
		}
	}
	if checkSpans != 1 && r.err == nil {
		r.err = fmt.Errorf("%s: %d check spans recorded, want 1", r.name, checkSpans)
	}
	if r.dropped = tr.Dropped(); r.dropped > 0 {
		r.err = fmt.Errorf("%s: tracer dropped %d events; raise traceCapacity", r.name, r.dropped)
	}
	return r
}

func eventArg(args []trace.Arg, key string) int64 {
	for _, a := range args {
		if a.Key == key {
			return a.Val
		}
	}
	return 0
}

// roundLedger is the ledger of one traced round: its checks' rows and
// their per-layer sums.
type roundLedger struct {
	rows []ledgerRow
	sum  map[string]float64
}

func (l *roundLedger) add(r ledgerRow) {
	l.rows = append(l.rows, r)
	for k, v := range r.vals {
		l.sum[k] += v
	}
}

// reducedPct is the round's miter reduction, weighted by miter size.
func (l *roundLedger) reducedPct() float64 {
	init, final := 0, 0
	for _, r := range l.rows {
		init += r.initialAnds
		final += r.finalAnds
	}
	if init == 0 {
		return 0
	}
	return 100 * (1 - float64(final)/float64(init))
}

// ledgerMetrics fills m with the per-layer metrics of a traced run: the
// median over traced rounds of each layer's per-round sum, min/max across
// rounds of the counts that class-order nondeterminism moves, the build
// steps from the set-up repetitions, and the tracing overhead. It prints
// the first traced round's per-check ledger, and fails when a ledger row
// does not add up or the tracer dropped events.
func (b *bench) ledgerMetrics(m map[string]metric, s *setupResult) error {
	dropped := s.dropped
	per := map[string][]float64{}
	for _, l := range b.ledgers {
		for _, r := range l.rows {
			if r.err != nil {
				return r.err
			}
			dropped += r.dropped
		}
		l.sum["core.reduced_pct"] = l.reducedPct()
		if l.sum["satsweep.calls"] > 0 {
			l.sum["satsweep.unsat_ratio"] = l.sum["satsweep.unsat"] / l.sum["satsweep.calls"]
		}
		for _, lu := range layerUnits {
			per[lu.name] = append(per[lu.name], l.sum[lu.name])
		}
	}
	if dropped != 0 {
		return fmt.Errorf("tracer dropped %d events; raise traceCapacity", dropped)
	}
	vals := map[string]float64{}
	for k, v := range per {
		vals[k] = median(v)
	}
	for _, k := range []string{"satsweep.calls", "core.reduced_pct"} {
		vals[k+"_min"], vals[k+"_max"] = minMax(per[k])
	}
	for _, step := range buildSteps {
		vals[step.metric] = s.stepS[step.span]
	}
	vals["check.alloc_mb"] = median(b.allocMB)
	untraced := median(b.wallS[false])
	vals["trace.overhead_pct"] = 100 * (median(b.wallS[true]) - untraced) / untraced
	vals["trace.dropped"] = float64(dropped)
	for _, lu := range layerUnits {
		m[lu.name] = metric{vals[lu.name], lu.unit}
	}
	printLedger(b.ledgers[0])
	return nil
}

// printLedger writes one traced round's per-check ledger as a table; the
// P, G, L, satsweep and other columns of a row sum to its runtime.
func printLedger(l roundLedger) {
	fmt.Printf("%-24s %-15s %9s %9s %9s %9s %9s %9s %7s %9s\n",
		"check", "verdict", "runtime_s", "P_s", "G_s", "L_s", "sat_s", "other_s", "calls", "conflicts")
	for _, r := range l.rows {
		v := r.vals
		fmt.Printf("%-24s %-15s %9.4f %9.4f %9.4f %9.4f %9.4f %9.4f %7.0f %9.0f\n",
			r.name, r.outcome, r.runtime.Seconds(), v["core.P_s"], v["core.G_s"], v["core.L_s"],
			v["satsweep.s"], v["check.other_s"], v["satsweep.calls"], v["satsweep.conflicts"])
	}
}

func minMax(v []float64) (float64, float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[0], s[len(s)-1]
}

// buildSpans sums the durations of the benchmark's build-step spans by
// step name.
func buildSpans(tr *simsweep.Tracer) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, e := range tr.Events() {
		if e.Cat == catBench {
			out[e.Name] += time.Duration(e.Dur)
		}
	}
	return out
}
