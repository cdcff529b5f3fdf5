// Command cecbench is the repository's benchmark: it checks the miters of
// one named workload through the public check path (simsweep.CheckMiter,
// default hybrid engine) for a fixed number of seconds, verifies every
// verdict against the known answer, and prints its metrics as one JSON
// object on the last line of standard output.
//
//	cecbench --workload datapath-eq --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones (wall_s,
// check_geomean_ms, decided_ratio, setup_s), measured untraced. With
// --trace 1 they are the per-layer ledger, from traced rounds interleaved
// with untraced ones. See README.md for every metric and the discipline
// behind the numbers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"simsweep"
	"simsweep/internal/par"
)

// setupReps is how many times a run builds its instances; setup_s is the
// median.
const setupReps = 3

// checkLimit is the per-check limit: a check still running after it is
// stopped and counted as a failure. The largest check takes about 2.5 s.
const checkLimit = 20 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "seed of the generated inputs and the engine's random patterns")
	seconds := flag.Int("seconds", 20, "measurement time in seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer ledger from traced rounds")
	flag.Parse()
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "cecbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if err := run(*name, *seed, time.Duration(*seconds)*time.Second, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "cecbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, budget time.Duration, traced bool) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if budget <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	// One process, one check at a time, as many threads as CPUs: the
	// device and the Go scheduler both get nproc.
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)

	s, err := setup(w, seed, nproc, traced)
	if err != nil {
		return err
	}
	defer s.dev.Close()

	b := &bench{
		dev:       s.dev,
		insts:     s.insts,
		wallS:     map[bool][]float64{},
		geomeanMS: map[bool][]float64{},
	}
	// Round i checks with engine seed seed·1000003+i, so a run's medians
	// sample many engine seeds instead of resting on one; a traced round
	// repeats its untraced partner's seed.
	deadline := time.Now().Add(budget)
	for i := int64(0); !time.Now().After(deadline); i++ {
		engineSeed := seed*1000003 + i
		b.round(false, engineSeed)
		if traced {
			b.round(true, engineSeed)
		}
	}
	rep := report{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metric{},
	}
	if traced {
		if err := b.ledgerMetrics(rep.Metrics, s); err != nil {
			return err
		}
	} else {
		rep.Metrics["wall_s"] = metric{median(b.wallS[false]), "s"}
		rep.Metrics["check_geomean_ms"] = metric{median(b.geomeanMS[false]), "ms"}
		rep.Metrics["decided_ratio"] = metric{float64(b.attempted-b.failed) / float64(b.attempted), "ratio"}
		rep.Metrics["setup_s"] = metric{median(s.setupS), "s"}
	}
	fmt.Fprintf(os.Stderr, "%d untraced rounds, wall_s per round: %.3f\n", len(b.wallS[false]), b.wallS[false])
	out, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if b.failed > 0 {
		return fmt.Errorf("%d of %d checks failed", b.failed, b.attempted)
	}
	return nil
}

// setupResult is the output of the set-up phase: the device and instances
// of the last repetition, the time of every repetition, and per build step
// the median time over the repetitions.
type setupResult struct {
	dev     *par.Device
	insts   []*instance
	setupS  []float64
	stepS   map[string]float64
	dropped int64
}

// setup builds the workload setupReps times — device creation plus
// generate → double → resyn2 → miter for every case — and keeps the last
// build. When traced, every repetition records the benchmark's build spans
// into its own tracer.
func setup(w workload, seed int64, nproc int, traced bool) (*setupResult, error) {
	s := &setupResult{stepS: map[string]float64{}}
	steps := map[string][]float64{}
	for rep := 0; rep < setupReps; rep++ {
		runtime.GC()
		var tr *simsweep.Tracer
		if traced {
			tr = simsweep.NewTracer(1 << 10)
		}
		start := time.Now()
		dev := par.NewDevice(nproc)
		insts := make([]*instance, 0, len(w.Cases))
		for _, c := range w.Cases {
			inst, err := buildInstance(c, seed, dev, tr)
			if err != nil {
				dev.Close()
				return nil, err
			}
			insts = append(insts, inst)
		}
		s.setupS = append(s.setupS, time.Since(start).Seconds())
		if tr != nil {
			for k, d := range buildSpans(tr) {
				steps[k] = append(steps[k], d.Seconds())
			}
			s.dropped += tr.Dropped()
		}
		if s.dev != nil {
			s.dev.Close()
		}
		s.dev, s.insts = dev, insts
	}
	for k, v := range steps {
		s.stepS[k] = median(v)
	}
	return s, nil
}

// bench holds the measurements of one run.
type bench struct {
	dev   *par.Device
	insts []*instance

	attempted, failed int
	// wallS and geomeanMS hold one value per round, keyed by whether the
	// round was traced.
	wallS     map[bool][]float64
	geomeanMS map[bool][]float64
	// allocMB is the TotalAlloc delta of each untraced round.
	allocMB []float64
	// ledgers holds one ledger per traced round.
	ledgers []roundLedger
}

// round checks every instance once with the given engine seed and records
// the round's wall time (the sum of Result.Runtime), the geometric mean of
// its check times and, when traced, its per-layer ledger.
func (b *bench) round(traced bool, engineSeed int64) {
	var wall time.Duration
	logSum := 0.0
	var alloc uint64
	led := roundLedger{sum: map[string]float64{}}
	for _, inst := range b.insts {
		runtime.GC()
		var tr *simsweep.Tracer
		if traced {
			tr = simsweep.NewTracer(traceCapacity)
		}
		before := b.dev.Stats()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		res, err := b.check(inst, engineSeed, tr)
		runtime.ReadMemStats(&ms1)
		alloc += ms1.TotalAlloc - ms0.TotalAlloc

		b.attempted++
		if verr := verify(inst, res, err); verr != nil {
			b.failed++
			fmt.Fprintf(os.Stderr, "FAIL %s: %v\n", inst.Miter.Name, verr)
		}
		if !traced && len(b.wallS[false]) == 0 {
			fmt.Fprintf(os.Stderr, "%-24s %-15v %8.3fs  reduced %5.1f%%  sat %7.3fs\n",
				inst.Miter.Name, res.Outcome, res.Runtime.Seconds(), res.ReducedPercent, res.SATTime.Seconds())
		}
		wall += res.Runtime
		logSum += math.Log(res.Runtime.Seconds() * 1e3)
		if traced {
			led.add(checkLedger(inst, res, tr, before, b.dev.Stats()))
		}
	}
	b.wallS[traced] = append(b.wallS[traced], wall.Seconds())
	b.geomeanMS[traced] = append(b.geomeanMS[traced], math.Exp(logSum/float64(len(b.insts))))
	if traced {
		b.ledgers = append(b.ledgers, led)
	} else {
		b.allocMB = append(b.allocMB, float64(alloc)/(1<<20))
	}
}

// check runs one check under the per-check limit, inside the benchmark's
// own "check" span when traced.
func (b *bench) check(inst *instance, engineSeed int64, tr *simsweep.Tracer) (simsweep.Result, error) {
	stop := make(chan struct{})
	timer := time.AfterFunc(checkLimit, func() { close(stop) })
	defer timer.Stop()
	sp := tr.Buf(benchTrack).Begin(catBench, "check")
	defer sp.End()
	return simsweep.CheckMiter(inst.Miter, simsweep.Options{
		Dev:   b.dev,
		Seed:  engineSeed,
		Stop:  stop,
		Trace: tr,
	})
}

// verify checks a verdict against the instance's known answer. EQ follows
// from the construction (original vs resyn2); NEQ from the seeded bug,
// whose witness is known, and any reported counter-example must itself
// set a miter output under aig.Eval. Undecided, stopped and degraded
// checks are failures too.
func verify(inst *instance, res simsweep.Result, err error) error {
	switch {
	case err != nil:
		return err
	case res.Stopped:
		return fmt.Errorf("stopped after the %v per-check limit", checkLimit)
	case res.Degraded:
		return fmt.Errorf("degraded: %v", res.Faults)
	}
	if inst.Witness == nil {
		if res.Outcome != simsweep.Equivalent {
			return fmt.Errorf("verdict %v, want equivalent", res.Outcome)
		}
		return nil
	}
	if res.Outcome != simsweep.NotEquivalent {
		return fmt.Errorf("verdict %v, want NOT equivalent", res.Outcome)
	}
	if len(res.CEX) != inst.Miter.NumPIs() {
		return fmt.Errorf("counter-example has %d inputs, want %d", len(res.CEX), inst.Miter.NumPIs())
	}
	if !anyTrue(inst.Miter.Eval(res.CEX)) {
		return fmt.Errorf("counter-example does not distinguish the circuits")
	}
	return nil
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
