// Bench is the repository's perf ledger: six named workloads, end-to-end
// metrics with regression bounds, per-layer probes and a traced run. See
// README.md in this directory for the catalogue and how to read it.
//
//	go run . [-seed N] [-workload name] [-out file]   every workload, untraced then traced
//	go run . -workload W -seed N -seconds S -trace T  one run, one JSON result line (the driver's form)
//	go run . -compare a.json b.json                   apply the bounds to two result files
//	go run . -spec                                    print BENCHMARK.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	"doconsider/internal/obs"
)

// Fixed conditions of every run.
const (
	segments     = 5  // timed segments per untraced run; medians are over these
	setupRepeats = 3  // set-ups timed per untraced run; setup_s is their median
	verifyEvery  = 16 // timed ops between oracle checks
	maxSelfFrac  = 0.05
)

// pinEnvironment fixes the planner's inputs before its first use, so a
// calibration file or strategy override left in the environment by an
// earlier run cannot leak into this one.
func pinEnvironment() {
	os.Setenv("DOCONSIDER_CALIBRATION", "off")
	os.Unsetenv("DOCONSIDER_STRATEGY")
	os.Unsetenv("DOCONSIDER_FUSE")
	runtime.GOMAXPROCS(runtime.NumCPU())
}

type runConfig struct {
	spec        workloadSpec
	seed        int64
	seconds     float64
	traced      bool
	setups      int
	probeBudget time.Duration
	corrupt     func(xs [][]float64) // tests only
	traceOut    string
}

// runResult is one run of one workload, traced or not.
type runResult struct {
	Workload  string                 `json:"workload"`
	Traced    bool                   `json:"traced"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Clients   int                    `json:"clients"`
	Procs     int                    `json:"procs"`
	SegOps    int                    `json:"ops_per_segment"`
	Digest    string                 `json:"request_digest"`
	Attempted int                    `json:"attempted"`
	OK        int                    `json:"ok"`
	Refused   int                    `json:"refused"`
	Failed    int                    `json:"failed"`
	FailFrac  float64                `json:"fail_frac"`
	Error     string                 `json:"first_error,omitempty"`
	Problems  []string               `json:"problems,omitempty"` // leaks, sum-check: anything that makes the run incorrect
	Metrics   map[string]value       `json:"metrics"`
	Spans     map[string]spanSummary `json:"spans,omitempty"`
	Ledger    string                 `json:"ledger,omitempty"`
}

func (r *runResult) correct() bool { return r.Failed+r.Refused == 0 && len(r.Problems) == 0 }

func (r *runResult) count(s segment) {
	r.Attempted += s.ops
	r.OK += s.ok
	r.Refused += s.refused
	r.Failed += s.failed
	if r.Error == "" {
		r.Error = s.err
	}
}

func clientsFor(spec workloadSpec) int {
	if _, serving := servingConfigs[spec.Name]; serving && runtime.NumCPU() >= 2 {
		return 2
	}
	return 1
}

func build(cfg runConfig, opsPerClient int) (instance, error) {
	procs := runtime.NumCPU()
	switch cfg.spec.Name {
	case "kernel_large":
		return newKernelLarge(cfg.seed, procs, opsPerClient, cfg.corrupt)
	case "inspect_churn":
		return newInspectChurn(cfg.seed, procs, opsPerClient, cfg.corrupt)
	}
	sc, ok := servingConfigs[cfg.spec.Name]
	if !ok {
		return nil, fmt.Errorf("bench: unknown workload %q", cfg.spec.Name)
	}
	return newServing(sc, cfg.seed, procs, clientsFor(cfg.spec), opsPerClient, cfg.traced, cfg.corrupt)
}

// opCounts turns the workload's fixed rate and the run length into
// per-client op counts: one timed segment, and the warm-up (10% of the
// timed ops, i.e. half a segment).
func opCounts(spec workloadSpec, seconds float64, clients int) (seg, warm int) {
	seg = int(spec.opsPerSecond*seconds) / (segments * clients)
	if seg >= mixBlock {
		seg -= seg % mixBlock
	}
	seg = max(seg, 1)
	return seg, max(seg/2, 1)
}

// settle waits for goroutines the instance stopped to finish exiting and
// returns how many remain above base.
func settle(base int) int {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	return max(runtime.NumGoroutine()-base, 0)
}

// closeChecked closes inst and records anything it left behind.
func closeChecked(res *runResult, inst instance, baseGoroutines int) (leakedGoroutines int) {
	lk, err := inst.close()
	if err != nil {
		res.Problems = append(res.Problems, fmt.Sprintf("%s: close: %v", res.Workload, err))
	}
	if lk.arenaOutstanding != 0 {
		res.Problems = append(res.Problems, fmt.Sprintf("%s: %d arenas outstanding after shutdown", res.Workload, lk.arenaOutstanding))
	}
	leakedGoroutines = settle(baseGoroutines)
	if leakedGoroutines != 0 {
		res.Problems = append(res.Problems, fmt.Sprintf("%s: %d goroutines leaked after shutdown", res.Workload, leakedGoroutines))
	}
	return leakedGoroutines
}

// run executes one workload once, untraced (end-to-end metrics) or
// traced (per-layer metrics).
func run(cfg runConfig) (*runResult, error) {
	pinEnvironment()
	clients := clientsFor(cfg.spec)
	seg, warm := opCounts(cfg.spec, cfg.seconds, clients)
	res := &runResult{
		Workload: cfg.spec.Name, Traced: cfg.traced, Seed: cfg.seed, Seconds: cfg.seconds,
		Clients: clients, Procs: runtime.NumCPU(), SegOps: seg * clients, Metrics: map[string]value{},
	}
	if cfg.traced {
		return res, runTraced(cfg, res, seg, warm)
	}
	return res, runUntraced(cfg, res, seg, warm)
}

func runUntraced(cfg runConfig, res *runResult, seg, warm int) error {
	base := runtime.NumGoroutine()
	var inst instance
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		if inst != nil {
			closeChecked(res, inst, base)
		}
		// Each set-up starts from a collected heap, so the first is not
		// charged for the process's cold start and the later ones are not
		// charged for their predecessors' garbage.
		runtime.GC()
		t0 := time.Now()
		var err error
		if inst, err = build(cfg, warm+segments*seg); err != nil {
			return err
		}
		res.count(runOps(inst, warm, 1, nil))
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.Digest = inst.digest()

	samples := map[string][]float64{}
	for i := 0; i < segments; i++ {
		s := runOps(inst, seg, verifyEvery, nil)
		res.count(s)
		for name, v := range s.endToEndOf(cfg.spec.rhsPerOp) {
			samples[name] = append(samples[name], v)
		}
	}
	samples["setup_s"] = setups
	for _, m := range endToEnd {
		res.Metrics[m.Name] = summarize(samples[m.Name], m.Unit)
	}
	closeChecked(res, inst, base)
	res.FailFrac = float64(res.Failed+res.Refused) / float64(res.Attempted)
	return nil
}

func runTraced(cfg runConfig, res *runResult, seg, warm int) error {
	base := runtime.NumGoroutine()
	quarter := max(segments*seg/4, 1)
	inst, err := build(cfg, warm+2*quarter)
	if err != nil {
		return err
	}
	res.Digest = inst.digest()
	res.count(runOps(inst, warm, 1, nil))

	rt0 := obs.ReadRuntime()
	peak := rt0.HeapBytes
	tr := &tracedLoop{ref: runOps(inst, quarter, 1, nil)}
	res.count(tr.ref)
	peak = max(peak, obs.ReadRuntime().HeapBytes)

	epoch := time.Now()
	for c := 0; c < inst.clients(); c++ {
		tr.logs = append(tr.logs, newSpanLog(c, quarter, epoch))
	}
	inst.mark()
	tr.seg = runOps(inst, quarter, 1, tr.logs)
	res.count(tr.seg)
	rt1 := obs.ReadRuntime()
	peak = max(peak, rt1.HeapBytes)
	tr.totals = rollUp(tr.logs)
	res.Spans, res.Ledger = tr.summary(), tr.ledgerLine()

	lm := layerMetrics{}
	if err := inst.layers(lm, tr, cfg.probeBudget); err != nil {
		closeChecked(res, inst, base)
		return err
	}
	rhs := float64(cfg.spec.rhsPerOp)
	refRate := float64(tr.ref.ok) * rhs / tr.ref.wall.Seconds()
	if refRate > 0 {
		lm.set("bench.trace_overhead_frac", 1-float64(tr.seg.ok)*rhs/tr.seg.wall.Seconds()/refRate, tr.seg.ops)
	}
	lm.set("bench.self_frac", tr.selfFrac(), tr.seg.ops)
	lm.set("runtime.gc_cycles", float64(rt1.GCCycles-rt0.GCCycles), 1)
	lm.set("runtime.gc_pause_ms", (rt1.GCPauseSeconds-rt0.GCPauseSeconds)*1e3, 1)
	lm.set("runtime.heap_peak_mb", float64(peak)/(1<<20), 3)
	if _, serving := servingConfigs[cfg.spec.Name]; !serving && tr.selfFrac() > maxSelfFrac {
		res.Problems = append(res.Problems, fmt.Sprintf("%s: sum check: %.1f%% of op time is in no child span (limit %.0f%%)",
			res.Workload, 100*tr.selfFrac(), 100*maxSelfFrac))
	}
	if cfg.traceOut != "" {
		if err := writeSpans(cfg.traceOut, tr.logs); err != nil {
			return err
		}
	}
	lm.set("runtime.goroutines_leaked", float64(closeChecked(res, inst, base)), 1)
	if err := lm.complete(); err != nil {
		return err
	}
	res.Metrics = lm
	res.FailFrac = float64(res.Failed+res.Refused) / float64(res.Attempted)
	return nil
}

// driverLine is the one-line result the driver reads.
func driverLine(w io.Writer, res *runResult) error {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.correct(), res.Attempted, res.Failed + res.Refused, map[string]mv{}}
	for name, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("bench: metric %s is not finite", name)
		}
		out.Metrics[name] = mv{v.Value, v.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func main() {
	if err := mainErr(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

var errIncorrect = errors.New("run incorrect: failed ops, a leak or a sum-check residual (see above)")

func mainErr(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run only this workload (default: all six)")
		seed     = fs.Int64("seed", 1989, "seed of every generated input")
		seconds  = fs.Float64("seconds", runSeconds, "run length; op counts are opsPerSecond x seconds, fixed per workload")
		trace    = fs.Int("trace", -1, "driver form: 0 = one untraced run, 1 = one traced run, printed as one JSON line")
		out      = fs.String("out", "", "append this run set to a result file (full form)")
		traceOut = fs.String("trace-out", "", "write the traced run's spans here, one JSON object per line")
		compare  = fs.Bool("compare", false, "compare two result files: bench -compare a.json[#set] b.json[#set]")
		spec     = fs.Bool("spec", false, "print BENCHMARK.json and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *spec:
		b, err := benchmarkJSON()
		if err != nil {
			return err
		}
		_, err = stdout.Write(b)
		return err
	case *compare:
		if fs.NArg() != 2 {
			return errors.New("-compare takes two result files")
		}
		return compareFiles(stdout, fs.Arg(0), fs.Arg(1))
	}

	specs := workloads
	if *workload != "" {
		w, ok := findWorkload(*workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", *workload)
		}
		specs = []workloadSpec{w}
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, setups: setupRepeats, probeBudget: 30 * time.Millisecond, traceOut: *traceOut}

	if *trace >= 0 {
		// The driver's form: one workload, one run, one line.
		if len(specs) != 1 {
			return errors.New("-trace needs -workload")
		}
		cfg.spec, cfg.traced = specs[0], *trace == 1
		res, err := run(cfg)
		if err != nil {
			return err
		}
		report(stderr, res)
		return driverLine(stdout, res)
	}

	set := newRunSet(*seed, *seconds)
	bad := false
	for _, w := range specs {
		for _, traced := range []bool{false, true} {
			cfg.spec, cfg.traced = w, traced
			if *traceOut != "" && len(specs) > 1 {
				cfg.traceOut = *traceOut + "." + w.Name
			}
			res, err := run(cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			report(stdout, res)
			set.Runs = append(set.Runs, res)
			bad = bad || !res.correct()
		}
	}
	if *out != "" {
		if err := appendRunSet(*out, set); err != nil {
			return err
		}
	}
	if bad {
		return errIncorrect
	}
	return nil
}
