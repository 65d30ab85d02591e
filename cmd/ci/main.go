// Command ci mirrors the repository's CI pipeline so it runs identically
// on a laptop and in GitHub Actions.
//
// Subcommands:
//
//	bench     run the benchmark suite at -benchtime 1x, emit a
//	          benchstat-comparable JSON artifact (BENCH_ci.json) and
//	          gate allocs/op of the hot-path benchmarks against a
//	          checked-in baseline: a >threshold regression — e.g. the
//	          pooled executor's 0 allocs/op Run picking up allocations —
//	          fails the build. Benchmarks listed under allocs_budget are
//	          held to an exact contract instead: any mismatch, in either
//	          direction, fails. With -update the drift baselines are
//	          rewritten from the observed values (budgets never are).
//	coverage  run `go test -coverprofile` across ./... and fail if the
//	          total statement coverage drops below the floor checked in
//	          at ci/coverage_floor.txt. With -update the floor is
//	          rewritten from the observed total (minus a margin).
//	compare   render a benchstat-style markdown comparison of a bench
//	          artifact against the checked-in baseline (the nightly
//	          workflow posts it as the job summary).
//
// Usage:
//
//	go run ./cmd/ci bench [-count 5] [-out BENCH_ci.json] \
//	    [-baseline ci/bench_baseline.json] [-threshold 0.30] [-update]
//	go run ./cmd/ci coverage [-floor ci/coverage_floor.txt] \
//	    [-profile coverage.out] [-update]
//	go run ./cmd/ci compare [-artifact BENCH_ci.json] \
//	    [-baseline ci/bench_baseline.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ci:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: ci <bench|coverage|compare> [flags]")
	}
	switch args[0] {
	case "bench":
		return benchMain(args[1:])
	case "coverage":
		return coverageMain(args[1:], os.Stdout)
	case "compare":
		return compareMain(args[1:], os.Stdout)
	default:
		return fmt.Errorf("usage: ci <bench|coverage|compare> [flags]; unknown subcommand %q", args[0])
	}
}

// benchRecord is one parsed benchmark result line.
type benchRecord struct {
	Name    string             `json:"name"`  // as printed, including -GOMAXPROCS suffix
	Iters   int64              `json:"iters"` //nolint: one at -benchtime 1x
	Metrics map[string]float64 `json:"metrics"`
}

// artifact is the BENCH_ci.json schema: structured records for tooling
// plus the raw `go test -bench` text, which benchstat consumes directly.
type artifact struct {
	GoVersion string        `json:"go_version"`
	GOOS      string        `json:"goos"`
	GOARCH    string        `json:"goarch"`
	Count     int           `json:"count"`
	Records   []benchRecord `json:"records"`
	Text      string        `json:"text"`
}

// baseline is the checked-in regression reference. AllocsPerOp maps
// normalized benchmark names (no -GOMAXPROCS suffix) to the expected
// allocs/op; a run exceeding a value by more than Threshold fails.
// Time is not gated here: ns/op at -benchtime 1x moves with the machine,
// and speed claims are made with paired runs of the ledger (bench/).
// AllocsBudget is different in kind from AllocsPerOp: it is an exact
// per-benchmark allocation contract, not a drift gate. A budgeted
// benchmark must report exactly the pinned allocs/op — one allocation
// over the zero-alloc serving path fails the build with no threshold,
// and an improvement below the pin also fails, so the contract is
// re-pinned deliberately rather than rotting. -update never rewrites
// budgets for the same reason.
type baseline struct {
	Threshold    float64            `json:"threshold"`
	AllocsPerOp  map[string]float64 `json:"allocs_per_op"`
	AllocsBudget map[string]float64 `json:"allocs_budget,omitempty"`
}

func benchMain(args []string) error {
	fs := flag.NewFlagSet("ci bench", flag.ContinueOnError)
	count := fs.Int("count", 5, "benchmark repetitions (benchstat input)")
	out := fs.String("out", "BENCH_ci.json", "artifact output path")
	basePath := fs.String("baseline", "ci/bench_baseline.json", "baseline file for the regression gate")
	threshold := fs.Float64("threshold", 0, "override the baseline's regression threshold (0 = use the file's)")
	update := fs.Bool("update", false, "rewrite the baseline from this run instead of gating")
	if err := fs.Parse(args); err != nil {
		return err
	}

	text, runErr := runBenchmarks(*count)
	// Write the artifact even when the bench run failed: partial results
	// are exactly what a broken CI run needs for diagnosis (the workflow
	// uploads it with `if: always()`).
	records := parseBench(text)
	art := artifact{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Count:     *count,
		Records:   records,
		Text:      text,
	}
	if err := writeArtifact(*out, art); err != nil {
		if runErr != nil {
			return fmt.Errorf("%w (and writing %s failed: %v)", runErr, *out, err)
		}
		return err
	}
	fmt.Printf("ci: wrote %s (%d benchmark results)\n", *out, len(records))
	if runErr != nil {
		return runErr
	}
	if len(records) == 0 {
		return fmt.Errorf("no benchmark results parsed — did the bench run fail?")
	}

	if *update {
		base, err := loadBaseline(*basePath)
		if err != nil {
			return err
		}
		for name := range base.AllocsPerOp {
			v, ok := minMetric(records, name, "allocs/op")
			if !ok {
				return fmt.Errorf("baseline benchmark %q did not run; cannot update", name)
			}
			base.AllocsPerOp[name] = v
		}
		// Budgets are pinned contracts, never refreshed from a run; an
		// -update that breaks one must fail loudly, not paper over it.
		if problems := gateBudgets(records, base); len(problems) > 0 {
			return fmt.Errorf("allocation budgets are exact contracts and are not rewritten by -update; fix the regression or re-pin the budget by hand:\n  %s",
				strings.Join(problems, "\n  "))
		}
		if err := writeBaseline(*basePath, base); err != nil {
			return err
		}
		fmt.Printf("ci: updated %s\n", *basePath)
		return nil
	}

	base, err := loadBaseline(*basePath)
	if err != nil {
		return err
	}
	if *threshold > 0 {
		base.Threshold = *threshold
	}
	problems := gate(records, base)
	if len(problems) > 0 {
		// One message naming every offender with baseline vs observed, so
		// a multi-benchmark regression is diagnosed from a single failure
		// line instead of one fix-rerun cycle per benchmark.
		return fmt.Errorf("benchmark regression gate failed (%d problems):\n  %s",
			len(problems), strings.Join(problems, "\n  "))
	}
	fmt.Printf("ci: regression gate passed (%d alloc-gated, %d exact-budget benchmarks, threshold +%.0f%%)\n",
		len(base.AllocsPerOp), len(base.AllocsBudget), 100*base.Threshold)
	return nil
}

// passPins are the 0 allocs/op pins of parallel passes — every kind's
// repeated Runtime.Run and the pooled supernodal solves — run at 1000x:
// after the harness's pre-benchmark GC, parked helpers refill the
// runtime's sudog cache (1–2 allocs/op at 1x); a per-pass allocation
// still reads 1.
const passPins = "^BenchmarkRuntimeRepeatedRun$|^BenchmarkSupernodal$/./-pooled$"

// benchInvocations lists the go test runs the bench job performs: the
// kernel packages with every benchmark, then the pass pins, among them
// the repository root's hot-path amortization benchmark.
var benchInvocations = [][]string{
	{"-benchtime", "1x", "-skip", passPins, "-bench", ".",
		"./internal/executor", "./internal/schedule", "./internal/trisolve",
		"./internal/core", "./internal/plancache", "./internal/planner",
		"./internal/server", "./internal/delta", "./internal/router"},
	{"-benchtime", "1000x", "-bench", passPins, "./internal/trisolve", "."},
}

func runBenchmarks(count int) (string, error) {
	var sb strings.Builder
	for _, inv := range benchInvocations {
		args := append([]string{"test", "-run", "^$", "-count", strconv.Itoa(count), "-benchmem"}, inv...)
		cmd := exec.Command("go", args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		sb.Write(out)
		if err != nil {
			return sb.String(), fmt.Errorf("go %s: %w", strings.Join(args, " "), err)
		}
	}
	return sb.String(), nil
}

// parseBench extracts benchmark result lines from `go test -bench`
// output: name, iteration count, then (value, unit) pairs, including
// custom b.ReportMetric units.
func parseBench(text string) []benchRecord {
	var records []benchRecord
	for _, line := range strings.Split(text, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		rec := benchRecord{Name: fields[0], Iters: iters, Metrics: map[string]float64{}}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			rec.Metrics[fields[i+1]] = v
		}
		if len(rec.Metrics) > 0 {
			records = append(records, rec)
		}
	}
	return records
}

// matchesName reports whether a printed benchmark name matches a
// baseline name: exactly (GOMAXPROCS=1 runners print no suffix), or with
// a -<digits> GOMAXPROCS suffix appended. Matching in this direction —
// rather than stripping trailing digits from printed names — keeps
// baseline names that legitimately end in digits (e.g. "batch-8")
// unambiguous on every machine.
func matchesName(printed, base string) bool {
	if printed == base {
		return true
	}
	if !strings.HasPrefix(printed, base+"-") {
		return false
	}
	_, err := strconv.Atoi(printed[len(base)+1:])
	return err == nil
}

// minMetric returns the minimum of metric across the records matching
// the baseline name; with deterministic counters like allocs/op the
// minimum is the least-noisy representative of repeated runs.
func minMetric(records []benchRecord, name, metric string) (float64, bool) {
	best, found := math.Inf(1), false
	for _, r := range records {
		if !matchesName(r.Name, name) {
			continue
		}
		if v, ok := r.Metrics[metric]; ok {
			found = true
			if v < best {
				best = v
			}
		}
	}
	return best, found
}

// gate checks every baseline entry against the observed minima. A gated
// benchmark that did not run is itself a failure — otherwise deleting the
// benchmark would silently disable the gate.
func gate(records []benchRecord, base baseline) []string {
	var problems []string
	names := make([]string, 0, len(base.AllocsPerOp))
	for name := range base.AllocsPerOp {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		want := base.AllocsPerOp[name]
		got, ok := minMetric(records, name, "allocs/op")
		if !ok {
			problems = append(problems, fmt.Sprintf("%s: gated benchmark did not run or reported no allocs/op", name))
			continue
		}
		limit := want * (1 + base.Threshold)
		if got > limit {
			problems = append(problems, fmt.Sprintf(
				"%s: allocs/op regressed to %.0f (baseline %.0f, limit %.1f = +%.0f%%)",
				name, got, want, limit, 100*base.Threshold))
		}
	}
	problems = append(problems, gateBudgets(records, base)...)
	return problems
}

// gateBudgets checks the exact allocation contracts: a budgeted
// benchmark must report precisely the pinned allocs/op. There is no
// threshold in either direction — going over is a leak on a path the
// budget declares allocation-free (or fixed-cost), and going under
// means the pin is stale and must be re-tightened by hand so the
// contract keeps teeth.
func gateBudgets(records []benchRecord, base baseline) []string {
	var problems []string
	names := make([]string, 0, len(base.AllocsBudget))
	for name := range base.AllocsBudget {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		budget := base.AllocsBudget[name]
		got, ok := minMetric(records, name, "allocs/op")
		if !ok {
			problems = append(problems, fmt.Sprintf(
				"%s: budget-gated benchmark did not run or reported no allocs/op (budget is exactly %.0f allocs/op)",
				name, budget))
			continue
		}
		if got != budget {
			problems = append(problems, fmt.Sprintf(
				"%s: allocs/op = %.0f, budget pins exactly %.0f (no drift allowed; re-pin ci/bench_baseline.json deliberately if this is intended)",
				name, got, budget))
		}
	}
	return problems
}

func loadBaseline(path string) (baseline, error) {
	var base baseline
	data, err := os.ReadFile(path)
	if err != nil {
		return base, err
	}
	if err := json.Unmarshal(data, &base); err != nil {
		return base, fmt.Errorf("%s: %w", path, err)
	}
	if base.Threshold <= 0 {
		base.Threshold = 0.30
	}
	return base, nil
}

func writeBaseline(path string, base baseline) error {
	data, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func writeArtifact(path string, art artifact) error {
	data, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
