package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: doconsider
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkRuntimeRepeatedRun/self-executing-4         	       1	    261000 ns/op	   66000 B/op	      14 allocs/op
BenchmarkRuntimeRepeatedRun/self-executing-4         	       1	    259000 ns/op	   66000 B/op	      15 allocs/op
BenchmarkRuntimeRepeatedRun/pooled-4                 	       1	    253000 ns/op	       0 B/op	       0 allocs/op
BenchmarkRuntimeRepeatedRun/pooled-4                 	       1	    251000 ns/op	       0 B/op	       0 allocs/op
BenchmarkAblationPartition/striped-4                 	       1	     90000 ns/op	     100 makespan
PASS
ok  	doconsider	1.0s
`

func TestParseBench(t *testing.T) {
	records := parseBench(sampleOutput)
	if len(records) != 5 {
		t.Fatalf("parsed %d records, want 5", len(records))
	}
	first := records[0]
	if first.Name != "BenchmarkRuntimeRepeatedRun/self-executing-4" || first.Iters != 1 {
		t.Fatalf("first record = %+v", first)
	}
	if first.Metrics["allocs/op"] != 14 || first.Metrics["ns/op"] != 261000 {
		t.Fatalf("first record metrics = %v", first.Metrics)
	}
	// Custom ReportMetric units parse too.
	last := records[4]
	if last.Metrics["makespan"] != 100 {
		t.Fatalf("custom metric lost: %v", last.Metrics)
	}
}

func TestMatchesName(t *testing.T) {
	for _, c := range []struct {
		printed, base string
		want          bool
	}{
		{"BenchmarkRuntimeRepeatedRun/pooled-4", "BenchmarkRuntimeRepeatedRun/pooled", true},
		{"BenchmarkRuntimeRepeatedRun/pooled-16", "BenchmarkRuntimeRepeatedRun/pooled", true},
		// GOMAXPROCS=1 runners print no suffix.
		{"BenchmarkRuntimeRepeatedRun/pooled", "BenchmarkRuntimeRepeatedRun/pooled", true},
		// Digit-suffixed sub-benchmark names match on every machine.
		{"BenchmarkSolveBatch/batch-8", "BenchmarkSolveBatch/batch-8", true},
		{"BenchmarkSolveBatch/batch-8-4", "BenchmarkSolveBatch/batch-8", true},
		// Inherent ambiguity in Go's format: "batch-8" could be
		// sub-benchmark "batch" at GOMAXPROCS=8, so it matches base
		// "batch" too (min across both is the conservative reading).
		{"BenchmarkSolveBatch/batch-8", "BenchmarkSolveBatch/batch", true},
		{"BenchmarkFoo/sub-case", "BenchmarkFoo/sub", false},
		{"BenchmarkOther/pooled-4", "BenchmarkRuntimeRepeatedRun/pooled", false},
	} {
		if got := matchesName(c.printed, c.base); got != c.want {
			t.Errorf("matchesName(%q, %q) = %v, want %v", c.printed, c.base, got, c.want)
		}
	}
}

func TestMinMetricUsesMinimumAcrossRuns(t *testing.T) {
	records := parseBench(sampleOutput)
	got, ok := minMetric(records, "BenchmarkRuntimeRepeatedRun/self-executing", "allocs/op")
	if !ok || got != 14 {
		t.Fatalf("min allocs = %v (ok=%v), want 14", got, ok)
	}
}

func testBaseline() baseline {
	return baseline{
		Threshold: 0.30,
		AllocsPerOp: map[string]float64{
			"BenchmarkRuntimeRepeatedRun/self-executing": 14,
			"BenchmarkRuntimeRepeatedRun/pooled":         0,
		},
	}
}

func TestGatePassesAtBaseline(t *testing.T) {
	problems := gate(parseBench(sampleOutput), testBaseline())
	if len(problems) != 0 {
		t.Fatalf("gate failed on baseline-conformant run: %v", problems)
	}
}

// TestGateFailsOnInjectedAllocRegression is the acceptance check for the
// regression gate: the pooled hot path picking up a single allocation, or
// the self-executing path regressing beyond 30%, must fail.
func TestGateFailsOnInjectedAllocRegression(t *testing.T) {
	regressed := strings.ReplaceAll(sampleOutput,
		"253000 ns/op	       0 B/op	       0 allocs/op",
		"253000 ns/op	      64 B/op	       2 allocs/op")
	regressed = strings.ReplaceAll(regressed,
		"251000 ns/op	       0 B/op	       0 allocs/op",
		"251000 ns/op	      64 B/op	       2 allocs/op")
	problems := gate(parseBench(regressed), testBaseline())
	if len(problems) != 1 {
		t.Fatalf("gate problems = %v, want exactly the pooled regression", problems)
	}
	if !strings.Contains(problems[0], "pooled") || !strings.Contains(problems[0], "regressed to 2") {
		t.Fatalf("unexpected gate message: %s", problems[0])
	}

	// 14 -> 18 is within the 30% budget; 14 -> 19 is not.
	within := strings.ReplaceAll(sampleOutput, "14 allocs/op", "18 allocs/op")
	within = strings.ReplaceAll(within, "15 allocs/op", "18 allocs/op")
	if problems := gate(parseBench(within), testBaseline()); len(problems) != 0 {
		t.Fatalf("gate rejected a within-threshold drift: %v", problems)
	}
	beyond := strings.ReplaceAll(sampleOutput, "14 allocs/op", "19 allocs/op")
	beyond = strings.ReplaceAll(beyond, "15 allocs/op", "19 allocs/op")
	if problems := gate(parseBench(beyond), testBaseline()); len(problems) != 1 {
		t.Fatalf("gate missed a beyond-threshold regression: %v", problems)
	}
}

// TestGateTimeRegression: time is not gated. ns/op at -benchtime 1x moves
// with the machine (the old +200% ns gate was a known flake at -count 1),
// so no wall-time change fails the build, and a baseline file that still
// carries the retired ns keys loads as if they were absent.
func TestGateTimeRegression(t *testing.T) {
	blown := strings.ReplaceAll(sampleOutput, "253000 ns/op", "900000 ns/op")
	blown = strings.ReplaceAll(blown, "251000 ns/op", "900000 ns/op")
	if problems := gate(parseBench(blown), testBaseline()); len(problems) != 0 {
		t.Fatalf("gate failed on wall time alone: %v", problems)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	old := `{"threshold":0.3,"ns_threshold":2,"allocs_per_op":{"BenchmarkRuntimeRepeatedRun/pooled":0},"ns_per_op":{"BenchmarkRuntimeRepeatedRun/pooled":1}}`
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	base, err := loadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if problems := gate(parseBench(blown), base); len(problems) != 0 {
		t.Fatalf("a baseline with retired ns keys still gates time: %v", problems)
	}
}

// budgetBaseline pins the pooled benchmark to an exact allocation
// contract on top of the usual drift gates.
func budgetBaseline() baseline {
	b := testBaseline()
	b.AllocsBudget = map[string]float64{
		"BenchmarkRuntimeRepeatedRun/pooled": 0,
	}
	return b
}

// TestBudgetGateIsExact pins the allocs_budget contract: the budget is
// exact in both directions (a regression AND an unexpected improvement
// fail), the failure message names the benchmark and the pinned budget,
// and a budgeted benchmark that vanishes from the run fails too.
func TestBudgetGateIsExact(t *testing.T) {
	if problems := gate(parseBench(sampleOutput), budgetBaseline()); len(problems) != 0 {
		t.Fatalf("budget gate failed on a conformant run: %v", problems)
	}

	// One allocation over budget fails with no threshold — even though
	// the same run passes the ±30% drift gate's arithmetic for small
	// baselines, the budget has no slack at all.
	over := strings.ReplaceAll(sampleOutput,
		"253000 ns/op	       0 B/op	       0 allocs/op",
		"253000 ns/op	      32 B/op	       1 allocs/op")
	over = strings.ReplaceAll(over,
		"251000 ns/op	       0 B/op	       0 allocs/op",
		"251000 ns/op	      32 B/op	       1 allocs/op")
	problems := gate(parseBench(over), budgetBaseline())
	if len(problems) != 2 {
		// The drift gate for pooled also trips (0 -> 1 exceeds limit 0);
		// the budget failure must be there alongside it.
		t.Fatalf("gate problems = %v, want drift + budget failures", problems)
	}
	var budgetMsg string
	for _, p := range problems {
		if strings.Contains(p, "budget") {
			budgetMsg = p
		}
	}
	if budgetMsg == "" {
		t.Fatalf("no budget failure among: %v", problems)
	}
	if !strings.Contains(budgetMsg, "BenchmarkRuntimeRepeatedRun/pooled") ||
		!strings.Contains(budgetMsg, "pins exactly 0") ||
		!strings.Contains(budgetMsg, "allocs/op = 1") {
		t.Fatalf("budget message must name the benchmark, observed value and pinned budget: %s", budgetMsg)
	}

	// An improvement below the pin fails too: the contract must be
	// re-tightened deliberately, not drift loose.
	b := budgetBaseline()
	b.AllocsBudget["BenchmarkRuntimeRepeatedRun/pooled"] = 3
	b.AllocsPerOp["BenchmarkRuntimeRepeatedRun/pooled"] = 3
	problems = gate(parseBench(sampleOutput), b)
	if len(problems) != 1 || !strings.Contains(problems[0], "pins exactly 3") {
		t.Fatalf("gate problems = %v, want exactly the stale-budget failure", problems)
	}

	// A vanished budgeted benchmark is a failure naming the budget.
	gone := strings.ReplaceAll(sampleOutput, "BenchmarkRuntimeRepeatedRun/pooled", "BenchmarkRenamed/pooled")
	problems = gate(parseBench(gone), budgetBaseline())
	var sawBudgetGone bool
	for _, p := range problems {
		if strings.Contains(p, "budget-gated benchmark did not run") &&
			strings.Contains(p, "BenchmarkRuntimeRepeatedRun/pooled") {
			sawBudgetGone = true
		}
	}
	if !sawBudgetGone {
		t.Fatalf("gate problems = %v, want a budget did-not-run failure", problems)
	}
}

// TestGateFailsWhenGatedBenchmarkVanishes: deleting the benchmark must
// not silently disable the gate.
func TestGateFailsWhenGatedBenchmarkVanishes(t *testing.T) {
	withoutPooled := strings.ReplaceAll(sampleOutput, "BenchmarkRuntimeRepeatedRun/pooled", "BenchmarkRenamed/pooled")
	problems := gate(parseBench(withoutPooled), testBaseline())
	if len(problems) != 1 || !strings.Contains(problems[0], "did not run") {
		t.Fatalf("gate problems = %v, want one did-not-run failure", problems)
	}
}

func TestRunRejectsUnknownSubcommand(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("accepted empty args")
	}
	if err := run([]string{"deploy"}); err == nil {
		t.Error("accepted unknown subcommand")
	}
}
