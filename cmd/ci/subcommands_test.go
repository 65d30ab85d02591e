package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGateNamesEveryOffender pins the regression-gate contract that a
// multi-benchmark regression surfaces every offender with baseline vs
// observed allocs/op, not just the first one found.
func TestGateNamesEveryOffender(t *testing.T) {
	records := []benchRecord{
		{Name: "BenchmarkA-4", Iters: 1, Metrics: map[string]float64{"allocs/op": 20}},
		{Name: "BenchmarkB", Iters: 1, Metrics: map[string]float64{"allocs/op": 9}},
		{Name: "BenchmarkC", Iters: 1, Metrics: map[string]float64{"allocs/op": 1}},
	}
	base := baseline{Threshold: 0.3, AllocsPerOp: map[string]float64{
		"BenchmarkA": 10, // regressed 2x
		"BenchmarkB": 3,  // regressed 3x
		"BenchmarkC": 1,  // fine
		"BenchmarkD": 5,  // did not run
	}}
	problems := gate(records, base)
	if len(problems) != 3 {
		t.Fatalf("gate found %d problems, want 3: %v", len(problems), problems)
	}
	joined := strings.Join(problems, "\n")
	for _, want := range []string{
		"BenchmarkA", "baseline 10", "regressed to 20",
		"BenchmarkB", "baseline 3", "regressed to 9",
		"BenchmarkD", "did not run",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("gate output missing %q:\n%s", want, joined)
		}
	}
	if strings.Contains(joined, "BenchmarkC") {
		t.Errorf("gate flagged the healthy BenchmarkC:\n%s", joined)
	}
}

func TestReadCoverageFloor(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "floor.txt")
	if err := os.WriteFile(path, []byte("# minimum total coverage\n71.5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	v, err := readCoverageFloor(path)
	if err != nil || v != 71.5 {
		t.Fatalf("floor = %v, %v; want 71.5", v, err)
	}
	if err := os.WriteFile(path, []byte("nonsense\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readCoverageFloor(path); err == nil {
		t.Error("accepted a malformed floor file")
	}
	if _, err := readCoverageFloor(filepath.Join(dir, "missing.txt")); err == nil {
		t.Error("accepted a missing floor file")
	}
}

func TestCompareRendersTable(t *testing.T) {
	dir := t.TempDir()
	artPath := filepath.Join(dir, "BENCH_ci.json")
	basePath := filepath.Join(dir, "baseline.json")
	art := artifact{
		GoVersion: "go1.24", GOOS: "linux", GOARCH: "amd64", Count: 2,
		Records: []benchRecord{
			{Name: "BenchmarkX-4", Iters: 1, Metrics: map[string]float64{"ns/op": 1500, "allocs/op": 7}},
			{Name: "BenchmarkX-4", Iters: 1, Metrics: map[string]float64{"ns/op": 1200, "allocs/op": 6}},
			{Name: "BenchmarkY", Iters: 1, Metrics: map[string]float64{"ns/op": 900, "allocs/op": 4}},
		},
	}
	data, _ := json.Marshal(art)
	if err := os.WriteFile(artPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	base, _ := json.Marshal(baseline{Threshold: 0.3, AllocsPerOp: map[string]float64{
		"BenchmarkX": 6,
		"BenchmarkZ": 2, // missing from the artifact
	}})
	if err := os.WriteFile(basePath, base, 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := compareMain([]string{"-artifact", artPath, "-baseline", basePath}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"| benchmark |",
		"| BenchmarkX | 1.2e-06 | 6 | 6 | +0.0% |",
		"| BenchmarkY | 9e-07 | 4 | - | - |",
		"missing gated benchmark:** BenchmarkZ",
		// The inverse listing: BenchmarkY ran but is gated by nothing.
		"present only in candidate run",
		"- BenchmarkY",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("compare output missing %q:\n%s", want, out)
		}
	}
}

// TestCompareFlagsBudgetMismatch: a budget is an exact contract, so the
// table flags a budgeted benchmark below its pin as well as above it,
// while a drift-gated one below its baseline stays unflagged.
func TestCompareFlagsBudgetMismatch(t *testing.T) {
	dir := t.TempDir()
	artPath := filepath.Join(dir, "BENCH_ci.json")
	basePath := filepath.Join(dir, "baseline.json")
	data, _ := json.Marshal(artifact{Records: []benchRecord{
		{Name: "BenchmarkX", Iters: 1, Metrics: map[string]float64{"ns/op": 1000, "allocs/op": 4}},
		{Name: "BenchmarkY", Iters: 1, Metrics: map[string]float64{"ns/op": 1000, "allocs/op": 4}},
	}})
	base, _ := json.Marshal(baseline{Threshold: 0.3,
		AllocsPerOp:  map[string]float64{"BenchmarkX": 5},
		AllocsBudget: map[string]float64{"BenchmarkY": 5}})
	if err := os.WriteFile(artPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(basePath, base, 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := compareMain([]string{"-artifact", artPath, "-baseline", basePath}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"| BenchmarkX | 1e-06 | 4 | 5 | -20.0% |", "| BenchmarkY | 1e-06 | 4 | 5 | -20.0% ⚠ |"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("compare output missing %q:\n%s", want, buf.String())
		}
	}
}
