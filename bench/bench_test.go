package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// tinyRun is a run short enough for `go test`: a handful of ops per
// segment, one set-up, three calls per probe.
func tinyRun(t *testing.T, name string, traced bool) *runResult {
	t.Helper()
	res, err := run(runConfig{spec: mustWorkload(t, name), seed: 42, seconds: 0.05, traced: traced, setups: 1,
		probeBudget: time.Microsecond})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

var nameGrammar = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestEveryMetricEmitted runs each workload once untraced and twice
// traced and checks that every catalogued metric comes out exactly once,
// finite and well named, that nothing failed or leaked, and that one
// seed gives one request sequence and one set of exact counts.
func TestEveryMetricEmitted(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			if !nameGrammar.MatchString(w.Name) {
				t.Errorf("workload name %q is outside the grammar", w.Name)
			}
			check := func(res *runResult, specs []metricSpec) {
				t.Helper()
				if !res.correct() {
					t.Errorf("run incorrect: %d failed, %d refused, first error %q, problems %v", res.Failed, res.Refused, res.Error, res.Problems)
				}
				if len(res.Metrics) != len(specs) {
					t.Errorf("%d metrics emitted, catalogue has %d", len(res.Metrics), len(specs))
				}
				for _, m := range specs {
					v, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
						t.Errorf("metric %s = %v", m.Name, v.Value)
					case v.Unit != m.Unit:
						t.Errorf("metric %s has unit %q, catalogue says %q", m.Name, v.Unit, m.Unit)
					case !nameGrammar.MatchString(m.Name):
						t.Errorf("metric name %q is outside the grammar", m.Name)
					}
				}
				var line bytes.Buffer
				if err := driverLine(&line, res); err != nil {
					t.Errorf("driver line: %v", err)
				}
				var parsed struct {
					Correct   *bool
					Attempted int
					Failed    *int
					Metrics   map[string]struct {
						Value *float64
						Unit  string
					}
				}
				if err := json.Unmarshal(line.Bytes(), &parsed); err != nil || parsed.Correct == nil ||
					parsed.Failed == nil || parsed.Attempted < 1 || len(parsed.Metrics) != len(specs) {
					t.Errorf("driver line malformed (%v): %s", err, line.String())
				}
			}
			untraced := tinyRun(t, w.Name, false)
			check(untraced, endToEnd)
			for _, m := range endToEnd {
				if untraced.Metrics[m.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", m.Name, untraced.Metrics[m.Name].Value)
				}
			}
			a, b := tinyRun(t, w.Name, true), tinyRun(t, w.Name, true)
			check(a, perLayer)
			if a.Digest != b.Digest || a.Digest == "" {
				t.Errorf("request digests differ for one seed: %q vs %q", a.Digest, b.Digest)
			}
			for _, m := range perLayer {
				if exactOn(m, w) && a.Metrics[m.Name].Value != b.Metrics[m.Name].Value {
					t.Errorf("exact count %s differs between two runs of one seed: %v vs %v",
						m.Name, a.Metrics[m.Name].Value, b.Metrics[m.Name].Value)
				}
			}
		})
	}
}

// TestOracleIsLive damages one bit of every checked solution: the
// failures must show, on a library and on a serving workload.
func TestOracleIsLive(t *testing.T) {
	flip := func(xs [][]float64) {
		xs[0][0] = math.Float64frombits(math.Float64bits(xs[0][0]) ^ 1)
	}
	for _, name := range []string{"kernel_large", "serve_warm_json"} {
		res, err := run(runConfig{spec: mustWorkload(t, name), seed: 42, seconds: 0.05, setups: 1, corrupt: flip})
		if err == nil && res.FailFrac > 0 && !res.correct() {
			continue
		}
		// A serving set-up verifies its registrations, so it may refuse
		// to start at all; that is the oracle speaking too.
		if err != nil && strings.Contains(err.Error(), "oracle") {
			continue
		}
		t.Errorf("%s: corrupted solutions went unnoticed: err %v, result %+v", name, err, res)
	}
}

func mustWorkload(t *testing.T, name string) workloadSpec {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	return w
}

// TestBenchmarkJSONInStep keeps the checked-in BENCHMARK.json equal to
// the catalogue and inside the driver's limits.
func TestBenchmarkJSONInStep(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json is stale: regenerate it with `go run . -spec > ../BENCHMARK.json`")
	}
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 || len(want) > 64<<10 {
		t.Error("catalogue is outside the BENCHMARK.json limits")
	}
	seen := map[string]bool{}
	setup := false
	for _, m := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %s is listed twice", m.Name)
		}
		seen[m.Name] = true
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("metric %s has bound %v", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric")
	}
	for _, w := range workloads {
		if len(w.Why) > 200 || strings.ContainsRune(w.Why, '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
}

// TestCompareVerdicts feeds -compare two run sets with known differences.
func TestCompareVerdicts(t *testing.T) {
	mk := func(rate, spread float64, failed int) *runSet {
		r := &runResult{Workload: "kernel_large", Attempted: 100, Failed: failed, FailFrac: float64(failed) / 100, Metrics: map[string]value{}}
		for _, m := range endToEnd {
			r.Metrics[m.Name] = value{Value: 100, Unit: m.Unit, Spread: 0.01, Samples: 5}
		}
		r.Metrics["solves_per_s"] = value{Value: rate, Unit: "1/s", Spread: spread, Samples: 5}
		return &runSet{Runs: []*runResult{r}}
	}
	dir := t.TempDir()
	write := func(name string, s *runSet) string {
		path := dir + "/" + name
		if err := appendRunSet(path, s); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", mk(100, 0.01, 0))
	for _, c := range []struct {
		name    string
		set     *runSet
		verdict string
		fails   bool
	}{
		{"same", mk(99, 0.01, 0), " ok", false},
		{"slower", mk(50, 0.01, 0), "regressed", true},
		{"noisy", mk(50, 0.5, 0), "unresolved", false},
		{"failing", mk(100, 0.01, 3), "fail_frac rose", true},
	} {
		var out bytes.Buffer
		err := compareFiles(&out, base, write(c.name+".json", c.set))
		if (err != nil) != c.fails || !strings.Contains(out.String(), c.verdict) {
			t.Errorf("%s: err %v, want failure %v and %q in:\n%s", c.name, err, c.fails, c.verdict, out.String())
		}
	}
}
