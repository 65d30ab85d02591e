package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// compareMain is the `ci compare` subcommand: it renders a
// benchstat-style markdown table of a bench artifact (BENCH_ci.json)
// against the checked-in baseline — observed sec/op and allocs/op per
// benchmark, with the baseline allocs and the delta for the gated ones.
// The nightly workflow appends the output to $GITHUB_STEP_SUMMARY so a
// drifting benchmark is visible without downloading the artifact.
func compareMain(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("ci compare", flag.ContinueOnError)
	artPath := fs.String("artifact", "BENCH_ci.json", "bench artifact to compare")
	basePath := fs.String("baseline", "ci/bench_baseline.json", "baseline file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	data, err := os.ReadFile(*artPath)
	if err != nil {
		return err
	}
	var art artifact
	if err := json.Unmarshal(data, &art); err != nil {
		return fmt.Errorf("%s: %w", *artPath, err)
	}
	base, err := loadBaseline(*basePath)
	if err != nil {
		return err
	}

	// Collapse repeated runs to the per-benchmark minimum (the same
	// least-noise convention the gate uses), normalizing GOMAXPROCS
	// suffixes through the baseline names where one matches.
	type row struct {
		name            string
		secPerOp        float64
		allocsPerOp     float64
		hasAllocs       bool
		baseline        float64
		gated           bool
		deltaPct        float64
		exceedThreshold bool
	}
	byName := map[string]*row{}
	var order []string
	gatedNames := map[string]bool{}
	for name := range base.AllocsPerOp {
		gatedNames[name] = true
	}
	for name := range base.AllocsBudget {
		gatedNames[name] = true
	}
	for _, rec := range art.Records {
		name := rec.Name
		for baseName := range gatedNames {
			if matchesName(rec.Name, baseName) {
				name = baseName
				break
			}
		}
		r := byName[name]
		if r == nil {
			r = &row{name: name, secPerOp: math.Inf(1), allocsPerOp: math.Inf(1)}
			byName[name] = r
			order = append(order, name)
		}
		if v, ok := rec.Metrics["ns/op"]; ok && v < r.secPerOp*1e9 {
			r.secPerOp = v / 1e9
		}
		if v, ok := rec.Metrics["allocs/op"]; ok {
			r.hasAllocs = true
			if v < r.allocsPerOp {
				r.allocsPerOp = v
			}
		}
	}
	for exact, pins := range []map[string]float64{base.AllocsPerOp, base.AllocsBudget} {
		for name, want := range pins {
			r, ok := byName[name]
			if !ok {
				continue
			}
			r.gated, r.baseline = true, want
			if want > 0 {
				r.deltaPct = 100 * (r.allocsPerOp - want) / want
			} else if r.allocsPerOp > 0 {
				r.deltaPct = math.Inf(1)
			}
			// Budgets (the second map) are exact: any mismatch is flagged,
			// not just drift beyond the threshold.
			r.exceedThreshold = r.allocsPerOp > want*(1+base.Threshold) || (exact == 1 && r.allocsPerOp != want)
		}
	}
	sort.Strings(order)

	fmt.Fprintf(w, "## Benchmark comparison vs %s\n\n", *basePath)
	fmt.Fprintf(w, "%s, %s/%s, count %d; gate threshold +%.0f%% allocs/op\n\n",
		art.GoVersion, art.GOOS, art.GOARCH, art.Count, 100*base.Threshold)
	fmt.Fprintln(w, "| benchmark | sec/op | allocs/op | baseline allocs | Δ allocs |")
	fmt.Fprintln(w, "|---|---:|---:|---:|---:|")
	for _, name := range order {
		r := byName[name]
		sec := "-"
		if !math.IsInf(r.secPerOp, 1) {
			sec = fmt.Sprintf("%.6g", r.secPerOp)
		}
		allocs := "-"
		if r.hasAllocs && !math.IsInf(r.allocsPerOp, 1) {
			allocs = fmt.Sprintf("%.0f", r.allocsPerOp)
		}
		baseCol, deltaCol := "-", "-"
		if r.gated {
			baseCol = fmt.Sprintf("%.0f", r.baseline)
			deltaCol = fmt.Sprintf("%+.1f%%", r.deltaPct)
			if r.exceedThreshold {
				deltaCol += " ⚠"
			}
		}
		fmt.Fprintf(w, "| %s | %s | %s | %s | %s |\n", r.name, sec, allocs, baseCol, deltaCol)
	}
	// A gated benchmark missing from the artifact is worth flagging here
	// too — the gate fails the build on it, the summary explains it.
	var missing []string
	for name := range gatedNames {
		if _, ok := byName[name]; !ok {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		fmt.Fprintf(w, "\n**missing gated benchmark:** %s\n", name)
	}
	// The inverse direction: benchmarks the candidate run produced that
	// the baseline doesn't know about. New benchmarks land here until
	// someone decides whether to gate them — surfacing the list keeps
	// that decision visible instead of silently accumulating ungated
	// hot paths.
	var candidateOnly []string
	for name := range byName {
		if !gatedNames[name] {
			candidateOnly = append(candidateOnly, name)
		}
	}
	sort.Strings(candidateOnly)
	if len(candidateOnly) > 0 {
		fmt.Fprintf(w, "\n**present only in candidate run (not gated by the baseline):**\n\n")
		for _, name := range candidateOnly {
			fmt.Fprintf(w, "- %s\n", name)
		}
	}
	return nil
}
