package main

import (
	"errors"
	"fmt"
	"io"
	"math"
)

// compareFiles applies the end-to-end bounds to two run sets — a is the
// base, b the candidate — and prints one row per (metric, workload):
//
//	ok          b's median is no worse than a's by more than the bound
//	regressed   it is
//	unresolved  either side's segment spread is wider than the bound, so
//	            the comparison cannot tell; never reported as unchanged
//
// It also lists exact counts that differ and fails on a rise in
// fail_frac.
func compareFiles(w io.Writer, aPath, bPath string) error {
	a, err := loadRunSet(aPath)
	if err != nil {
		return err
	}
	b, err := loadRunSet(bPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "base      %s: commit %s, seed %d, %g s, %d procs, %s\n", aPath, a.Commit, a.Seed, a.Seconds, a.NProc, a.GoVersion)
	fmt.Fprintf(w, "candidate %s: commit %s, seed %d, %g s, %d procs, %s\n", bPath, b.Commit, b.Seed, b.Seconds, b.NProc, b.GoVersion)
	fmt.Fprintf(w, "%-18s %-16s %12s %12s %8s %7s %8s  %s\n", "workload", "metric", "base", "candidate", "worse", "bound", "spread", "verdict")
	regressed, unresolved := 0, 0
	for _, wl := range workloads {
		ra, rb := a.find(wl.Name, false), b.find(wl.Name, false)
		if ra == nil || rb == nil {
			continue
		}
		for _, m := range endToEnd {
			va, vb := ra.Metrics[m.Name], rb.Metrics[m.Name]
			worse := (vb.Value - va.Value) / va.Value
			if m.Better == "higher" {
				worse = -worse
			}
			spread := math.Max(va.Spread, vb.Spread)
			verdict := "ok"
			switch {
			case spread > m.Bound:
				verdict = "unresolved"
				unresolved++
			case worse > m.Bound:
				verdict = "regressed"
				regressed++
			}
			fmt.Fprintf(w, "%-18s %-16s %12.4f %12.4f %+7.1f%% %6.0f%% %7.1f%%  %s\n",
				wl.Name, m.Name, va.Value, vb.Value, 100*worse, 100*m.Bound, 100*spread, verdict)
		}
		if rb.FailFrac > ra.FailFrac {
			fmt.Fprintf(w, "%-18s fail_frac rose from %g to %g: %s\n", wl.Name, ra.FailFrac, rb.FailFrac, rb.Error)
			regressed++
		}
		ta, tb := a.find(wl.Name, true), b.find(wl.Name, true)
		if ta == nil || tb == nil {
			continue
		}
		if ta.Seed == tb.Seed && ta.Digest != tb.Digest {
			fmt.Fprintf(w, "%-18s request digests differ for one seed: %s vs %s\n", wl.Name, ta.Digest, tb.Digest)
		}
		for _, m := range perLayer {
			if !exactOn(m, wl) || ta.Seed != tb.Seed {
				continue
			}
			if x, y := ta.Metrics[m.Name].Value, tb.Metrics[m.Name].Value; x != y {
				fmt.Fprintf(w, "%-18s exact count %s differs: %g vs %g\n", wl.Name, m.Name, x, y)
			}
		}
	}
	fmt.Fprintf(w, "%d regressed, %d unresolved\n", regressed, unresolved)
	if regressed > 0 {
		return errors.New("regression")
	}
	return nil
}
