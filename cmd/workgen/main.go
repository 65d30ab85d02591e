// Command workgen generates synthetic workload matrices with the paper's
// Section 4.1 generator (Poisson out-degree, geometric Manhattan link
// distance on a 2-D mesh) and either prints structure statistics or dumps
// the matrix in triplet text form. With -drift-steps it additionally
// simulates a drifting workload: successive structural edit sets applied
// to the generated matrix, reporting for each step how the incremental
// re-inspection (internal/delta) repaired the schedule versus what a
// cold rebuild costs.
//
// Usage:
//
//	workgen -name 65-4-3 [-seed 1989] [-stats] [-o matrix.txt] \
//	    [-drift-steps 8] [-drift-rate 1] [-drift-edits 8]
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"doconsider/internal/core"
	"doconsider/internal/delta"
	"doconsider/internal/executor"
	"doconsider/internal/schedule"
	"doconsider/internal/sparse"
	"doconsider/internal/synthetic"
	"doconsider/internal/wavefront"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "workgen:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("workgen", flag.ContinueOnError)
	name := fs.String("name", "65-4-3", "workload label: mesh-degree-distance")
	seed := fs.Int64("seed", 1989, "generator seed")
	stats := fs.Bool("stats", true, "print structure statistics")
	spy := fs.Bool("spy", false, "print an ASCII density plot of the matrix")
	out := fs.String("o", "", "write the matrix in triplet text form to this file")
	driftSteps := fs.Int("drift-steps", 0, "simulate this many structural drift steps")
	driftRate := fs.Float64("drift-rate", 1, "probability each drift step actually edits the structure")
	driftEdits := fs.Int("drift-edits", 8, "row edits per drift step")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *driftRate < 0 || *driftRate > 1 {
		return fmt.Errorf("-drift-rate must be in [0,1], got %g", *driftRate)
	}
	if *driftSteps > 0 && *driftEdits < 1 {
		return fmt.Errorf("-drift-edits must be positive, got %d", *driftEdits)
	}

	cfg, err := synthetic.Parse(*name, *seed)
	if err != nil {
		return err
	}
	a := synthetic.Generate(cfg)
	if *stats {
		s := synthetic.Summarize(a)
		// One forced-fused inspection yields the levels and the supernodes.
		seq := core.Config{Procs: 1}
		core.WithExecutor(executor.Sequential)(&seq)
		in, err := core.Inspect(wavefront.FromLower(a), seq, core.FuseForce, nil)
		if err != nil {
			return err
		}
		hist := wavefront.Histogram(in.Wf)
		maxw := 0
		for _, h := range hist {
			if h > maxw {
				maxw = h
			}
		}
		fmt.Fprintf(w, "workload %s (seed %d)\n", cfg.Name(), cfg.Seed)
		fmt.Fprintf(w, "  indices        %d\n", s.N)
		fmt.Fprintf(w, "  links          %d (avg degree %.2f)\n", s.Links, s.AvgDegree)
		fmt.Fprintf(w, "  max row nnz    %d\n", s.MaxRowNNZ)
		fmt.Fprintf(w, "  source rows    %d (no dependences)\n", s.EmptyRows)
		fmt.Fprintf(w, "  avg row band   %.1f\n", s.AvgRowBand)
		fmt.Fprintf(w, "  wavefronts     %d (max width %d)\n", len(hist), maxw)
		ps := in.Part.Stats()
		fmt.Fprintf(w, "  supernodes     %d (%d of %d rows fused, max width %d, %d compressed levels)\n",
			ps.Nodes, ps.FusedRows, ps.Rows, ps.MaxWidth, len(wavefront.Histogram(in.UnitWf)))
	}
	if *spy {
		if err := a.Spy(w, 64); err != nil {
			return err
		}
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := a.WriteText(f); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %d x %d matrix (%d entries) to %s\n", a.N, a.M, a.NNZ(), *out)
	}
	if *driftSteps > 0 {
		return driftReport(w, a, cfg.Seed, *driftSteps, *driftRate, *driftEdits)
	}
	return nil
}

// driftReport simulates a drifting workload over the generated structure:
// each step edits the nonzero pattern (level-compatible fill drift,
// synthetic.DriftLower) and repairs the inspector output through
// internal/delta, reporting the repair cone and cost against a cold
// rebuild — the per-step view of the amortization the serving path's
// base_fp+edits form exploits.
func driftReport(w io.Writer, a *sparse.CSR, seed int64, steps int, rate float64, edits int) error {
	deps := wavefront.FromLower(a)
	wf, err := wavefront.Compute(deps)
	if err != nil {
		return err
	}
	st := delta.NewState(deps, wf, schedule.Global(wf, 4))
	st.Reverse() // warm, as a resident plan cache entry would be
	rng := rand.New(rand.NewSource(seed + 1))
	cur := a
	fmt.Fprintf(w, "\ndrift simulation: %d steps, rate %.2f, %d row edits/step (4 procs)\n", steps, rate, edits)
	fmt.Fprintf(w, "%5s %7s %7s %6s %6s %12s %12s %s\n",
		"step", "edited", "cone", "moved", "levels", "repair", "rebuild", "outcome")
	var repairs, rebuilds int
	for step := 1; step <= steps; step++ {
		if rng.Float64() >= rate {
			fmt.Fprintf(w, "%5d %7s %7s %6s %6d %12s %12s %s\n",
				step, "-", "-", "-", len(wavefront.Histogram(st.Wf)), "-", "-", "no drift")
			continue
		}
		es := synthetic.DriftLower(rng, cur, st.Wf, edits, 0.3)
		if len(es) == 0 {
			fmt.Fprintf(w, "%5d %7s %7s %6s %6d %12s %12s %s\n",
				step, "0", "-", "-", len(wavefront.Histogram(st.Wf)), "-", "-", "structure admits no drift")
			continue
		}
		edited, err := cur.ApplyRowEdits(es)
		if err != nil {
			return err
		}
		changed, ok := delta.DiffFactor(st.Deps, edited, true, 0)
		if !ok {
			return fmt.Errorf("workgen: drift diff failed")
		}
		t0 := time.Now()
		rebuildDeps := wavefront.FromLower(edited)
		rebuildWf, err := wavefront.Compute(rebuildDeps)
		if err != nil {
			return err
		}
		rebuildSched := schedule.Global(rebuildWf, 4)
		rebuildCost := time.Since(t0)

		bound := delta.RepairBound(edited.N, st.Deps.Edges())
		outcome := "repair"
		t0 = time.Now()
		var next *delta.State
		var stats delta.Stats
		if len(changed) <= bound {
			newDeps := delta.FactorDeps(st.Deps, edited, true, changed)
			next, stats, err = st.Repair(newDeps, changed, delta.Options{MaxCone: bound})
			if err != nil {
				next = nil
			}
		}
		repairCost := time.Since(t0)
		if next == nil {
			outcome = "rebuild (edit or cone over the break-even bound)"
			next = delta.NewState(rebuildDeps, rebuildWf, rebuildSched)
			repairCost = rebuildCost
			rebuilds++
		} else {
			repairs++
			if stats.Reused {
				outcome = "repair (schedule reused)"
			}
		}
		fmt.Fprintf(w, "%5d %7d %7d %6d %6d %12s %12s %s\n",
			step, len(changed), stats.Cone, stats.Moved, len(wavefront.Histogram(next.Wf)),
			repairCost.Round(time.Microsecond), rebuildCost.Round(time.Microsecond), outcome)
		cur, st = edited, next
	}
	fmt.Fprintf(w, "drift summary: %d repaired, %d rebuilt over %d steps\n", repairs, rebuilds, steps)
	return nil
}
