package planner_test

import (
	"fmt"
	"os"
	"sort"
	"testing"
	"time"

	"doconsider/internal/executor"
	"doconsider/internal/planner"
	"doconsider/internal/problems"
	"doconsider/internal/trisolve"
)

// TestPlannerCompetitive is the acceptance harness for adaptive
// planning: over the problem suite, the planner's chosen strategy must
// never be more than 5% slower than the previous fixed default (pooled)
// and must be faster on at least 3 problems, with bit-identical
// solutions. It times real solves, so it is opt-in — run with
//
//	DOCONSIDER_PERF=1 go test ./internal/planner -run TestPlannerCompetitive -v
//
// on an otherwise idle machine; CI machines are too noisy to gate on
// wall-clock ratios.
func TestPlannerCompetitive(t *testing.T) {
	if os.Getenv("DOCONSIDER_PERF") == "" {
		t.Skip("wall-clock comparison; set DOCONSIDER_PERF=1 to run")
	}
	const (
		procs     = 4
		reps      = 7  // timed repetitions; the median is compared
		solvesPer = 20 // solves per repetition
		slack     = 1.05
	)
	// A nil model means the canonical constants, so measure the host
	// model explicitly — this harness is about real machine behavior.
	model := planner.Calibrate()
	faster := 0
	for _, name := range problems.Names() {
		p := problems.MustGet(name)
		b := make([]float64, p.L.N)
		for i := range b {
			b[i] = 1 + float64(i%7)
		}

		pooled, err := trisolve.NewPlan(p.L, true, trisolve.WithProcs(procs), trisolve.WithKind(executor.Pooled))
		if err != nil {
			t.Fatal(err)
		}
		adaptive, err := trisolve.NewPlan(p.L, true, trisolve.WithProcs(procs), trisolve.WithModel(model))
		if err != nil {
			t.Fatal(err)
		}

		xPooled := make([]float64, p.L.N)
		xAdaptive := make([]float64, p.L.N)
		tPooled := medianSolve(pooled, xPooled, b, reps, solvesPer)
		tAdaptive := medianSolve(adaptive, xAdaptive, b, reps, solvesPer)
		pooled.Close()
		adaptive.Close()

		for i := range xPooled {
			if xPooled[i] != xAdaptive[i] {
				t.Fatalf("%s: solution differs at %d: %v vs %v", name, i, xPooled[i], xAdaptive[i])
			}
		}
		ratio := tAdaptive.Seconds() / tPooled.Seconds()
		chosen := adaptive.Kind
		t.Logf("%-8s chosen=%-13v pooled=%-10v adaptive=%-10v ratio=%.3f (%s)",
			name, chosen, tPooled, tAdaptive, ratio, decisionNote(adaptive))
		if ratio > slack {
			t.Errorf("%s: planner choice %v is %.1f%% slower than pooled", name, chosen, 100*(ratio-1))
		}
		if ratio < 1/slack {
			faster++
		}
	}
	if faster < 3 {
		t.Errorf("planner faster than pooled on %d problems, want >= 3", faster)
	}
}

func decisionNote(p *trisolve.Plan) string {
	if p.Decision == nil {
		return "pinned"
	}
	return fmt.Sprintf("seq=%.0fµs pool=%.0fµs doacross=%.0fµs",
		p.Decision.PredSequential*1e6, p.Decision.PredPooled*1e6, p.Decision.PredDoAcross*1e6)
}

// medianSolve times reps repetitions of solvesPer solves and returns
// the median per-solve duration.
func medianSolve(p *trisolve.Plan, x, b []float64, reps, solvesPer int) time.Duration {
	times := make([]time.Duration, 0, reps)
	p.Solve(x, b) // warm: pool spawn, caches
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		for s := 0; s < solvesPer; s++ {
			p.Solve(x, b)
		}
		times = append(times, time.Since(t0)/time.Duration(solvesPer))
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[len(times)/2]
}
