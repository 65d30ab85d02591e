package planner_test

import (
	"math"
	"math/rand"
	"testing"

	"doconsider/internal/core"
	"doconsider/internal/executor"
	"doconsider/internal/planner"
	"doconsider/internal/wavefront"
)

// FuzzSelect is the planner robustness-and-correctness property over
// random backward dependence structures (the paper's Figure-2
// indirection loops): Analyze must produce sane features, Select must
// return a registered candidate with finite positive predictions, and an
// adaptive core.Runtime executing the loop must be bit-identical to the
// plain sequential sweep regardless of which strategy was chosen.
//
// The seeds below are the checked-in deterministic corpus; the CI fuzz
// smoke job explores beyond them.
func FuzzSelect(f *testing.F) {
	f.Add(int64(1), uint16(1), uint8(1))
	f.Add(int64(7), uint16(100), uint8(4))
	f.Add(int64(42), uint16(500), uint8(2))
	f.Add(int64(1989), uint16(64), uint8(8))
	f.Add(int64(-5), uint16(257), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, n16 uint16, procs uint8) {
		n := int(n16)%512 + 1
		np := int(procs)%8 + 1
		rng := rand.New(rand.NewSource(seed))

		// Random backward indirection: ia[i] < i orders iteration i after
		// ia[i]; ia[i] >= i imposes no ordering (old-value semantics).
		ia := make([]int32, n)
		for i := range ia {
			ia[i] = int32(rng.Intn(n))
		}
		deps := wavefront.FromIndirection(ia)
		wf, err := wavefront.Compute(deps)
		if err != nil {
			t.Fatalf("Compute: %v", err)
		}

		feats := planner.Analyze(deps, wf, np)
		if feats.N != n || feats.Levels < 1 || feats.Levels > n {
			t.Fatalf("implausible features: %+v", feats)
		}
		lower := (n + np - 1) / np
		if feats.Levels > lower {
			lower = feats.Levels
		}
		if feats.LevelSum < lower || feats.NatSteps < lower {
			t.Fatalf("step counts below lower bound %d: %+v", lower, feats)
		}
		if !feats.Backward {
			t.Fatalf("FromIndirection produced non-backward deps: %+v", feats)
		}

		d := planner.Select(feats, planner.Default())
		switch d.Strategy {
		case executor.Sequential, executor.Pooled, executor.DoAcross:
		default:
			t.Fatalf("selected non-candidate strategy %v", d.Strategy)
		}
		for _, pred := range []float64{d.PredSequential, d.PredPooled, d.PredDoAcross} {
			if !(pred > 0) || math.IsInf(pred, 0) || math.IsNaN(pred) {
				t.Fatalf("non-finite prediction in %v", d)
			}
		}
		if np == 1 && d.Strategy != executor.Sequential {
			t.Fatalf("parallel strategy %v chosen for one processor", d.Strategy)
		}

		// Execute the simple loop x(i) += b(i)*x(ia(i)) under the chosen
		// strategy and against the sequential sweep. The loop body uses
		// old-value semantics for forward references, which is exactly
		// what core.SimpleLoop implements.
		b := make([]float64, n)
		x0 := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
			x0[i] = rng.NormFloat64()
		}
		loop, err := core.NewSimpleLoop(ia,
			core.WithProcs(np), core.WithModel(planner.Default()))
		if err != nil {
			t.Fatalf("NewSimpleLoop: %v", err)
		}
		if loop.Runtime().Decision() == nil {
			t.Fatal("adaptive runtime carries no decision")
		}
		got := append([]float64(nil), x0...)
		loop.Run(got, b)

		want := append([]float64(nil), x0...)
		loop.RunSequential(want, b)

		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("strategy %v: x[%d] = %v, want %v", d.Strategy, i, got[i], want[i])
			}
		}
	})
}
