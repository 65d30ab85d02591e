package trisolve

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"doconsider/internal/executor"
	"doconsider/internal/stencil"
)

// addCounter is a LevelClock that counts Add calls.
type addCounter struct{ n atomic.Int64 }

func (c *addCounter) Add(int32, int64) { c.n.Add(1) }

// TestBatchSolverBitIdentical checks the bound solver against the
// sequential loop over the whole plan grid: a first solve, a second one
// through the same bound body on new right-hand sides, and a timed
// solve, whose wrapper must charge every scheduled index exactly once
// and change no arithmetic.
func TestBatchSolverBitIdentical(t *testing.T) {
	const k = 3
	ctx := context.Background()
	forEachPlan(t, func(t *testing.T, what string, plan *Plan) {
		n := plan.L.N
		rng := rand.New(rand.NewSource(7))
		s := plan.Bind()
		clock := new(addCounter)
		for pass := 0; pass < 3; pass++ {
			xs, bs := randomRHS(rng, n, k), randomRHS(rng, n, k)
			var m executor.Metrics
			var err error
			if pass < 2 {
				m, err = s.Solve(ctx, xs, bs)
			} else {
				m, err = s.SolveTimed(ctx, xs, bs, clock)
			}
			if err != nil {
				t.Fatal(err)
			}
			if m.Executed != int64(n) {
				t.Fatalf("%s pass %d: executed %d rows, want %d", what, pass, m.Executed, n)
			}
			for j := range xs {
				assertBitIdentical(t, xs[j], refSolve(t, plan.L, plan.Lower, bs[j]),
					fmt.Sprintf("%s bound solve pass %d rhs %d", what, pass, j))
			}
		}
		if got, want := clock.n.Load(), int64(plan.Deps.N); got != want {
			t.Fatalf("%s: timed solve charged %d scheduled indices, want %d", what, got, want)
		}
	})
}

func TestBatchSolverShapeErrors(t *testing.T) {
	tri := stencil.Laplace2D(8, 8).LowerWithDiag()
	plan, err := NewPlan(tri, true, WithProcs(2))
	if err != nil {
		t.Fatal(err)
	}
	defer plan.Close()
	s := plan.Bind()
	n := tri.N
	good := make([]float64, n)
	if _, err := s.Solve(context.Background(), [][]float64{good}, nil); err == nil {
		t.Error("mismatched xs/bs lengths accepted")
	}
	if _, err := s.Solve(context.Background(), [][]float64{good}, [][]float64{make([]float64, n-1)}); err == nil {
		t.Error("short right-hand side accepted")
	}
	if m, err := s.Solve(context.Background(), nil, nil); err != nil || m.Executed != 0 {
		t.Errorf("empty batch: metrics=%+v err=%v", m, err)
	}
}

// TestBatchSolverZeroAlloc pins the solver's purpose: a warm pooled
// solve through a bound solver performs zero heap allocations.
func TestBatchSolverZeroAlloc(t *testing.T) {
	tri := stencil.Laplace2D(20, 20).LowerWithDiag()
	plan, err := NewPlan(tri, true, WithProcs(2), WithKind(executor.Pooled))
	if err != nil {
		t.Fatal(err)
	}
	defer plan.Close()
	s := plan.Bind()
	n := tri.N
	xs := [][]float64{make([]float64, n)}
	bs := [][]float64{randRHS(n, 3)}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := s.Solve(ctx, xs, bs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("bound solve = %v allocs/op, want 0", allocs)
	}
}

// TestPlanSolveZeroAlloc pins the bound state behind the plan's own entry
// points: the reciprocal diagonal and the bodies are built by the first
// solve, so every later Solve and SolveBatch allocates nothing.
func TestPlanSolveZeroAlloc(t *testing.T) {
	tri := stencil.Laplace2D(20, 20).LowerWithDiag()
	plan, err := NewPlan(tri, true, WithKind(executor.Sequential))
	if err != nil {
		t.Fatal(err)
	}
	defer plan.Close()
	n := tri.N
	xs := [][]float64{make([]float64, n)}
	bs := [][]float64{randRHS(n, 3)}
	plan.Solve(xs[0], bs[0])
	if allocs := testing.AllocsPerRun(50, func() { plan.Solve(xs[0], bs[0]) }); allocs != 0 {
		t.Errorf("Plan.Solve = %v allocs/op, want 0", allocs)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := plan.SolveBatch(xs, bs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Plan.SolveBatch = %v allocs/op, want 0", allocs)
	}
}
