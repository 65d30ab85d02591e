package trisolve

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"doconsider/internal/executor"
	"doconsider/internal/planner"
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
// solve through a bound solver, and a warm column pass of an adaptive
// plan's batch, perform zero heap allocations.
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

	adaptive := splitPlan(t, true)
	defer adaptive.Close()
	s, n = adaptive.Bind(), adaptive.L.N
	xs, bs = randomRHS(rand.New(rand.NewSource(5)), n, 4), randomRHS(rand.New(rand.NewSource(6)), n, 4)
	if _, err := s.Solve(ctx, xs, bs); err != nil { // warm: the column-pass record
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(50, func() {
		if m, err := s.Solve(ctx, xs, bs); err != nil || m.SpinChecks != 0 {
			t.Fatalf("column pass: %+v, %v", m, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("column pass = %v allocs/op, want 0", allocs)
	}
}

// rendezvous is a LevelClock whose Add, called at the end of every
// column sweep of its pass, waits until the other pass's clock has been
// charged too: the two passes must be inside their sweeps at once. A wait
// that reaches the shared deadline records the miss.
type rendezvous struct {
	once     sync.Once
	here     chan struct{}
	other    *rendezvous
	deadline context.Context
	missed   *atomic.Bool
}

func (r *rendezvous) Add(int32, int64) {
	r.once.Do(func() { close(r.here) })
	select {
	case <-r.other.here:
	case <-r.deadline.Done():
		r.missed.Store(true)
	}
}

// splitPlan is an adaptive plan of the 60² Laplacian's factor that chose
// a parallel kind, so its batches run as column passes.
func splitPlan(t *testing.T, lower bool) *Plan {
	t.Helper()
	tri := scaleValues(stencil.Laplace2D(60, 60).LowerWithDiag(), 1.3)
	if !lower {
		tri = tri.Transpose()
	}
	plan, err := NewPlan(tri, lower, WithProcs(2), WithModel(planner.Default()))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Decision == nil || plan.Kind == executor.Sequential {
		t.Fatalf("adaptive plan chose %v, want a parallel kind", plan.Kind)
	}
	return plan
}

// TestColumnPassesOverlap runs two batches on one bound solver of an
// adaptive plan from two goroutines. Each is a column pass whose timed
// sweeps meet the other pass's before returning, so both passes must be
// in flight at once; passes serialized on the solver time out. Both
// results must be the sequential loop's.
func TestColumnPassesOverlap(t *testing.T) {
	for _, lower := range []bool{true, false} {
		plan := splitPlan(t, lower)
		s := plan.Bind()
		deadline, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		var missed atomic.Bool
		a := &rendezvous{here: make(chan struct{}), deadline: deadline, missed: &missed}
		b := &rendezvous{here: make(chan struct{}), other: a, deadline: deadline, missed: &missed}
		a.other = b
		rng := rand.New(rand.NewSource(9))
		var wg sync.WaitGroup
		for _, clock := range []*rendezvous{a, b} {
			xs, bs := randomRHS(rng, plan.L.N, 3), randomRHS(rng, plan.L.N, 3)
			wg.Add(1)
			go func() {
				defer wg.Done()
				m, err := s.SolveTimed(context.Background(), xs, bs, clock)
				if err != nil || m.SpinChecks != 0 {
					t.Errorf("lower=%v: column pass %+v, %v", lower, m, err)
					return
				}
				for j := range xs {
					assertBitIdentical(t, xs[j], refSolve(t, plan.L, lower, bs[j]), fmt.Sprintf("lower=%v rhs %d", lower, j))
				}
			}()
		}
		wg.Wait()
		cancel()
		if missed.Load() {
			t.Fatalf("lower=%v: the two column passes never ran at once", lower)
		}
		plan.Close()
	}
}

// TestPlanSolveZeroAlloc pins the bound state behind the plan's own entry
// points: the bodies and the single-vector slots are built by the first
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
