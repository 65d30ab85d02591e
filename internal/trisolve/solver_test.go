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
// on new right-hand sides, and a timed solve, which must change no
// arithmetic: a scheduled pass charges every scheduled index exactly
// once, a sequential plan's column pass one sweep per participant.
func TestBatchSolverBitIdentical(t *testing.T) {
	const k = 3
	ctx := context.Background()
	forEachPlan(t, func(t *testing.T, what string, plan *Plan) {
		n := plan.L.N
		rng := rand.New(rand.NewSource(7))
		s := plan.Bind()
		clock := new(addCounter)
		want := int64(plan.Deps.N)
		for pass := 0; pass < 3; pass++ {
			xs, bs := randomRHS(rng, n, k), randomRHS(rng, n, k)
			var m executor.Metrics
			var err error
			if pass < 2 {
				m, err = s.Solve(ctx, xs, bs)
			} else if m, err = s.SolveTimed(ctx, xs, bs, clock); plan.Kind == executor.Sequential {
				want = int64(m.P)
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
		if got := clock.n.Load(); got != want {
			t.Fatalf("%s: timed solve charged %d times, want %d", what, got, want)
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
// solve through a bound solver, a warm column pass of an adaptive plan's
// batch, and a warm batch and a warm single vector on a sequential plan
// perform zero heap allocations.
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

	seq, err := NewPlan(tri, true, WithProcs(2), WithKind(executor.Sequential))
	if err != nil {
		t.Fatal(err)
	}
	defer seq.Close()
	rng := rand.New(rand.NewSource(8))
	sxs, sbs := randomRHS(rng, tri.N, 2), randomRHS(rng, tri.N, 2)
	x, b := make([]float64, tri.N), randRHS(tri.N, 4)
	for _, c := range []struct {
		what string
		pass func() (executor.Metrics, error)
	}{
		{"sequential batch", func() (executor.Metrics, error) { return seq.Bind().Solve(ctx, sxs, sbs) }},
		{"sequential single vector", func() (executor.Metrics, error) { return seq.SolveCtx(ctx, x, b) }},
	} {
		if _, err := c.pass(); err != nil { // warm
			t.Fatal(err)
		}
		allocs = testing.AllocsPerRun(50, func() {
			if _, err := c.pass(); err != nil {
				t.Fatalf("%s: %v", c.what, err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s = %v allocs/op, want 0", c.what, allocs)
		}
	}
}

// rendezvous is a LevelClock whose Add — called at the end of every
// column sweep, and after every scheduled index, of its pass — waits
// until the other pass's clock has been charged too: the two passes must
// be inside their bodies at once. A wait that reaches the shared deadline
// records the miss.
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
func splitPlan(t *testing.T, lower bool, opts ...Option) *Plan {
	t.Helper()
	tri := scaleValues(stencil.Laplace2D(60, 60).LowerWithDiag(), 1.3)
	if !lower {
		tri = tri.Transpose()
	}
	plan, err := NewPlan(tri, lower, append([]Option{WithProcs(2), WithModel(planner.Default())}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	if len(opts) == 0 && (plan.Decision == nil || plan.Kind == executor.Sequential) {
		t.Fatalf("adaptive plan chose %v, want a parallel kind", plan.Kind)
	}
	return plan
}

// TestColumnPassesOverlap runs two timed solves on one plan from two
// goroutines, for each pair of routes: column batches, scheduled single
// vectors and batches of a pinned parallel kind, a sequential plan's
// single vectors, and a scheduled single vector beside a column batch.
// Each pass's clock meets the other pass's before returning, so both
// passes must be in flight at once; passes serialized on the plan time
// out. Both results must be the sequential loop's.
func TestColumnPassesOverlap(t *testing.T) {
	for _, c := range []struct {
		name string
		pin  []Option // nil: the adaptive plan
		a, b int      // the two solves' batch sizes
	}{
		{"column batches", nil, 3, 3},
		{"scheduled single vectors", nil, 1, 1},
		{"pinned pooled batches", []Option{WithKind(executor.Pooled)}, 3, 3},
		{"sequential single vectors", []Option{WithKind(executor.Sequential)}, 1, 1},
		{"scheduled beside column", nil, 1, 3},
	} {
		for _, lower := range []bool{true, false} {
			plan := splitPlan(t, lower, c.pin...)
			s := plan.Bind()
			deadline, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			var missed atomic.Bool
			a := &rendezvous{here: make(chan struct{}), deadline: deadline, missed: &missed}
			b := &rendezvous{here: make(chan struct{}), other: a, deadline: deadline, missed: &missed}
			a.other = b
			rng := rand.New(rand.NewSource(9))
			var xs, bs [2][][]float64
			var errs [2]error
			var wg sync.WaitGroup
			for i, clock := range []*rendezvous{a, b} {
				k := []int{c.a, c.b}[i]
				xs[i], bs[i] = randomRHS(rng, plan.L.N, k), randomRHS(rng, plan.L.N, k)
				wg.Add(1)
				go func() {
					defer wg.Done()
					_, errs[i] = s.SolveTimed(context.Background(), xs[i], bs[i], clock)
				}()
			}
			wg.Wait()
			cancel()
			for i := range xs {
				if errs[i] != nil {
					t.Fatalf("%s lower=%v: %v", c.name, lower, errs[i])
				}
				for j := range xs[i] {
					assertBitIdentical(t, xs[i][j], refSolve(t, plan.L, lower, bs[i][j]), fmt.Sprintf("%s lower=%v pass %d rhs %d", c.name, lower, i, j))
				}
			}
			if missed.Load() {
				t.Fatalf("%s lower=%v: the two passes never ran at once", c.name, lower)
			}
			plan.Close()
		}
	}
}

// TestPlanSolveZeroAlloc pins the pass records behind the plan's own
// entry points: a record, its bodies and its single-vector slots are
// built once and reused, so every later Solve and Bind().Solve allocates
// nothing.
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
		if _, err := plan.Bind().Solve(context.Background(), xs, bs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Plan.Bind().Solve = %v allocs/op, want 0", allocs)
	}
}
