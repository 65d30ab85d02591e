package executor_test

// The width grids: a pass runs at whatever width the shared set gives
// it, so every result must be bit-equal to the sequential loop at every
// width from the caller alone (w = 1) to one participant per processor,
// under each discipline — flags, barrier and claim. SetMaxWidth pins each
// width. The grids live here, beside the seam, and drive the executor
// through its two callers, trisolve and core, and directly.

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"doconsider/internal/core"
	"doconsider/internal/executor"
	"doconsider/internal/planner"
	"doconsider/internal/problems"
	"doconsider/internal/sparse"
	"doconsider/internal/trisolve"
	"doconsider/internal/wavefront"
)

const gridProcs = 4

// levelClock is a LevelClock that only sums what it is charged.
type levelClock struct {
	mu sync.Mutex
	ns int64
}

func (c *levelClock) Add(_ int32, ns int64) {
	c.mu.Lock()
	c.ns += ns
	c.mu.Unlock()
}

// oracle is the sequential solve every route must reproduce.
func oracle(t *testing.T, l *sparse.CSR, lower bool, b []float64) []float64 {
	t.Helper()
	x := make([]float64, l.N)
	solve := trisolve.ForwardSeq
	if !lower {
		solve = trisolve.BackwardSeq
	}
	if err := solve(l, x, b); err != nil {
		t.Fatal(err)
	}
	return x
}

func rhs(rng *rand.Rand, n, k int) [][]float64 {
	out := make([][]float64, k)
	for j := range out {
		out[j] = make([]float64, n)
		for i := range out[j] {
			out[j][i] = rng.NormFloat64()
		}
	}
	return out
}

func bitEqual(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: x[%d] = %x, want %x", what, i, got[i], want[i])
		}
	}
}

// checkWidth fails the test if a pass ran wider than the cap w.
func checkWidth(t *testing.T, what string, m executor.Metrics, w int) {
	t.Helper()
	if m.P < 1 || m.P > w {
		t.Fatalf("%s: pass width %d, want 1..%d", what, m.P, w)
	}
}

// TestWidthGridTrisolve runs every solve entry point — Solve,
// Bind().Solve and SolveTimed — on SPE2, 5-PT and 9-PT,
// lower and upper, fused and row-wise, under one kind per discipline
// (pooled: flags, pre-scheduled: barrier, doacross: claim), at every
// width 1..4 of a four-processor plan, against ForwardSeq/BackwardSeq;
// and the column passes of adaptive plans over batches of 1..8.
func TestWidthGridTrisolve(t *testing.T) {
	for _, name := range []string{"SPE2", "5-PT", "9-PT"} {
		for _, lower := range []bool{true, false} {
			for _, kind := range []executor.Kind{executor.Pooled, executor.PreScheduled, executor.DoAcross} {
				widthGridTrisolve(t, name, kind, lower)
			}
			widthGridColumns(t, name, lower)
		}
	}
}

// widthGridColumns drives the column passes at every width 1..4 of a
// four-processor plan, fused and row-wise. Batches of B = 1..8 go through
// BatchSolver.Solve and SolveTimed on an adaptive plan: two or more run
// as a column pass, a single vector as the plan's scheduled pass. A
// pinned Sequential plan and a PlanCache first sight run every batch as
// a column pass on the caller alone. A column pass makes no ready checks and runs on at
// most min(columns, w) participants; every column must be bit-equal to
// ForwardSeq/BackwardSeq.
func widthGridColumns(t *testing.T, name string, lower bool) {
	const maxB = 8
	l := problems.MustGet(name).L
	if !lower {
		l = l.Transpose()
	}
	rng := rand.New(rand.NewSource(int64(l.N) + 1))
	bs := rhs(rng, l.N, maxB)
	want := make([][]float64, len(bs))
	for j := range bs {
		want[j] = oracle(t, l, lower, bs[j])
	}
	// columnPass checks a column pass's metrics against the cap.
	columnPass := func(what string, m executor.Metrics, cap int) {
		t.Helper()
		checkWidth(t, what, m, cap)
		if m.SpinChecks != 0 || m.Executed != int64(l.N) {
			t.Fatalf("%s: column pass made %d ready checks, executed %d of %d", what, m.SpinChecks, m.Executed, l.N)
		}
	}
	// batches solves B = 1..maxB right-hand sides on plan at width w,
	// untimed and timed; col reports whether batch B runs as a column
	// pass, and cap bounds its width.
	batches := func(what string, plan *trisolve.Plan, w int, col func(b int) bool, cap func(b int) int) {
		t.Helper()
		s := plan.Bind()
		for b := 1; b <= maxB; b++ {
			for _, timed := range []bool{false, true} {
				what := fmt.Sprintf("%s B=%d timed=%v", what, b, timed)
				var clock levelClock
				xs := rhs(rng, l.N, b)
				var m executor.Metrics
				var err error
				if timed {
					m, err = s.SolveTimed(context.Background(), xs, bs[:b], &clock)
				} else {
					m, err = s.Solve(context.Background(), xs, bs[:b])
				}
				if err != nil {
					t.Fatal(err)
				}
				if col(b) {
					columnPass(what, m, cap(b))
				} else if checkWidth(t, what, m, cap(b)); m.SpinChecks == 0 || m.Executed != int64(l.N) {
					t.Fatalf("%s: scheduled pass made %d ready checks, executed %d of %d", what, m.SpinChecks, m.Executed, l.N)
				}
				for j := range xs {
					bitEqual(t, what, xs[j], want[j])
				}
				if timed && clock.ns <= 0 {
					t.Fatalf("%s: no level time charged", what)
				}
			}
		}
	}
	for _, fuse := range []trisolve.FuseMode{trisolve.FuseForce, trisolve.FuseOff} {
		plan, err := trisolve.NewPlan(l, lower, trisolve.WithProcs(gridProcs),
			trisolve.WithFusion(fuse), trisolve.WithModel(planner.Default()))
		if err != nil {
			t.Fatal(err)
		}
		if plan.Decision == nil || plan.Kind == executor.Sequential {
			t.Fatalf("%s lower=%v fuse=%v: adaptive plan chose %v, want a parallel kind", name, lower, fuse, plan.Kind)
		}
		for w := 1; w <= gridProcs; w++ {
			executor.SetMaxWidth(t, w)
			what := fmt.Sprintf("%s lower=%v fuse=%v w=%d", name, lower, fuse, w)
			batches(what, plan, w, func(b int) bool { return b >= 2 }, func(b int) int {
				if b == 1 {
					return w
				}
				return min(w, b)
			})
		}
		plan.Close()
	}
	seq, err := trisolve.NewPlan(l, lower, trisolve.WithProcs(gridProcs), trisolve.WithKind(executor.Sequential))
	if err != nil {
		t.Fatal(err)
	}
	pc := trisolve.NewPlanCache(4)
	first, err := pc.Get(l, lower, trisolve.WithProcs(gridProcs))
	if err != nil {
		t.Fatal(err)
	}
	if first.Deps != nil {
		t.Fatalf("%s lower=%v: a structure's first sight was inspected", name, lower)
	}
	for w := 1; w <= gridProcs; w++ {
		executor.SetMaxWidth(t, w)
		for plan, kind := range map[*trisolve.Plan]string{seq: "sequential", first: "first sight"} {
			what := fmt.Sprintf("%s lower=%v %s w=%d", name, lower, kind, w)
			batches(what, plan, w, func(int) bool { return true }, func(int) int { return 1 })
		}
	}
	seq.Close()
	first.Close()
	if err := pc.Close(); err != nil {
		t.Fatal(err)
	}
}

func widthGridTrisolve(t *testing.T, name string, kind executor.Kind, lower bool) {
	l := problems.MustGet(name).L
	if !lower {
		l = l.Transpose()
	}
	rng := rand.New(rand.NewSource(int64(l.N)))
	bs := rhs(rng, l.N, 3)
	want := make([][]float64, len(bs))
	for j := range bs {
		want[j] = oracle(t, l, lower, bs[j])
	}
	for _, fuse := range []trisolve.FuseMode{trisolve.FuseForce, trisolve.FuseOff} {
		plan, err := trisolve.NewPlan(l, lower, trisolve.WithProcs(gridProcs),
			trisolve.WithKind(kind), trisolve.WithFusion(fuse))
		if err != nil {
			t.Fatal(err)
		}
		if (plan.Fusion() != nil) != (fuse == trisolve.FuseForce) {
			t.Fatalf("%s lower=%v fuse=%v: plan fused = %v", name, lower, fuse, plan.Fusion() != nil)
		}
		for w := 1; w <= gridProcs; w++ {
			executor.SetMaxWidth(t, w)
			what := fmt.Sprintf("%s %v lower=%v fuse=%v w=%d", name, kind, lower, fuse, w)
			ctx := context.Background()

			x := make([]float64, l.N)
			checkWidth(t, what+" Solve", plan.Solve(x, bs[0]), w)
			bitEqual(t, what+" Solve", x, want[0])

			xs := rhs(rng, l.N, len(bs))
			m, err := plan.Bind().Solve(context.Background(), xs, bs)
			if err != nil {
				t.Fatal(err)
			}
			checkWidth(t, what+" Bind().Solve", m, w)
			for j := range xs {
				bitEqual(t, what+" Bind().Solve", xs[j], want[j])
			}

			var clock levelClock
			xs = rhs(rng, l.N, len(bs))
			if m, err = plan.Bind().SolveTimed(ctx, xs, bs, &clock); err != nil {
				t.Fatal(err)
			}
			checkWidth(t, what+" SolveTimed", m, w)
			for j := range xs {
				bitEqual(t, what+" SolveTimed", xs[j], want[j])
			}
			if clock.ns <= 0 {
				t.Fatalf("%s SolveTimed: no level time charged", what)
			}
		}
		plan.Close()
	}
}

// TestWidthGridCore runs runtimes of one kind per discipline over the
// local and merged-phase schedules of the paper's simple loop at every
// width — pooled (flags), pre-scheduled (barrier) and doacross (claim):
// every iteration executes, and the result is the sequential loop's.
func TestWidthGridCore(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const n = 600
	ia := make([]int32, n)
	b := make([]float64, n)
	for i := range ia {
		ia[i] = int32(rng.Intn(n))
		b[i] = rng.NormFloat64()
	}
	x0 := make([]float64, n)
	for i := range x0 {
		x0[i] = rng.NormFloat64()
	}
	for _, kind := range []executor.Kind{executor.Pooled, executor.PreScheduled, executor.DoAcross} {
		for name, opt := range map[string]core.Option{
			"local":         core.WithScheduler(core.LocalScheduler),
			"merged-phases": core.WithMergedPhases(),
		} {
			loop, err := core.NewSimpleLoop(ia, core.WithProcs(gridProcs), core.WithExecutor(kind), opt)
			if err != nil {
				t.Fatal(err)
			}
			want := append([]float64(nil), x0...)
			loop.RunSequential(want, b)
			for w := 1; w <= gridProcs; w++ {
				executor.SetMaxWidth(t, w)
				x := append([]float64(nil), x0...)
				m := loop.Run(x, b)
				what := fmt.Sprintf("%v %s w=%d", kind, name, w)
				if m.Executed != n {
					t.Fatalf("%s: executed %d of %d", what, m.Executed, n)
				}
				checkWidth(t, what, m, w)
				bitEqual(t, what, x, want)
			}
		}
	}
}

// TestWidthGridSelfScheduled claims the wavefront-sorted list of a
// random loop in chunks of 1, 4 and 16 at every width.
func TestWidthGridSelfScheduled(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 500
	adj := make([][]int32, n)
	for i := 1; i < n; i++ {
		for d := rng.Intn(4); d > 0; d-- {
			adj[i] = append(adj[i], int32(rng.Intn(i)))
		}
	}
	deps := wavefront.FromAdjacency(adj)
	wf, err := wavefront.Compute(deps)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, n)
	executor.RunSequential(n, accumulate(deps, want))
	order := executor.SortedOrder(wf)
	for _, chunk := range []int{1, 4, 16} {
		for w := 1; w <= gridProcs; w++ {
			executor.SetMaxWidth(t, w)
			x := make([]float64, n)
			m := executor.RunSelfScheduled(order, deps, gridProcs, chunk, accumulate(deps, x))
			what := fmt.Sprintf("chunk=%d w=%d", chunk, w)
			if m.Executed != n {
				t.Fatalf("%s: executed %d of %d", what, m.Executed, n)
			}
			checkWidth(t, what, m, w)
			bitEqual(t, what, x, want)
		}
	}
}

// accumulate is a loop body whose every value depends on its
// dependences' values: x[i] = i + 0.5 * sum x[d].
func accumulate(deps *wavefront.Deps, x []float64) executor.Body {
	return func(i int32) {
		x[i] = float64(i)
		for _, d := range deps.On(int(i)) {
			x[i] += 0.5 * x[d]
		}
	}
}

// TestPooledNaturalOrderCompletes runs the two flags kinds over the
// natural schedule — one phase whose striped lists wait on each other
// (index 2 on index 1) — at every width, including the caller alone,
// where sharing the lists phase by phase would spin forever. Every pass
// must complete, bit-equal to the sequential loop.
func TestPooledNaturalOrderCompletes(t *testing.T) {
	const n = 200
	adj := make([][]int32, n)
	for i := 1; i < n; i++ {
		adj[i] = []int32{int32(i - 1)}
		if i > 3 {
			adj[i] = append(adj[i], int32(i-3))
		}
	}
	deps := wavefront.FromAdjacency(adj)
	want := make([]float64, n)
	executor.RunSequential(n, accumulate(deps, want))
	for _, kind := range []executor.Kind{executor.Pooled, executor.SelfExecuting} {
		rt, err := core.New(deps, core.WithProcs(gridProcs), core.WithExecutor(kind),
			core.WithScheduler(core.NaturalScheduler))
		if err != nil {
			t.Fatal(err)
		}
		for w := 1; w <= gridProcs; w++ {
			executor.SetMaxWidth(t, w)
			what := fmt.Sprintf("%v w=%d", kind, w)
			x := make([]float64, n)
			done := make(chan executor.Metrics, 1)
			go func() { done <- rt.Run(accumulate(deps, x)) }()
			select {
			case m := <-done:
				if m.Executed != n {
					t.Fatalf("%s: executed %d of %d", what, m.Executed, n)
				}
				checkWidth(t, what, m, w)
			case <-time.After(10 * time.Second):
				t.Fatalf("%s: natural-order run deadlocked", what)
			}
			bitEqual(t, what, x, want)
		}
	}
}
