package executor_test

// The width grids: a pooled pass runs at whatever width the shared set
// gives it, so every result must be bit-equal to the sequential loop at
// every width from the caller alone (w = 1) to one participant per
// processor. SetMaxWidth pins each width. The grids live here, beside the
// seam, and drive the executor through its two callers, trisolve and
// core.

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"doconsider/internal/core"
	"doconsider/internal/executor"
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

// TestWidthGridTrisolve runs every pooled solve entry point — Solve,
// SolveBatch, SolveGroupCtx and SolveTimed — on SPE2, 5-PT and 9-PT,
// lower and upper, fused and row-wise, at every width 1..4 of a
// four-processor plan, against ForwardSeq/BackwardSeq.
func TestWidthGridTrisolve(t *testing.T) {
	for _, name := range []string{"SPE2", "5-PT", "9-PT"} {
		for _, lower := range []bool{true, false} {
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
			// A group member with the plan's structure and its own values.
			other := l.Clone()
			for k := range other.Val {
				other.Val[k] *= 1.5
			}
			wantOther := oracle(t, other, lower, bs[0])
			for _, fuse := range []trisolve.FuseMode{trisolve.FuseForce, trisolve.FuseOff} {
				plan, err := trisolve.NewPlan(l, lower, trisolve.WithProcs(gridProcs),
					trisolve.WithKind(executor.Pooled), trisolve.WithFusion(fuse))
				if err != nil {
					t.Fatal(err)
				}
				if (plan.Fusion() != nil) != (fuse == trisolve.FuseForce) {
					t.Fatalf("%s lower=%v fuse=%v: plan fused = %v", name, lower, fuse, plan.Fusion() != nil)
				}
				for w := 1; w <= gridProcs; w++ {
					executor.SetMaxWidth(t, w)
					what := fmt.Sprintf("%s lower=%v fuse=%v w=%d", name, lower, fuse, w)
					ctx := context.Background()

					x := make([]float64, l.N)
					checkWidth(t, what+" Solve", plan.Solve(x, bs[0]), w)
					bitEqual(t, what+" Solve", x, want[0])

					xs := rhs(rng, l.N, len(bs))
					m, err := plan.SolveBatch(xs, bs)
					if err != nil {
						t.Fatal(err)
					}
					checkWidth(t, what+" SolveBatch", m, w)
					for j := range xs {
						bitEqual(t, what+" SolveBatch", xs[j], want[j])
					}

					group := []trisolve.BatchProblem{
						{L: l, Xs: rhs(rng, l.N, 1), Bs: bs[:1]},
						{L: other, Xs: rhs(rng, l.N, 1), Bs: bs[:1]},
					}
					if m, err = plan.SolveGroupCtx(ctx, group); err != nil {
						t.Fatal(err)
					}
					checkWidth(t, what+" SolveGroupCtx", m, w)
					bitEqual(t, what+" SolveGroupCtx", group[0].Xs[0], want[0])
					bitEqual(t, what+" SolveGroupCtx member", group[1].Xs[0], wantOther)

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
	}
}

// TestWidthGridCore runs pooled runtimes over the local and merged-phase
// schedules of the paper's simple loop at every width:
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
	for name, opt := range map[string]core.Option{
		"local":         core.WithScheduler(core.LocalScheduler),
		"merged-phases": core.WithMergedPhases(),
	} {
		loop, err := core.NewSimpleLoop(ia, core.WithProcs(gridProcs), core.WithExecutor(executor.Pooled), opt)
		if err != nil {
			t.Fatal(err)
		}
		want := append([]float64(nil), x0...)
		loop.RunSequential(want, b)
		for w := 1; w <= gridProcs; w++ {
			executor.SetMaxWidth(t, w)
			x := append([]float64(nil), x0...)
			m := loop.Run(x, b)
			what := fmt.Sprintf("%s w=%d", name, w)
			if m.Executed != n {
				t.Fatalf("%s: executed %d of %d", what, m.Executed, n)
			}
			checkWidth(t, what, m, w)
			bitEqual(t, what, x, want)
		}
	}
}

// TestPooledNaturalOrderCompletes runs a pooled runtime over the natural
// schedule — one phase whose striped lists wait on each other (index 2 on
// index 1) — at width 1, where sharing the lists phase by phase on the
// caller alone would spin forever. It must complete, bit-equal to the
// sequential loop.
func TestPooledNaturalOrderCompletes(t *testing.T) {
	executor.SetMaxWidth(t, 1)
	const n = 200
	adj := make([][]int32, n)
	for i := 1; i < n; i++ {
		adj[i] = []int32{int32(i - 1)}
		if i > 3 {
			adj[i] = append(adj[i], int32(i-3))
		}
	}
	deps := wavefront.FromAdjacency(adj)
	rt, err := core.New(deps, core.WithProcs(gridProcs), core.WithExecutor(executor.Pooled),
		core.WithScheduler(core.NaturalScheduler))
	if err != nil {
		t.Fatal(err)
	}
	body := func(x []float64) executor.Body {
		return func(i int32) {
			x[i] = float64(i)
			for _, d := range deps.On(int(i)) {
				x[i] += 0.5 * x[d]
			}
		}
	}
	want := make([]float64, n)
	executor.RunSequential(n, body(want))
	x := make([]float64, n)
	done := make(chan executor.Metrics, 1)
	go func() { done <- rt.Run(body(x)) }()
	select {
	case m := <-done:
		if m.Executed != n {
			t.Fatalf("executed %d of %d", m.Executed, n)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("pooled natural-order run deadlocked")
	}
	bitEqual(t, "natural order", x, want)
}
