package core

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"doconsider/internal/delta"
	"doconsider/internal/executor"
	"doconsider/internal/planner"
	"doconsider/internal/schedule"
	"doconsider/internal/stencil"
	"doconsider/internal/vec"
	"doconsider/internal/wavefront"
)

func TestNewRejectsCycles(t *testing.T) {
	deps := wavefront.FromAdjacency([][]int32{{1}, {0}})
	if _, err := New(deps); err == nil {
		t.Error("New accepted a cyclic dependence structure")
	}
}

func TestNewGeneralDAGForwardEdges(t *testing.T) {
	// Forward edge: iteration 0 depends on 2. Compute would reject it, but
	// the runtime must fall back to Kahn's algorithm and succeed.
	deps := wavefront.FromAdjacency([][]int32{{2}, {}, {1}})
	rt, err := New(deps, WithProcs(2))
	if err != nil {
		t.Fatal(err)
	}
	var count atomic.Int64
	rt.Run(func(i int32) { count.Add(1) })
	if count.Load() != 3 {
		t.Errorf("executed %d, want 3", count.Load())
	}
}

// TestNaturalOrderRejectsForwardDependence: natural-order execution
// busy-waits in index order, so a forward dependence (0 waits on 2, which
// sits later in the same worker's list) used to build fine and then spin
// until the caller's deadline. New and Patch must reject it instead.
func TestNaturalOrderRejectsForwardDependence(t *testing.T) {
	for name, opts := range map[string][]Option{
		"doacross": {WithProcs(2), WithExecutor(executor.DoAcross)},
		"natural":  {WithProcs(2), WithExecutor(executor.SelfExecuting), WithScheduler(NaturalScheduler)},
	} {
		// Runs carry a deadline so a spinning executor fails the test
		// instead of hanging it.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if rt, err := New(wavefront.FromAdjacency([][]int32{{2}, {}, {}, {}}), opts...); err == nil {
			_, rerr := rt.RunCtx(ctx, func(int32) {})
			t.Errorf("%s: New accepted a forward dependence; Run returned %v", name, rerr)
		}
		rt, err := New(wavefront.FromAdjacency(make([][]int32, 4)), opts...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := rt.Patch(delta.EditSet{{Row: 0, Insert: []int32{2}}}); err == nil {
			t.Errorf("%s: Patch accepted a forward dependence", name)
		}
		if m, err := rt.RunCtx(ctx, func(int32) {}); err != nil || m.Executed != 4 {
			t.Errorf("%s: runtime unusable after the rejected patch: executed %d, err %v", name, m.Executed, err)
		}
	}
}

// TestMergedPhasesOverForwardDependence merges the phases of a general
// DAG (0 waits on 2) on one processor. Merged into one phase it would run
// as a natural order, in which index 0 spins on index 2 forever, so the
// runtime keeps the unmerged phases and completes.
func TestMergedPhasesOverForwardDependence(t *testing.T) {
	deps := wavefront.FromAdjacency([][]int32{{2}, {}, {1}})
	for _, kind := range []executor.Kind{executor.SelfExecuting, executor.PreScheduled, executor.Pooled} {
		rt, err := New(deps, WithProcs(1), WithExecutor(kind), WithMergedPhases())
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		var order []int32
		if _, err := rt.RunCtx(ctx, func(i int32) { order = append(order, i) }); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 0 {
			t.Errorf("%v: ran %v, want [1 2 0]", kind, order)
		}
	}
}

func TestRuntimeAccessors(t *testing.T) {
	deps := wavefront.FromAdjacency([][]int32{{}, {0}, {1}})
	rt, err := New(deps, WithProcs(3), WithExecutor(executor.PreScheduled),
		WithScheduler(LocalScheduler), WithPartition(schedule.Blocked))
	if err != nil {
		t.Fatal(err)
	}
	if rt.NumWavefronts() != 3 {
		t.Errorf("wavefronts = %d", rt.NumWavefronts())
	}
	if len(rt.Wavefronts()) != 3 || rt.Schedule() == nil || rt.Deps() != deps {
		t.Error("accessors broken")
	}
	cfg := rt.Config()
	if cfg.Procs != 3 || cfg.Executor != executor.PreScheduled || cfg.Scheduler != LocalScheduler {
		t.Errorf("config = %+v", cfg)
	}
}

func TestSchedulerString(t *testing.T) {
	if GlobalScheduler.String() != "global" || LocalScheduler.String() != "local" ||
		NaturalScheduler.String() != "natural" {
		t.Error("scheduler names wrong")
	}
	if Scheduler(9).String() == "" {
		t.Error("unknown scheduler should format")
	}
}

func TestSimpleLoopMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 600
	ia := make([]int32, n)
	for i := range ia {
		ia[i] = int32(rng.Intn(n))
	}
	b := make([]float64, n)
	x0 := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64() * 0.5
		x0[i] = rng.NormFloat64()
	}
	for _, kind := range []executor.Kind{executor.PreScheduled, executor.SelfExecuting, executor.DoAcross} {
		for _, sched := range []Scheduler{GlobalScheduler, LocalScheduler} {
			loop, err := NewSimpleLoop(ia, WithProcs(6), WithExecutor(kind), WithScheduler(sched))
			if err != nil {
				t.Fatal(err)
			}
			want := append([]float64(nil), x0...)
			loop.RunSequential(want, b)
			got := append([]float64(nil), x0...)
			loop.Run(got, b)
			if d := vec.MaxAbsDiff(got, want); d != 0 {
				t.Errorf("kind=%v sched=%v: diff %v", kind, sched, d)
			}
		}
	}
}

func TestSimpleLoopRepeatedSweeps(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 200
	ia := make([]int32, n)
	for i := range ia {
		ia[i] = int32(rng.Intn(n))
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64() * 0.1
	}
	loop, err := NewSimpleLoop(ia, WithProcs(4))
	if err != nil {
		t.Fatal(err)
	}
	xPar := make([]float64, n)
	xSeq := make([]float64, n)
	for i := range xPar {
		xPar[i] = 1
		xSeq[i] = 1
	}
	for sweep := 0; sweep < 5; sweep++ {
		loop.Run(xPar, b)
		loop.RunSequential(xSeq, b)
	}
	if d := vec.MaxAbsDiff(xPar, xSeq); d != 0 {
		t.Errorf("after 5 sweeps diff %v", d)
	}
}

func TestSimpleLoopRejectsBadIndirection(t *testing.T) {
	if _, err := NewSimpleLoop([]int32{0, 5}); err == nil {
		t.Error("accepted out-of-range ia")
	}
	if _, err := NewSimpleLoop([]int32{-1}); err == nil {
		t.Error("accepted negative ia")
	}
}

func TestSimpleLoopRuntime(t *testing.T) {
	loop, err := NewSimpleLoop([]int32{0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if loop.Runtime() == nil || loop.Runtime().NumWavefronts() != 3 {
		t.Error("runtime accessor broken")
	}
}

func TestRuntimePropertyAllExecuted(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(150)
		adj := make([][]int32, n)
		for i := 1; i < n; i++ {
			for k := 0; k < rng.Intn(3); k++ {
				adj[i] = append(adj[i], int32(rng.Intn(i)))
			}
		}
		deps := wavefront.FromAdjacency(adj)
		kinds := []executor.Kind{executor.Sequential, executor.PreScheduled,
			executor.SelfExecuting, executor.DoAcross}
		rt, err := New(deps,
			WithProcs(1+rng.Intn(6)),
			WithExecutor(kinds[rng.Intn(len(kinds))]),
			WithScheduler([]Scheduler{GlobalScheduler, LocalScheduler}[rng.Intn(2)]))
		if err != nil {
			return false
		}
		var count atomic.Int64
		rt.Run(func(i int32) { count.Add(1) })
		return count.Load() == int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestFusedAdaptiveRuntime: an adaptive runtime fuses by the same rule as
// a triangular solve. Its passes run the body over each supernode's
// iterations, count iterations, match the sequential loop bit for bit,
// and stop with ctx.Err() on a cancelled context.
func TestFusedAdaptiveRuntime(t *testing.T) {
	deps := wavefront.FromLower(stencil.Laplace2D(12, 12))
	n := deps.N
	rt, err := New(deps, WithProcs(1), WithModel(planner.Default()))
	if err != nil {
		t.Fatal(err)
	}
	if d := rt.Decision(); d == nil || !d.Fused || rt.Schedule().N >= n {
		t.Fatalf("mesh runtime decision %v over %d units, want fused", d, rt.Schedule().N)
	}
	body := func(x []float64) executor.Body {
		return func(i int32) {
			s := float64(i)
			for _, d := range deps.On(int(i)) {
				s += 0.5 * x[d]
			}
			x[i] = s
		}
	}
	want := make([]float64, n)
	executor.RunSequential(n, body(want))
	got := make([]float64, n)
	if m := rt.Run(body(got)); m.Executed != int64(n) {
		t.Fatalf("fused Run executed %d, want %d iterations", m.Executed, n)
	}
	if d := vec.MaxAbsDiff(got, want); d != 0 {
		t.Fatalf("fused Run differs from the sequential loop by %v", d)
	}
	if m := rt.RunBatch([]executor.Body{body(got), func(int32) {}}); m.Executed != int64(n) {
		t.Fatalf("fused RunBatch executed %d, want %d iterations", m.Executed, n)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := rt.RunCtx(ctx, body(got)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled fused RunCtx returned %v, want context.Canceled", err)
	}
}
