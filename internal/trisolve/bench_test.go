package trisolve

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"doconsider/internal/executor"
	"doconsider/internal/planner"
	"doconsider/internal/problems"
	"doconsider/internal/stencil"
)

func BenchmarkForward(b *testing.B) {
	l := stencil.Laplace2D(150, 150).LowerWithDiag()
	rhs := make([]float64, l.N)
	x := make([]float64, l.N)
	for i := range rhs {
		rhs[i] = 1
	}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := ForwardSeq(l, x, rhs); err != nil {
				b.Fatal(err)
			}
		}
	})
	procs := runtime.GOMAXPROCS(0)
	for _, c := range []struct {
		name  string
		kind  executor.Kind
		sched SchedulerKind
	}{
		{"selfexec-global", executor.SelfExecuting, GlobalSched},
		{"selfexec-local", executor.SelfExecuting, LocalSched},
		{"presched-global", executor.PreScheduled, GlobalSched},
		{"doacross", executor.SelfExecuting, NaturalSched},
	} {
		b.Run(c.name, func(b *testing.B) {
			plan, err := NewPlan(l, true, WithProcs(procs), WithKind(c.kind), WithScheduler(c.sched))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				plan.Solve(x, rhs)
			}
		})
	}
}

func BenchmarkInspector(b *testing.B) {
	l := stencil.Laplace2D(150, 150).LowerWithDiag()
	for i := 0; i < b.N; i++ {
		if _, err := NewPlan(l, true, WithProcs(16)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveBatch is the acceptance experiment for multi-RHS
// batching: one SolveBatch pass over k=8 right-hand sides against 8
// sequential Solve calls on the same pooled plan. The batch reads each
// row's nonzeros once for all RHS and pays one executor dispatch and one
// set of dependence busy-waits instead of 8.
func BenchmarkSolveBatch(b *testing.B) {
	l := stencil.Laplace2D(120, 120).LowerWithDiag()
	n := l.N
	const k = 8
	plan, err := NewPlan(l, true, WithProcs(4), WithKind(executor.Pooled))
	if err != nil {
		b.Fatal(err)
	}
	defer plan.Close()
	xs := make([][]float64, k)
	bs := make([][]float64, k)
	for j := 0; j < k; j++ {
		xs[j] = make([]float64, n)
		bs[j] = make([]float64, n)
		for i := range bs[j] {
			bs[j][i] = float64(i%7) + 1
		}
	}
	plan.Solve(xs[0], bs[0]) // warm up the pool
	b.Run("sequential-8", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := 0; j < k; j++ {
				plan.Solve(xs[j], bs[j])
			}
		}
	})
	b.Run("batch-8", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := plan.SolveBatch(xs, bs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPlanCacheGet measures a warm PlanCache Get (fingerprint + map
// lookup + lease) against cold NewPlan inspector runs. cache-hit-solve is
// a whole warm lease — Get, Bind, a batch-4 Solve and Close on an
// adaptive cache — whose allocs/op ci/bench_baseline.json pins exactly,
// so no O(n) allocation per lease can return.
func BenchmarkPlanCacheGet(b *testing.B) {
	l := stencil.Laplace2D(120, 120).LowerWithDiag()
	b.Run("cold-newplan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := NewPlan(l, true, WithProcs(4)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cache-hit", func(b *testing.B) {
		pc := NewPlanCache(8)
		defer pc.Close()
		sight(b, pc, l, true, WithProcs(4))
		warm, err := pc.Get(l, true, WithProcs(4))
		if err != nil {
			b.Fatal(err)
		}
		defer warm.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p, err := pc.Get(l, true, WithProcs(4))
			if err != nil {
				b.Fatal(err)
			}
			p.Close()
		}
	})
	b.Run("cache-hit-solve", func(b *testing.B) {
		pc := NewPlanCache(8)
		defer pc.Close()
		opts := []Option{WithProcs(2), WithModel(planner.Default())}
		sight(b, pc, l, true, opts...)
		rng := rand.New(rand.NewSource(1))
		xs, bs := randomRHS(rng, l.N, 4), randomRHS(rng, l.N, 4)
		ctx := context.Background()
		lease := func() {
			p, err := pc.Get(l, true, opts...)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := p.Bind().Solve(ctx, xs, bs); err != nil {
				b.Fatal(err)
			}
			p.Close()
		}
		lease() // inspects the structure's second sight
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lease()
		}
	})
}

// BenchmarkNewPlan gates plan-construction cost in CI: the adaptive
// variant adds DAG feature analysis and strategy selection to the
// inspector, and the allocs/op of both variants are pinned against
// ci/bench_baseline.json so planner overhead cannot creep silently.
// The default cost model keeps the adaptive path off the one-shot host
// calibration (which would dominate the first iteration).
func BenchmarkNewPlan(b *testing.B) {
	l := stencil.Laplace2D(63, 63).LowerWithDiag()
	b.Run("pinned", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			plan, err := NewPlan(l, true, WithProcs(4), WithKind(executor.Pooled))
			if err != nil {
				b.Fatal(err)
			}
			plan.Close()
		}
	})
	b.Run("adaptive", func(b *testing.B) {
		b.ReportAllocs()
		m := planner.Default()
		for i := 0; i < b.N; i++ {
			plan, err := NewPlan(l, true, WithProcs(4), WithModel(m))
			if err != nil {
				b.Fatal(err)
			}
			plan.Close()
		}
	})
}

// BenchmarkSupernodal is the acceptance experiment for row fusion: the
// same mesh factor solved under a forced-fused plan (the kernel swept
// over each supernode's rows, on a compressed schedule) and under the
// row-wise plan it replaces. On the sequential executor the two run the
// same arithmetic and differ only in dispatch; on the pooled executor
// level compression also removes barriers. ci/bench_baseline.json gates
// both ns/op and allocs/op of the fused variants.
func BenchmarkSupernodal(b *testing.B) {
	for _, mesh := range []struct {
		name string
		l    int
	}{
		{"mesh60", 60},
		{"mesh150", 150},
	} {
		l := stencil.Laplace2D(mesh.l, mesh.l).LowerWithDiag()
		rhs := make([]float64, l.N)
		x := make([]float64, l.N)
		for i := range rhs {
			rhs[i] = float64(i%7) + 1
		}
		for _, c := range []struct {
			name string
			kind executor.Kind
			fuse FuseMode
			np   int
		}{
			{"rowwise-seq", executor.Sequential, FuseOff, 1},
			{"fused-seq", executor.Sequential, FuseForce, 1},
			{"rowwise-pooled", executor.Pooled, FuseOff, 4},
			{"fused-pooled", executor.Pooled, FuseForce, 4},
		} {
			b.Run(mesh.name+"/"+c.name, func(b *testing.B) {
				plan, err := NewPlan(l, true, WithProcs(c.np), WithKind(c.kind), WithFusion(c.fuse))
				if err != nil {
					b.Fatal(err)
				}
				defer plan.Close()
				plan.Solve(x, rhs) // warm up the pool
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					plan.Solve(x, rhs)
				}
			})
		}
	}
}

// BenchmarkColumnSplit prices the column pass against the scheduled pass
// it replaces, on a batch of four against each suite factor's adaptive
// plan at GOMAXPROCS processors: "rows" is the plan's scheduled pass (on
// a plan pinned to the adaptive plan's kind and fusion), "columns" the
// column pass at the plan's full width and "columns-w1" the column pass
// on the caller alone — the sequential loop over all four columns at
// once. Where "columns" reads slower than "rows", the split does not pay
// on this host.
func BenchmarkColumnSplit(b *testing.B) {
	const k = 4
	procs := runtime.GOMAXPROCS(0)
	ctx := context.Background()
	for _, name := range []string{"SPE2", "SPE5", "5-PT", "9-PT", "7-PT", "L9-PT", "L7-PT", "L5-PT"} {
		l := problems.MustGet(name).L
		plan, err := NewPlan(l, true, WithProcs(procs), WithModel(planner.Default()))
		if err != nil {
			b.Fatal(err)
		}
		fuse := FuseOff
		if plan.Fusion() != nil {
			fuse = FuseForce
		}
		pinned, err := NewPlan(l, true, WithProcs(procs), WithKind(plan.Kind), WithFusion(fuse))
		if err != nil {
			b.Fatal(err)
		}
		s, rows := plan.Bind(), pinned.Bind()
		rng := rand.New(rand.NewSource(1))
		xs, bs := randomRHS(rng, l.N, k), randomRHS(rng, l.N, k)
		for _, c := range []struct {
			name string
			pass func() (executor.Metrics, error)
		}{
			{"rows", func() (executor.Metrics, error) { return rows.Solve(ctx, xs, bs) }},
			{"columns", func() (executor.Metrics, error) { return s.columns(ctx, xs, bs, nil, min(k, procs)) }},
			{"columns-w1", func() (executor.Metrics, error) { return s.columns(ctx, xs, bs, nil, 1) }},
		} {
			b.Run(name+"/"+c.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := c.pass(); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*l.N*k), "ns/row-rhs")
			})
		}
		plan.Close()
		pinned.Close()
	}
}
