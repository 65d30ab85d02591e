package executor

import (
	"context"
	"runtime"
	"testing"

	"doconsider/internal/schedule"
	"doconsider/internal/stencil"
	"doconsider/internal/wavefront"
)

func benchSetup(b *testing.B) (*wavefront.Deps, []int32) {
	b.Helper()
	a := stencil.Laplace2D(120, 120)
	d := wavefront.FromLower(a)
	wf, err := wavefront.Compute(d)
	if err != nil {
		b.Fatal(err)
	}
	return d, wf
}

func BenchmarkExecutors(b *testing.B) {
	d, wf := benchSetup(b)
	procs := runtime.GOMAXPROCS(0)
	work := func(i int32) {} // pure synchronization cost
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			RunSequential(d.N, work)
		}
	})
	b.Run("prescheduled", func(b *testing.B) {
		s := schedule.Global(wf, procs)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			Run(PreScheduled, s, nil, work)
		}
	})
	b.Run("selfexecuting", func(b *testing.B) {
		s := schedule.Global(wf, procs)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			Run(SelfExecuting, s, d, work)
		}
	})
	b.Run("doacross", func(b *testing.B) {
		s := schedule.Natural(d.N, procs, schedule.Striped)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			Run(DoAcross, s, d, work)
		}
	})
	b.Run("selfscheduled-chunk16", func(b *testing.B) {
		order := SortedOrder(wf)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			RunSelfScheduled(order, d, procs, 16, work)
		}
	})
	b.Run("guided", func(b *testing.B) {
		order := SortedOrder(wf)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			RunGuidedSelfScheduled(order, d, procs, 4, work)
		}
	})
	b.Run("onthefly", func(b *testing.B) {
		depsOf := func(i int32) []int32 { return d.On(int(i)) }
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			RunOnTheFly(d.N, procs, depsOf, work)
		}
	})
}

// BenchmarkRepeatedRun is the amortization experiment behind the pooled
// executor: the same prepared schedule is executed many times (the
// paper's "executed many times during the running of a given program"),
// comparing spawn-per-run self-execution against the shared worker set.
// The pooled variant must report 0 allocs/op. The processor count is
// fixed at 4 (not GOMAXPROCS) so the parallel paths are exercised even on
// single-CPU hosts, where GOMAXPROCS(0) == 1 would collapse both sides to
// the sequential fast path.
func BenchmarkRepeatedRun(b *testing.B) {
	d, wf := benchSetup(b)
	const procs = 4
	work := func(i int32) {}
	s := schedule.Global(wf, procs)
	b.Run("spawn-per-run", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Run(SelfExecuting, s, d, work)
		}
	})
	b.Run("pooled", func(b *testing.B) {
		e := New(Pooled)
		ctx := context.Background()
		if _, err := e.Run(ctx, s, d, work); err != nil { // warm-up
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.Run(ctx, s, d, work); err != nil {
				b.Fatal(err)
			}
		}
	})
}
