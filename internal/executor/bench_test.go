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
}

// BenchmarkRepeatedRun is the amortization experiment behind the pass
// state: the same prepared schedule is executed many times (the paper's
// "executed many times during the running of a given program"), comparing
// one-shot runs, which allocate a pass state each, against a held
// Executor, which must report 0 allocs/op. The processor count is fixed
// at 4 (not GOMAXPROCS) so the schedule has lists to share whatever the
// host's width.
func BenchmarkRepeatedRun(b *testing.B) {
	d, wf := benchSetup(b)
	const procs = 4
	work := func(i int32) {}
	s := schedule.Global(wf, procs)
	b.Run("one-shot", func(b *testing.B) {
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
