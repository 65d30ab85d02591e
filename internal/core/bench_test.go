package core

import (
	"testing"

	"doconsider/internal/executor"
	"doconsider/internal/stencil"
	"doconsider/internal/wavefront"
)

// BenchmarkRunBatch compares k fused recurrence bodies in one scheduled
// pass against k separate Runs on the same pooled runtime.
func BenchmarkRunBatch(b *testing.B) {
	a := stencil.Laplace2D(80, 80)
	deps := wavefront.FromLower(a)
	const k = 8
	rt, err := New(deps, WithProcs(4), WithExecutor(executor.Pooled))
	if err != nil {
		b.Fatal(err)
	}
	bodies := make([]executor.Body, k)
	for j := range bodies {
		bodies[j] = func(int32) {}
	}
	rt.Run(bodies[0]) // warm up the pool
	b.Run("sequential-8", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := 0; j < k; j++ {
				rt.Run(bodies[j])
			}
		}
	})
	b.Run("batch-8", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rt.RunBatch(bodies)
		}
	})
}
