package schedule

import (
	"testing"

	"doconsider/internal/stencil"
	"doconsider/internal/wavefront"
)

func benchWf(b *testing.B) ([]int32, *wavefront.Deps) {
	b.Helper()
	a := stencil.Laplace2D(150, 150)
	d := wavefront.FromLower(a)
	wf, err := wavefront.Compute(d)
	if err != nil {
		b.Fatal(err)
	}
	return wf, d
}

func BenchmarkGlobal(b *testing.B) {
	wf, _ := benchWf(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Global(wf, 16)
	}
}

func BenchmarkLocalStriped(b *testing.B) {
	wf, _ := benchWf(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Local(wf, 16, Striped)
	}
}

func BenchmarkMergePhases(b *testing.B) {
	wf, d := benchWf(b)
	s := Local(wf, 16, Blocked)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MergePhases(s, d)
	}
}
