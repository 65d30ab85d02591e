package wavefront

import (
	"testing"

	"doconsider/internal/stencil"
)

func benchDeps() *Deps {
	return FromLower(stencil.Laplace2D(200, 200))
}

func BenchmarkComputeSequential(b *testing.B) {
	d := benchDeps()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compute(d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkComputeDAG(b *testing.B) {
	d := benchDeps()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ComputeDAG(d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFromLower(b *testing.B) {
	a := stencil.Laplace2D(200, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FromLower(a)
	}
}

func BenchmarkReverse(b *testing.B) {
	d := benchDeps()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Reverse()
	}
}
