package krylov

import (
	"runtime"
	"testing"

	"doconsider/internal/executor"
	"doconsider/internal/stencil"
	"doconsider/internal/trisolve"
	"doconsider/internal/vec"
)

func benchSystem(b *testing.B) ([]float64, *ILUPrec, int) {
	b.Helper()
	a := stencil.SPE4()
	ones := make([]float64, a.N)
	vec.Fill(ones, 1)
	rhs := make([]float64, a.N)
	if err := a.MatVec(rhs, ones); err != nil {
		b.Fatal(err)
	}
	procs := runtime.GOMAXPROCS(0)
	prec, err := NewILUPrec(a, ILUPrecOptions{
		Level: 0, Procs: procs, Kind: executor.SelfExecuting,
		Scheduler: trisolve.GlobalSched,
	})
	if err != nil {
		b.Fatal(err)
	}
	return rhs, prec, procs
}

func BenchmarkPreconditionerApply(b *testing.B) {
	rhs, prec, _ := benchSystem(b)
	z := make([]float64, len(rhs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prec.Apply(z, rhs)
	}
}

func BenchmarkGMRESSolve(b *testing.B) {
	a := stencil.SPE4()
	rhs, prec, procs := benchSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := make([]float64, a.N)
		if _, err := GMRES(a, x, rhs, prec, Options{
			Tol: 1e-8, MaxIter: 200, Restart: 30, Procs: procs,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCGIteration prices one warm ILU(0)-CG iteration at Procs 2 on
// a system of three blocks: two passes of the preconditioner's triangular
// solves and the iteration's matvec, inner-product and SAXPY passes. An
// op is one iteration, run as solves of cgBenchIters iterations from
// x0 = 0; a solve's setup (its vectors and pass state) amortizes below one
// allocation per op, so one allocation per iteration reads 1 allocs/op.
func BenchmarkCGIteration(b *testing.B) {
	const cgBenchIters = 64
	a := stencil.Laplace2D(100, 100)
	rhs := rhsForOnes(a)
	prec, err := NewILUPrec(a, ILUPrecOptions{Procs: 2, Kind: executor.SelfExecuting, Scheduler: trisolve.GlobalSched})
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, a.N)
	solve := func(iters int) {
		vec.Fill(x, 0)
		if _, err := CG(a, x, rhs, prec, Options{Tol: 1e-300, MaxIter: iters, Procs: 2}); err != ErrNoConvergence {
			b.Fatalf("err = %v, want ErrNoConvergence", err)
		}
	}
	solve(1) // warm the plans
	b.ResetTimer()
	for done := 0; done < b.N; done += cgBenchIters {
		solve(min(cgBenchIters, b.N-done))
	}
}

func BenchmarkILUPrecSetup(b *testing.B) {
	a := stencil.SPE4()
	procs := runtime.GOMAXPROCS(0)
	for i := 0; i < b.N; i++ {
		if _, err := NewILUPrec(a, ILUPrecOptions{Level: 0, Procs: procs}); err != nil {
			b.Fatal(err)
		}
	}
}
