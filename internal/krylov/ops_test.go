package krylov

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"doconsider/internal/executor"
	"doconsider/internal/sparse"
	"doconsider/internal/stencil"
	"doconsider/internal/trisolve"
	"doconsider/internal/vec"
)

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func sameBits(x, y []float64) bool {
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return len(x) == len(y)
}

// TestOpsMatchSequentialKernels checks every pass against the sequential
// kernels at every width: on one block (n ≤ blockRows) each pass returns
// vec.Dot's, vec.Axpy's and MatVec's bits, and on several the inner
// product is the block partials summed in block order, whatever the width.
func TestOpsMatchSequentialKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, a := range []*sparse.CSR{stencil.Laplace2D(30, 30), stencil.Laplace2D(100, 100)} {
		n := a.N
		x, y := randVec(rng, n), randVec(rng, n)
		wantDot := 0.0
		for lo := 0; lo < n; lo += blockRows {
			wantDot += vec.Dot(x[lo:min(lo+blockRows, n)], y[lo:min(lo+blockRows, n)])
		}
		if n <= blockRows && wantDot != vec.Dot(x, y) {
			t.Fatalf("n=%d: one block's sum %v is not vec.Dot's %v", n, wantDot, vec.Dot(x, y))
		}
		wantAxpy := append([]float64(nil), y...)
		vec.Axpy(0.3, x, wantAxpy)
		wantMV := make([]float64, n)
		if err := a.MatVec(wantMV, x); err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{1, 2, 3, 4, 16} {
			op, err := newOps(a, procs, x, y)
			if err != nil {
				t.Fatal(err)
			}
			if got := op.dot(x, y); math.Float64bits(got) != math.Float64bits(wantDot) {
				t.Errorf("n=%d procs=%d: dot = %v, want %v", n, procs, got, wantDot)
			}
			got := append([]float64(nil), y...)
			op.axpy(0.3, x, got)
			if !sameBits(got, wantAxpy) {
				t.Errorf("n=%d procs=%d: axpy differs from vec.Axpy", n, procs)
			}
			op.matVec(got, x)
			if !sameBits(got, wantMV) {
				t.Errorf("n=%d procs=%d: matvec differs from MatVec", n, procs)
			}
		}
	}
}

// TestSolveChecksShapes: every method rejects a vector of the wrong order
// and a non-square matrix with sparse.ErrShape, before iterating.
func TestSolveChecksShapes(t *testing.T) {
	a := stencil.Laplace2D(5, 5)
	rect, err := sparse.Assemble(2, 3, []sparse.Triplet{{Row: 0, Col: 0, Val: 1}, {Row: 1, Col: 1, Val: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Method{MethodCG, MethodGMRES, MethodBiCGSTAB} {
		if _, err := m.solve(a, make([]float64, a.N), make([]float64, a.N-1), IdentityPrec{}, Options{}); !errors.Is(err, sparse.ErrShape) {
			t.Errorf("%s short b: err = %v, want ErrShape", methodNames[m], err)
		}
		if _, err := m.solve(a, make([]float64, a.N+1), make([]float64, a.N), IdentityPrec{}, Options{}); !errors.Is(err, sparse.ErrShape) {
			t.Errorf("%s long x: err = %v, want ErrShape", methodNames[m], err)
		}
		if _, err := m.solve(rect, make([]float64, 3), make([]float64, 2), IdentityPrec{}, Options{}); !errors.Is(err, sparse.ErrShape) {
			t.Errorf("%s non-square: err = %v, want ErrShape", methodNames[m], err)
		}
	}
}

// TestCGWarmIterationAllocatesNothing counts a warm CG iteration's
// allocations as the difference between solves of 10 and of 5
// iterations, on a system of two blocks: the passes, the reductions and
// the preconditioner's triangular solves allocate nothing per iteration.
func TestCGWarmIterationAllocatesNothing(t *testing.T) {
	a := stencil.Laplace2D(70, 70)
	b := rhsForOnes(a)
	x := make([]float64, a.N)
	for _, procs := range []int{1, 2} {
		prec, err := NewILUPrec(a, ILUPrecOptions{Procs: procs, Kind: executor.SelfExecuting, Scheduler: trisolve.GlobalSched})
		if err != nil {
			t.Fatal(err)
		}
		allocs := func(iters int) float64 {
			return testing.AllocsPerRun(5, func() {
				vec.Fill(x, 0)
				if _, err := CG(a, x, b, prec, Options{Tol: 1e-300, MaxIter: iters, Procs: procs}); err != ErrNoConvergence {
					t.Fatalf("procs=%d: err = %v, want ErrNoConvergence", procs, err)
				}
			})
		}
		if short, long := allocs(5), allocs(10); long != short {
			t.Errorf("procs=%d: %v allocs for 5 iterations, %v for 10: %v per iteration, want 0", procs, short, long, (long-short)/5)
		}
	}
}

// goroutineProbe is a preconditioner that counts the live goroutines at
// every application, once per iteration.
type goroutineProbe struct {
	Preconditioner
	base, max int
}

func (g *goroutineProbe) Apply(z, r []float64) {
	g.max = max(g.max, executor.Goroutines())
	g.Preconditioner.Apply(z, r)
}

// TestSolveStartsNoGoroutine: a solve at Procs 4 runs on the executor's
// worker set, so the census never rises above its starting count during
// any method's iterations and is back at it afterwards; and the packages
// behind a solve's vector operations contain no go statement, so nothing
// forks between two censuses either.
func TestSolveStartsNoGoroutine(t *testing.T) {
	a := stencil.Laplace2D(70, 70)
	b := rhsForOnes(a)
	prec, err := NewILUPrec(a, ILUPrecOptions{Procs: 4, Kind: executor.SelfExecuting, Scheduler: trisolve.GlobalSched})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Method{MethodCG, MethodGMRES, MethodBiCGSTAB} {
		probe := &goroutineProbe{Preconditioner: prec, base: executor.Goroutines()}
		if _, err := m.solve(a, make([]float64, a.N), b, probe, Options{Procs: 4}); err != nil {
			t.Fatalf("%s: %v", methodNames[m], err)
		}
		if n := executor.Goroutines(); probe.max > probe.base || n != probe.base {
			t.Errorf("%s: %d goroutines before, at most %d during, %d after", methodNames[m], probe.base, probe.max, n)
		}
	}
	fset := token.NewFileSet()
	for _, dir := range []string{".", "../vec", "../sparse"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			file, err := parser.ParseFile(fset, f, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(file, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					t.Errorf("%s: go statement", fset.Position(g.Pos()))
				}
				return true
			})
		}
	}
}
