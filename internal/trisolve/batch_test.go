package trisolve

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"doconsider/internal/executor"
	"doconsider/internal/sparse"
	"doconsider/internal/stencil"
)

func randRHS(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return b
}

// forEachPlan runs f over the full plan grid — {lower, upper} ×
// {row-wise, forced-fused} × every registered executor kind — on a mesh
// factor scaled off the powers of two, so that dividing by the diagonal
// and multiplying by its reciprocal round differently: every solve shape
// under test must match ForwardSeq/BackwardSeq bit for bit on it.
func forEachPlan(t *testing.T, f func(t *testing.T, what string, plan *Plan)) {
	t.Helper()
	for _, lower := range []bool{true, false} {
		tri := scaleValues(stencil.Laplace2D(25, 25).LowerWithDiag(), 1.3)
		if !lower {
			tri = tri.Transpose()
		}
		for _, fuse := range []FuseMode{FuseOff, FuseForce} {
			for _, kind := range fusedKindsUnderTest {
				plan, err := NewPlan(tri, lower, WithProcs(4), WithKind(kind), WithFusion(fuse))
				if err != nil {
					t.Fatal(err)
				}
				what := fmt.Sprintf("lower=%v fused=%v kind=%v", lower, fuse == FuseForce, kind)
				if (plan.Fusion() != nil) != (fuse == FuseForce) {
					t.Fatalf("%s: plan fusion = %v", what, plan.Fusion())
				}
				f(t, what, plan)
				plan.Close()
			}
		}
	}
}

// TestSolveBatchK1BitIdentical is the acceptance test: Solve, a batch of
// one right-hand side and a batch of four must each produce bit-for-bit
// the sequential loop's result.
func TestSolveBatchK1BitIdentical(t *testing.T) {
	forEachPlan(t, func(t *testing.T, what string, plan *Plan) {
		n := plan.L.N
		rng := rand.New(rand.NewSource(11))
		bs := randomRHS(rng, n, 4)
		want := make([][]float64, len(bs))
		for j := range bs {
			want[j] = refSolve(t, plan.L, plan.Lower, bs[j])
		}
		x := make([]float64, n)
		plan.Solve(x, bs[0])
		assertBitIdentical(t, x, want[0], what+" Solve")
		for _, k := range []int{1, 4} {
			xs := randomRHS(rng, n, k) // scratch, overwritten
			m, err := plan.Bind().Solve(context.Background(), xs, bs[:k])
			if err != nil {
				t.Fatal(err)
			}
			if m.Executed != int64(n) {
				t.Fatalf("%s: batch of %d executed %d rows, want %d (one pass for all RHS)", what, k, m.Executed, n)
			}
			for j := range xs {
				assertBitIdentical(t, xs[j], want[j], fmt.Sprintf("%s Bind().Solve(k=%d) rhs %d", what, k, j))
			}
		}
	})
}

// TestSolveBatchMatchesSequentialSolves checks a k=5 batch against five
// independent sequential reference solves, forward and backward.
func TestSolveBatchMatchesSequentialSolves(t *testing.T) {
	const k = 5
	for _, lower := range []bool{true, false} {
		tri := stencil.Laplace2D(30, 30).LowerWithDiag()
		if !lower {
			tri = tri.Transpose()
		}
		n := tri.N
		plan, err := NewPlan(tri, lower, WithProcs(4), WithKind(executor.Pooled))
		if err != nil {
			t.Fatal(err)
		}
		xs := make([][]float64, k)
		bs := make([][]float64, k)
		want := make([][]float64, k)
		for j := 0; j < k; j++ {
			bs[j] = randRHS(n, int64(100+j))
			xs[j] = make([]float64, n)
			want[j] = make([]float64, n)
			if lower {
				err = ForwardSeq(tri, want[j], bs[j])
			} else {
				err = BackwardSeq(tri, want[j], bs[j])
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		m, err := plan.Bind().Solve(context.Background(), xs, bs)
		if err != nil {
			t.Fatal(err)
		}
		if m.Executed != int64(n) {
			t.Fatalf("lower=%v: batch executed %d indices, want %d (one pass for all RHS)", lower, m.Executed, n)
		}
		for j := 0; j < k; j++ {
			for i := 0; i < n; i++ {
				if xs[j][i] != want[j][i] {
					t.Fatalf("lower=%v rhs %d index %d: got %v want %v", lower, j, i, xs[j][i], want[j][i])
				}
			}
		}
		plan.Close()
	}
}

func TestSolveBatchShapeErrors(t *testing.T) {
	tri := stencil.Laplace2D(10, 10).LowerWithDiag()
	plan, err := NewPlan(tri, true, WithProcs(2))
	if err != nil {
		t.Fatal(err)
	}
	defer plan.Close()
	n := tri.N
	good := make([]float64, n)
	if _, err := plan.Bind().Solve(context.Background(), [][]float64{good}, nil); err == nil {
		t.Fatal("mismatched batch lengths accepted")
	}
	if _, err := plan.Bind().Solve(context.Background(), [][]float64{make([]float64, n-1)}, [][]float64{good}); err == nil {
		t.Fatal("short solution vector accepted")
	}
	if m, err := plan.Bind().Solve(context.Background(), nil, nil); err != nil || m.Executed != 0 {
		t.Fatalf("empty batch: m=%+v err=%v, want no-op", m, err)
	}
}

// scaleValues returns a structural clone of tri with every value
// multiplied by f — same fingerprint, different numbers.
func scaleValues(tri *sparse.CSR, f float64) *sparse.CSR {
	c := tri.Clone()
	for k := range c.Val {
		c.Val[k] *= f
	}
	return c
}
