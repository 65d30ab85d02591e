package ilu

import (
	"math"
	"math/rand"
	"testing"

	"doconsider/internal/executor"
	"doconsider/internal/sparse"
	"doconsider/internal/stencil"
	"doconsider/internal/trisolve"
	"doconsider/internal/vec"
)

func TestSymbolicLevel0MatchesMatrixPattern(t *testing.T) {
	a := stencil.Laplace2D(6, 5)
	pat, err := Symbolic(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pat.NNZ() != a.NNZ() {
		t.Fatalf("ILU(0) pattern nnz %d != matrix nnz %d", pat.NNZ(), a.NNZ())
	}
	for i := 0; i < a.N; i++ {
		cols, _ := a.Row(i)
		prow := pat.Row(i)
		if len(cols) != len(prow) {
			t.Fatalf("row %d pattern size mismatch", i)
		}
		for k := range cols {
			if cols[k] != prow[k] {
				t.Fatalf("row %d column mismatch", i)
			}
		}
	}
	for _, l := range pat.Level {
		if l != 0 {
			t.Fatal("ILU(0) pattern has nonzero level entries")
		}
	}
}

func TestSymbolicLevelGrowth(t *testing.T) {
	a := stencil.Laplace2D(8, 8)
	nnzs := []int{}
	for lvl := 0; lvl <= 3; lvl++ {
		pat, err := Symbolic(a, lvl)
		if err != nil {
			t.Fatal(err)
		}
		nnzs = append(nnzs, pat.NNZ())
	}
	for k := 1; k < len(nnzs); k++ {
		if nnzs[k] < nnzs[k-1] {
			t.Fatalf("fill decreased with level: %v", nnzs)
		}
	}
	if nnzs[1] <= nnzs[0] {
		t.Error("ILU(1) should add fill over ILU(0) on a 5-point mesh")
	}
}

func TestSymbolicAddsDiagonal(t *testing.T) {
	// Matrix missing a diagonal entry: symbolic must add it.
	a := sparse.MustAssemble(2, 2, []sparse.Triplet{
		{Row: 0, Col: 0, Val: 1}, {Row: 1, Col: 0, Val: 1},
	})
	pat, err := Symbolic(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range pat.Row(1) {
		if c == 1 {
			found = true
		}
	}
	if !found {
		t.Error("diagonal not added to pattern")
	}
}

func TestSymbolicRejectsNonSquare(t *testing.T) {
	a := sparse.MustAssemble(2, 3, []sparse.Triplet{{Row: 0, Col: 0, Val: 1}})
	if _, err := Symbolic(a, 0); err == nil {
		t.Error("Symbolic accepted non-square matrix")
	}
}

// denseLU computes the exact dense LU factorization restricted to a
// pattern: the reference ILU definition.
func denseILU(a *sparse.CSR, pat *Pattern) ([][]float64, error) {
	n := a.N
	inPat := make([]map[int]bool, n)
	for i := 0; i < n; i++ {
		inPat[i] = map[int]bool{}
		for _, c := range pat.Row(i) {
			inPat[i][int(c)] = true
		}
	}
	lu := a.Dense()
	for i := 0; i < n; i++ {
		for k := 0; k < i; k++ {
			if !inPat[i][k] {
				continue
			}
			lu[i][k] /= lu[k][k]
			for j := k + 1; j < n; j++ {
				if inPat[i][j] && inPat[k][j] {
					lu[i][j] -= lu[i][k] * lu[k][j]
				}
			}
		}
	}
	return lu, nil
}

func TestNumericSeqMatchesDenseReference(t *testing.T) {
	for _, lvl := range []int{0, 1, 2} {
		a := stencil.Laplace2D(5, 4)
		pat, err := Symbolic(a, lvl)
		if err != nil {
			t.Fatal(err)
		}
		f, err := NumericSeq(a, pat)
		if err != nil {
			t.Fatal(err)
		}
		want, err := denseILU(a, pat)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < a.N; i++ {
			cols, vals := f.LU.Row(i)
			for k, c := range cols {
				if math.Abs(vals[k]-want[i][c]) > 1e-12 {
					t.Fatalf("level %d: LU(%d,%d) = %v, want %v", lvl, i, c, vals[k], want[i][c])
				}
			}
		}
	}
}

func TestILU0ExactOnTriangularInput(t *testing.T) {
	// For an already-lower-triangular matrix, ILU(0) is exact: L*U == A.
	rng := rand.New(rand.NewSource(1))
	ts := []sparse.Triplet{}
	n := 50
	for i := 0; i < n; i++ {
		ts = append(ts, sparse.Triplet{Row: i, Col: i, Val: 2 + rng.Float64()})
		if i > 0 {
			ts = append(ts, sparse.Triplet{Row: i, Col: rng.Intn(i), Val: rng.NormFloat64()})
		}
	}
	a := sparse.MustAssemble(n, n, ts)
	pat, err := Symbolic(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NumericSeq(a, pat)
	if err != nil {
		t.Fatal(err)
	}
	u := f.U()
	// U should equal the diagonal of A (no upper entries).
	for i := 0; i < n; i++ {
		cols, vals := u.Row(i)
		if len(cols) != 1 || int(cols[0]) != i {
			t.Fatalf("U row %d not diagonal-only", i)
		}
		if math.Abs(vals[0]-a.At(i, i)) > 1e-12 {
			t.Fatalf("U(%d,%d) wrong", i, i)
		}
	}
}

func TestLUFactorsSolvePreconditionerEquation(t *testing.T) {
	// For any r, applying forward+backward solves with the ILU factors must
	// satisfy L*(U*z) = r exactly (up to roundoff) for the factored system.
	a := stencil.FivePoint(10)
	pat, err := Symbolic(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NumericSeq(a, pat)
	if err != nil {
		t.Fatal(err)
	}
	l, u := f.L(), f.U()
	rng := rand.New(rand.NewSource(2))
	r := make([]float64, a.N)
	for i := range r {
		r[i] = rng.NormFloat64()
	}
	tmp := make([]float64, a.N)
	z := make([]float64, a.N)
	if err := trisolve.ForwardSeq(l, tmp, r); err != nil {
		t.Fatal(err)
	}
	if err := trisolve.BackwardSeq(u, z, tmp); err != nil {
		t.Fatal(err)
	}
	// Check L*U*z == r.
	uz := make([]float64, a.N)
	if err := u.MatVec(uz, z); err != nil {
		t.Fatal(err)
	}
	luz := make([]float64, a.N)
	if err := l.MatVec(luz, uz); err != nil {
		t.Fatal(err)
	}
	if d := vec.MaxAbsDiff(luz, r); d > 1e-9 {
		t.Errorf("L*U*z vs r diff %v", d)
	}
}

// TestNumericParallelMatchesSequential pins the parallel numeric
// factorization to the sequential one bit for bit: each row's elimination
// runs the same operations in the same order whatever the schedule, so
// every kind, schedule and processor count yields the sequential factor.
func TestNumericParallelMatchesSequential(t *testing.T) {
	a := stencil.FivePoint(12)
	pat, err := Symbolic(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NumericSeq(a, pat)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []executor.Kind{executor.PreScheduled, executor.SelfExecuting} {
		for _, sched := range []SchedulerChoice{GlobalSchedule, LocalSchedule} {
			for _, p := range []int{1, 2, 4, 8} {
				got, _, err := NumericParallel(a, pat, p, kind, sched)
				if err != nil {
					t.Fatal(err)
				}
				for i, v := range got.LU.Val {
					if math.Float64bits(v) != math.Float64bits(want.LU.Val[i]) {
						t.Fatalf("kind=%v sched=%v p=%d: LU.Val[%d] = %v, want %v", kind, sched, p, i, v, want.LU.Val[i])
					}
				}
			}
		}
	}
}

func TestFactorSplitRoundTrip(t *testing.T) {
	a := stencil.Laplace2D(7, 7)
	pat, _ := Symbolic(a, 0)
	f, err := NumericSeq(a, pat)
	if err != nil {
		t.Fatal(err)
	}
	l, u := f.L(), f.U()
	if err := l.CheckWellFormed(); err != nil {
		t.Fatal(err)
	}
	if err := u.CheckWellFormed(); err != nil {
		t.Fatal(err)
	}
	// L unit diagonal.
	for i := 0; i < l.N; i++ {
		if l.At(i, i) != 1 {
			t.Fatalf("L(%d,%d) = %v, want 1", i, i, l.At(i, i))
		}
	}
	// nnz(L)+nnz(U) == nnz(pattern)+n (extra unit diagonal).
	if l.NNZ()+u.NNZ() != pat.NNZ()+a.N {
		t.Errorf("factor split sizes: %d + %d != %d + %d", l.NNZ(), u.NNZ(), pat.NNZ(), a.N)
	}
}

func TestPatternCSR(t *testing.T) {
	a := stencil.Laplace2D(4, 4)
	pat, _ := Symbolic(a, 0)
	pc := pat.PatternCSR()
	if err := pc.CheckWellFormed(); err != nil {
		t.Fatal(err)
	}
	if pc.NNZ() != pat.NNZ() {
		t.Error("PatternCSR changed nnz")
	}
}

func TestZeroPivotDetected(t *testing.T) {
	// a22 becomes exactly zero after elimination: a = [[1 1],[1 1]].
	a := sparse.MustAssemble(2, 2, []sparse.Triplet{
		{Row: 0, Col: 0, Val: 1}, {Row: 0, Col: 1, Val: 1},
		{Row: 1, Col: 0, Val: 1}, {Row: 1, Col: 1, Val: 1},
	})
	pat, err := Symbolic(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NumericSeq(a, pat); err == nil {
		t.Error("NumericSeq missed zero pivot")
	}
}
