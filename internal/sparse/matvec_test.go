package sparse_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"doconsider/internal/executor"
	"doconsider/internal/sparse"
)

// TestMatVecParallelMatchesSequential: MatVecRows run as one column pass
// over contiguous row ranges on the executor's worker set, as
// internal/krylov runs it over row blocks, leaves every y[i] with MatVec's
// bits whatever the pass width.
func TestMatVecParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 200
	ts := make([]sparse.Triplet, 0, 1500)
	for k := 0; k < cap(ts); k++ {
		ts = append(ts, sparse.Triplet{Row: rng.Intn(n), Col: rng.Intn(n), Val: rng.NormFloat64()})
	}
	a, err := sparse.Assemble(n, n, ts)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	ySeq := make([]float64, n)
	if err := a.MatVec(ySeq, x); err != nil {
		t.Fatal(err)
	}
	const rows = 8 // rows per column of the pass
	for _, p := range []int{1, 2, 3, 7, 16} {
		yPar := make([]float64, n)
		span := func(lo, hi int, _ func() bool) { a.MatVecRows(yPar, x, lo*rows, min(hi*rows, n)) }
		if _, err := executor.New(executor.Pooled).RunColumns(context.Background(), (n+rows-1)/rows, p, span); err != nil {
			t.Fatal(err)
		}
		for i := range ySeq {
			if math.Float64bits(ySeq[i]) != math.Float64bits(yPar[i]) {
				t.Fatalf("p=%d: yPar[%d]=%v, want %v", p, i, yPar[i], ySeq[i])
			}
		}
	}
}
