package vec

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"doconsider/internal/executor"
)

func randVec(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func TestAxpy(t *testing.T) {
	y := []float64{1, 2, 3}
	Axpy(2, []float64{1, 1, 1}, y)
	want := []float64{3, 4, 5}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("y = %v, want %v", y, want)
		}
	}
}

// blockRows is the fixed block the parallel callers (internal/krylov)
// split a vector into; a small one here gives many blocks on short vectors.
const blockRows = 64

// inParallel runs span over the blocks of an n-vector as one column pass
// at most p wide on the executor's worker set, as internal/krylov runs its
// vector operations.
func inParallel(t *testing.T, n, p int, span executor.Span) {
	t.Helper()
	blocks := (n + blockRows - 1) / blockRows
	if _, err := executor.New(executor.Pooled).RunColumns(context.Background(), blocks, p, span); err != nil {
		t.Fatal(err)
	}
}

// blockedDot is the fixed-block inner product, computed on p goroutines:
// each block is reduced with Dot and the partials are summed in block
// order.
func blockedDot(t *testing.T, x, y []float64, p int) float64 {
	n := len(x)
	partial := make([]float64, (n+blockRows-1)/blockRows)
	inParallel(t, n, p, func(b0, b1 int, _ func() bool) {
		for k := b0; k < b1; k++ {
			lo, hi := k*blockRows, min((k+1)*blockRows, n)
			partial[k] = Dot(x[lo:hi], y[lo:hi])
		}
	})
	s := 0.0
	for _, v := range partial {
		s += v
	}
	return s
}

// TestAxpyParallelMatchesSequential: Axpy run concurrently over disjoint
// block ranges leaves y with the bits of one sequential Axpy.
func TestAxpyParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := randVec(rng, 1000)
	y := randVec(rng, 1000)
	for _, p := range []int{1, 2, 3, 8, 16} {
		y1 := append([]float64(nil), y...)
		y2 := append([]float64(nil), y...)
		Axpy(0.7, x, y1)
		inParallel(t, len(x), p, func(b0, b1 int, _ func() bool) {
			lo, hi := b0*blockRows, min(b1*blockRows, len(x))
			Axpy(0.7, x[lo:hi], y2[lo:hi])
		})
		for i := range y1 {
			if math.Float64bits(y1[i]) != math.Float64bits(y2[i]) {
				t.Fatalf("p=%d: y[%d] = %v, want %v", p, i, y2[i], y1[i])
			}
		}
	}
}

// TestDotParallelMatchesSequential: the fixed-block inner product agrees
// with Dot to rounding, and is Dot's bits when the vector is one block.
func TestDotParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := randVec(rng, 5000)
	y := randVec(rng, 5000)
	want := Dot(x, y)
	for _, p := range []int{1, 2, 4, 13} {
		got := blockedDot(t, x, y, p)
		if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
			t.Errorf("p=%d: got %v, want %v", p, got, want)
		}
	}
	if got, want := blockedDot(t, x[:blockRows], y[:blockRows], 4), Dot(x[:blockRows], y[:blockRows]); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("one block: got %v, want Dot's %v", got, want)
	}
}

// TestDotParallelDeterministic: the fixed-block inner product returns the
// same bits on every run and at every width.
func TestDotParallelDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := randVec(rng, 10007)
	y := randVec(rng, 10007)
	first := blockedDot(t, x, y, 7)
	for _, p := range []int{1, 2, 3, 7, 7, 7, 16} {
		if got := blockedDot(t, x, y, p); math.Float64bits(got) != math.Float64bits(first) {
			t.Fatalf("p=%d: blocked dot %v, want %v", p, got, first)
		}
	}
}

func TestNorms(t *testing.T) {
	x := []float64{3, -4}
	if got := Norm2(x); got != 5 {
		t.Errorf("Norm2 = %v, want 5", got)
	}
	if got := NormInf(x); got != 4 {
		t.Errorf("NormInf = %v, want 4", got)
	}
}

func TestScaleFillSubCopy(t *testing.T) {
	x := []float64{1, 2}
	Scale(3, x)
	if x[0] != 3 || x[1] != 6 {
		t.Errorf("Scale: %v", x)
	}
	Fill(x, -1)
	if x[0] != -1 || x[1] != -1 {
		t.Errorf("Fill: %v", x)
	}
	z := make([]float64, 2)
	Sub(z, []float64{5, 5}, []float64{2, 3})
	if z[0] != 3 || z[1] != 2 {
		t.Errorf("Sub: %v", z)
	}
	dst := make([]float64, 2)
	Copy(dst, z)
	if dst[0] != 3 || dst[1] != 2 {
		t.Errorf("Copy: %v", dst)
	}
}

func TestMaxAbsDiff(t *testing.T) {
	if got := MaxAbsDiff([]float64{1, 2, 3}, []float64{1, 2.5, 3}); got != 0.5 {
		t.Errorf("MaxAbsDiff = %v, want 0.5", got)
	}
	if got := MaxAbsDiff(nil, nil); got != 0 {
		t.Errorf("MaxAbsDiff(nil) = %v, want 0", got)
	}
}

func TestDotSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := randVec(rng, 64)
		y := randVec(rng, 64)
		return Dot(x, y) == Dot(y, x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestNorm2CauchySchwarz(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := randVec(rng, 32)
		y := randVec(rng, 32)
		return math.Abs(Dot(x, y)) <= Norm2(x)*Norm2(y)*(1+1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
