package sparse

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func mustAssembleT(t *testing.T, n, m int, ts []Triplet) *CSR {
	t.Helper()
	a, err := Assemble(n, m, ts)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	return a
}

func TestAssembleBasic(t *testing.T) {
	a := mustAssembleT(t, 3, 3, []Triplet{
		{0, 0, 1}, {1, 0, 2}, {1, 1, 3}, {2, 2, 4}, {2, 0, 5},
	})
	if a.NNZ() != 5 {
		t.Fatalf("NNZ = %d, want 5", a.NNZ())
	}
	if got := a.At(1, 0); got != 2 {
		t.Errorf("At(1,0) = %v, want 2", got)
	}
	if got := a.At(0, 1); got != 0 {
		t.Errorf("At(0,1) = %v, want 0", got)
	}
	if err := a.CheckWellFormed(); err != nil {
		t.Errorf("CheckWellFormed: %v", err)
	}
}

func TestAssembleSumsDuplicates(t *testing.T) {
	a := mustAssembleT(t, 2, 2, []Triplet{
		{0, 0, 1}, {0, 0, 2.5}, {1, 1, -1}, {1, 1, 1},
	})
	if a.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2", a.NNZ())
	}
	if got := a.At(0, 0); got != 3.5 {
		t.Errorf("At(0,0) = %v, want 3.5", got)
	}
	if got := a.At(1, 1); got != 0 {
		t.Errorf("At(1,1) = %v, want 0 (cancelled)", got)
	}
}

func TestAssembleOutOfBounds(t *testing.T) {
	if _, err := Assemble(2, 2, []Triplet{{2, 0, 1}}); err == nil {
		t.Error("Assemble accepted out-of-range row")
	}
	if _, err := Assemble(2, 2, []Triplet{{0, -1, 1}}); err == nil {
		t.Error("Assemble accepted negative column")
	}
}

func TestRowsSorted(t *testing.T) {
	a := mustAssembleT(t, 1, 5, []Triplet{
		{0, 4, 4}, {0, 1, 1}, {0, 3, 3}, {0, 0, 0},
	})
	cols, _ := a.Row(0)
	want := []int32{0, 1, 3, 4}
	if !reflect.DeepEqual(cols, want) {
		t.Errorf("row cols = %v, want %v", cols, want)
	}
}

func TestTranspose(t *testing.T) {
	a := mustAssembleT(t, 2, 3, []Triplet{
		{0, 0, 1}, {0, 2, 2}, {1, 1, 3},
	})
	tr := a.Transpose()
	if tr.N != 3 || tr.M != 2 {
		t.Fatalf("transpose shape %dx%d, want 3x2", tr.N, tr.M)
	}
	if tr.At(0, 0) != 1 || tr.At(2, 0) != 2 || tr.At(1, 1) != 3 {
		t.Errorf("transpose values wrong: %v", tr.Dense())
	}
	if err := tr.CheckWellFormed(); err != nil {
		t.Errorf("transpose not well formed: %v", err)
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		a := randomCSR(rand.New(rand.NewSource(seed)), 15, 10, 40)
		return Equal(a, a.Transpose().Transpose())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestTriangularSplit(t *testing.T) {
	a := mustAssembleT(t, 3, 3, []Triplet{
		{0, 0, 1}, {0, 2, 2}, {1, 0, 3}, {1, 1, 4}, {2, 1, 5}, {2, 2, 6},
	})
	l := a.StrictLower()
	u := a.StrictUpper()
	ld := a.LowerWithDiag()
	ud := a.UpperWithDiag()
	if l.NNZ() != 2 || u.NNZ() != 1 || ld.NNZ() != 5 || ud.NNZ() != 4 {
		t.Errorf("split sizes: L=%d U=%d LD=%d UD=%d", l.NNZ(), u.NNZ(), ld.NNZ(), ud.NNZ())
	}
	// L + D + U == A entrywise.
	d := a.Dense()
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			sum := l.At(i, j) + u.At(i, j)
			if i == j {
				sum += a.At(i, i)
			}
			if sum != d[i][j] {
				t.Errorf("split mismatch at (%d,%d): %v vs %v", i, j, sum, d[i][j])
			}
		}
	}
}

func TestDiag(t *testing.T) {
	a := mustAssembleT(t, 3, 3, []Triplet{{0, 0, 7}, {1, 0, 1}, {2, 2, 9}})
	want := []float64{7, 0, 9}
	if got := a.Diag(); !reflect.DeepEqual(got, want) {
		t.Errorf("Diag = %v, want %v", got, want)
	}
	if a.HasFullDiag() {
		t.Error("HasFullDiag true with missing diagonal")
	}
}

func TestClone(t *testing.T) {
	a := mustAssembleT(t, 2, 2, []Triplet{{0, 0, 1}, {1, 1, 2}})
	b := a.Clone()
	b.Val[0] = 99
	if a.Val[0] == 99 {
		t.Error("Clone shares value storage")
	}
	if !Equal(a, a) || Equal(a, b) {
		t.Error("Equal misbehaves")
	}
}

func TestMatVec(t *testing.T) {
	a := mustAssembleT(t, 2, 3, []Triplet{
		{0, 0, 1}, {0, 2, 2}, {1, 1, 3},
	})
	x := []float64{1, 2, 3}
	y := make([]float64, 2)
	if err := a.MatVec(y, x); err != nil {
		t.Fatal(err)
	}
	if y[0] != 7 || y[1] != 6 {
		t.Errorf("y = %v, want [7 6]", y)
	}
	if err := a.MatVec(y, []float64{1}); err != ErrShape {
		t.Errorf("MatVec shape error = %v, want ErrShape", err)
	}
}

func TestMatVecAdd(t *testing.T) {
	a := mustAssembleT(t, 2, 2, []Triplet{{0, 0, 1}, {1, 1, 2}})
	y := []float64{10, 10}
	if err := a.MatVecAdd(y, []float64{1, 1}); err != nil {
		t.Fatal(err)
	}
	if y[0] != 11 || y[1] != 12 {
		t.Errorf("y = %v, want [11 12]", y)
	}
}

func TestTextRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomCSR(rng, 20, 17, 80)
	var buf bytes.Buffer
	if err := a.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	b, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(a, b) {
		t.Error("text round trip changed the matrix")
	}
}

func TestReadTextErrors(t *testing.T) {
	if _, err := ReadText(bytes.NewBufferString("not a header")); err == nil {
		t.Error("ReadText accepted garbage header")
	}
	if _, err := ReadText(bytes.NewBufferString("2 2 1\n0 0")); err == nil {
		t.Error("ReadText accepted truncated entry")
	}
}

func TestCheckWellFormedDetectsCorruption(t *testing.T) {
	a := mustAssembleT(t, 2, 2, []Triplet{{0, 0, 1}, {1, 1, 2}})
	a.ColIdx[0] = 5
	if err := a.CheckWellFormed(); err == nil {
		t.Error("CheckWellFormed missed out-of-range column")
	}
	a.ColIdx[0] = 0
	a.RowPtr[1] = 99
	if err := a.CheckWellFormed(); err == nil {
		t.Error("CheckWellFormed missed bad row pointer")
	}
}

// randomCSR builds a random well-formed matrix for property tests.
func randomCSR(rng *rand.Rand, n, m, nnz int) *CSR {
	ts := make([]Triplet, 0, nnz)
	for k := 0; k < nnz; k++ {
		ts = append(ts, Triplet{
			Row: rng.Intn(n), Col: rng.Intn(m), Val: rng.NormFloat64(),
		})
	}
	a, err := Assemble(n, m, ts)
	if err != nil {
		panic(err)
	}
	return a
}

func TestDenseMatchesAt(t *testing.T) {
	f := func(seed int64) bool {
		a := randomCSR(rand.New(rand.NewSource(seed)), 8, 8, 20)
		d := a.Dense()
		for i := 0; i < 8; i++ {
			for j := 0; j < 8; j++ {
				if d[i][j] != a.At(i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
