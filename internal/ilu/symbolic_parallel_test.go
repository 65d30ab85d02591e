package ilu

import (
	"testing"

	"doconsider/internal/sparse"
	"doconsider/internal/stencil"
	"doconsider/internal/synthetic"
)

func patternsEqual(a, b *Pattern) bool {
	if a.N != b.N || a.NNZ() != b.NNZ() {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for k := range a.ColIdx {
		if a.ColIdx[k] != b.ColIdx[k] || a.Level[k] != b.Level[k] {
			return false
		}
	}
	for i := range a.DiagPos {
		if a.DiagPos[i] != b.DiagPos[i] {
			return false
		}
	}
	return true
}

func TestSymbolicParallelMatchesSequential(t *testing.T) {
	mats := map[string]*sparse.CSR{
		"laplace":   stencil.Laplace2D(11, 9),
		"fivepoint": stencil.FivePoint(10),
		"ninepoint": stencil.NinePoint(8),
		"spe-ish":   stencil.BlockSevenPoint(stencil.Grid3D{NX: 4, NY: 3, NZ: 3}, 2, 9),
		"synthetic": synthetic.Generate(synthetic.Config{Mesh: 12, Degree: 4, Distance: 2, Seed: 6}),
	}
	for name, a := range mats {
		for _, lvl := range []int{0, 1, 2} {
			want, err := Symbolic(a, lvl)
			if err != nil {
				t.Fatalf("%s lvl %d: %v", name, lvl, err)
			}
			for _, p := range []int{1, 2, 3, 4, 16} {
				got, err := SymbolicParallel(a, lvl, p)
				if err != nil {
					t.Fatalf("%s lvl %d p %d: %v", name, lvl, p, err)
				}
				if !patternsEqual(got, want) {
					t.Fatalf("%s lvl %d p %d: parallel symbolic differs", name, lvl, p)
				}
			}
		}
	}
}

func TestSymbolicParallelRejectsNonSquare(t *testing.T) {
	a := sparse.MustAssemble(2, 3, []sparse.Triplet{{Row: 0, Col: 0, Val: 1}})
	if _, err := SymbolicParallel(a, 0, 4); err == nil {
		t.Error("SymbolicParallel accepted non-square matrix")
	}
}

func TestSymbolicParallelThenNumeric(t *testing.T) {
	a := stencil.FivePoint(9)
	pat, err := SymbolicParallel(a, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Symbolic(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	f1, err := NumericSeq(a, pat)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := NumericSeq(a, seq)
	if err != nil {
		t.Fatal(err)
	}
	for k := range f1.LU.Val {
		if f1.LU.Val[k] != f2.LU.Val[k] {
			t.Fatal("numeric factorization differs between symbolic paths")
		}
	}
}
