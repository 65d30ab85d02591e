package sparse

// MatVec computes y = A*x sequentially. y and x must not alias.
func (a *CSR) MatVec(y, x []float64) error {
	if len(x) != a.M || len(y) != a.N {
		return ErrShape
	}
	a.MatVecRows(y, x, 0, a.N)
	return nil
}

// MatVecRows computes rows lo..hi-1 of y = A*x, the one matvec kernel:
// MatVec runs it over every row, and internal/krylov over fixed blocks of
// rows in parallel, which leaves each y[i] the same bits. It checks no
// shapes. Each product is rounded before it is added, so no architecture
// fuses a multiply-add.
func (a *CSR) MatVecRows(y, x []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		s := 0.0
		for p, end := a.RowPtr[i], a.RowPtr[i+1]; p < end; p++ {
			s += float64(a.Val[p] * x[a.ColIdx[p]])
		}
		y[i] = s
	}
}

// MatVecAdd computes y += A*x sequentially.
func (a *CSR) MatVecAdd(y, x []float64) error {
	if len(x) != a.M || len(y) != a.N {
		return ErrShape
	}
	for i := 0; i < a.N; i++ {
		lo, hi := a.RowPtr[i], a.RowPtr[i+1]
		s := 0.0
		for p := lo; p < hi; p++ {
			s += float64(a.Val[p] * x[a.ColIdx[p]])
		}
		y[i] += s
	}
	return nil
}
