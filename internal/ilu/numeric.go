package ilu

import (
	"fmt"
	"sort"

	"doconsider/internal/executor"
	"doconsider/internal/schedule"
	"doconsider/internal/sparse"
	"doconsider/internal/wavefront"
)

// Factor holds an incomplete LU factorization. LU stores both factors in a
// single CSR matrix with the pattern of the symbolic factorization: in row
// i, columns j < i hold the multipliers of unit-lower-triangular L and
// columns j >= i hold U.
type Factor struct {
	Pat *Pattern
	LU  *sparse.CSR
}

// L returns the unit lower triangular factor as a standalone matrix with
// explicit unit diagonal, suitable for trisolve.
func (f *Factor) L() *sparse.CSR {
	n := f.LU.N
	t := sparse.New(n, n, f.LU.NNZ())
	for i := 0; i < n; i++ {
		cols, vals := f.LU.Row(i)
		for k, c := range cols {
			if int(c) < i {
				t.ColIdx = append(t.ColIdx, c)
				t.Val = append(t.Val, vals[k])
			}
		}
		t.ColIdx = append(t.ColIdx, int32(i))
		t.Val = append(t.Val, 1)
		t.RowPtr[i+1] = int32(len(t.ColIdx))
	}
	return t
}

// U returns the upper triangular factor (with diagonal) as a standalone
// matrix.
func (f *Factor) U() *sparse.CSR {
	n := f.LU.N
	t := sparse.New(n, n, f.LU.NNZ())
	for i := 0; i < n; i++ {
		cols, vals := f.LU.Row(i)
		for k, c := range cols {
			if int(c) >= i {
				t.ColIdx = append(t.ColIdx, c)
				t.Val = append(t.Val, vals[k])
			}
		}
		t.RowPtr[i+1] = int32(len(t.ColIdx))
	}
	return t
}

// scatter copies the values of a's row i into lu's (superset) pattern row.
func scatterRow(lu *sparse.CSR, a *sparse.CSR, i int) {
	cols, vals := lu.Row(i)
	for k := range vals {
		vals[k] = 0
	}
	acols, avals := a.Row(i)
	// Both rows sorted: merge.
	k := 0
	for q, c := range acols {
		for k < len(cols) && cols[k] < c {
			k++
		}
		if k < len(cols) && cols[k] == c {
			vals[k] += avals[q]
		}
		// Entries of a outside the pattern are dropped (cannot happen for
		// level >= 0 symbolic patterns, which contain a's pattern).
	}
}

// eliminateRow performs the incomplete elimination of row i in place,
// using already-stabilized pivot rows k < i (paper Figure 13 schematic).
// Positions are located by binary search within the sorted row, which makes
// the body safe for concurrent execution of independent rows.
func eliminateRow(lu *sparse.CSR, diagPos []int32, i int) {
	cols, vals := lu.Row(i)
	for k := 0; k < len(cols) && int(cols[k]) < i; k++ {
		piv := int(cols[k])
		pd := diagPos[piv]
		pivDiag := lu.Val[pd]
		if pivDiag == 0 {
			// Zero pivot: skip the update; the factor is flagged afterwards.
			continue
		}
		f := vals[k] / pivDiag
		vals[k] = f
		// Subtract f * (U part of pivot row) from row i, within pattern.
		pCols := lu.ColIdx[pd+1 : lu.RowPtr[piv+1]]
		pVals := lu.Val[pd+1 : lu.RowPtr[piv+1]]
		for q, j := range pCols {
			// Binary search for j among columns > piv of row i.
			lo, hi := k+1, len(cols)
			for lo < hi {
				mid := (lo + hi) / 2
				if cols[mid] < j {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			if lo < len(cols) && cols[lo] == j {
				vals[lo] -= float64(f * pVals[q]) // rounded: no fused multiply-subtract
			}
		}
	}
}

// diagPositions returns, for each row, the index into lu.Val of the
// diagonal entry.
func diagPositions(lu *sparse.CSR) ([]int32, error) {
	d := make([]int32, lu.N)
	for i := 0; i < lu.N; i++ {
		lo, hi := lu.RowPtr[i], lu.RowPtr[i+1]
		pos := int32(-1)
		for p := lo; p < hi; p++ {
			if int(lu.ColIdx[p]) == i {
				pos = p
				break
			}
		}
		if pos < 0 {
			return nil, fmt.Errorf("ilu: row %d has no diagonal in pattern", i)
		}
		d[i] = pos
	}
	return d, nil
}

// NumericSeq computes the numeric incomplete factorization of a on the
// given pattern sequentially.
func NumericSeq(a *sparse.CSR, pt *Pattern) (*Factor, error) {
	lu, diag, err := initLU(a, pt)
	if err != nil {
		return nil, err
	}
	for i := 0; i < a.N; i++ {
		eliminateRow(lu, diag, i)
	}
	f := &Factor{Pat: pt, LU: lu}
	return f, f.checkPivots()
}

// NumericParallel computes the numeric factorization using the requested
// executor over nproc processors. The outer loop dependence structure is
// read off the pattern's lower triangle: eliminating row i requires the
// stabilized pivot rows named by its L-part columns (Appendix II §2.2.2).
func NumericParallel(a *sparse.CSR, pt *Pattern, nproc int, kind executor.Kind, sched SchedulerChoice) (*Factor, executor.Metrics, error) {
	lu, diag, err := initLU(a, pt)
	if err != nil {
		return nil, executor.Metrics{}, err
	}
	deps := wavefront.FromLower(lu)
	wf, err := wavefront.Compute(deps)
	if err != nil {
		return nil, executor.Metrics{}, err
	}
	var s *schedule.Schedule
	switch sched {
	case GlobalSchedule:
		s = schedule.Global(wf, nproc)
	case LocalSchedule:
		s = schedule.Local(wf, nproc, schedule.Striped)
	default:
		return nil, executor.Metrics{}, fmt.Errorf("ilu: unknown schedule choice %d", sched)
	}
	body := func(i int32) { eliminateRow(lu, diag, int(i)) }
	m := executor.Run(kind, s, deps, body)
	f := &Factor{Pat: pt, LU: lu}
	return f, m, f.checkPivots()
}

// SchedulerChoice selects the index-set scheduling for NumericParallel.
type SchedulerChoice int

const (
	// GlobalSchedule deals wavefront-sorted indices wrapped across procs.
	GlobalSchedule SchedulerChoice = iota
	// LocalSchedule keeps a striped partition, locally wavefront-sorted.
	LocalSchedule
)

func initLU(a *sparse.CSR, pt *Pattern) (*sparse.CSR, []int32, error) {
	if a.N != pt.N {
		return nil, nil, fmt.Errorf("ilu: matrix order %d, pattern order %d", a.N, pt.N)
	}
	lu := &sparse.CSR{
		N:      pt.N,
		M:      pt.N,
		RowPtr: append([]int32(nil), pt.RowPtr...),
		ColIdx: append([]int32(nil), pt.ColIdx...),
		Val:    make([]float64, pt.NNZ()),
	}
	for i := 0; i < a.N; i++ {
		scatterRow(lu, a, i)
	}
	diag, err := diagPositions(lu)
	if err != nil {
		return nil, nil, err
	}
	return lu, diag, nil
}

// checkPivots verifies that every U diagonal is nonzero.
func (f *Factor) checkPivots() error {
	var bad []int
	for i := 0; i < f.LU.N; i++ {
		if f.LU.Val[f.Pat.DiagPos[i]] == 0 {
			bad = append(bad, i)
		}
	}
	if len(bad) > 0 {
		sort.Ints(bad)
		return fmt.Errorf("ilu: zero pivot at %d row(s), first %d", len(bad), bad[0])
	}
	return nil
}
