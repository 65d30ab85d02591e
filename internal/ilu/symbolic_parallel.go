package ilu

import (
	"context"
	"fmt"

	"doconsider/internal/executor"
	"doconsider/internal/sparse"
)

// SymbolicParallel computes the same level-based fill pattern as Symbolic
// using the paper's Appendix II §2.3 strategy for the symbolic
// factorization: "we distribute the rows of the matrix over processors in
// a wrapped manner and execute in a self-scheduled fashion." It is one
// awaiting pass on the executor's worker set (Executor.RunAwaiting): the
// participants claim rows one at a time in natural order, and nproc caps
// the pass's width, as krylov.Options.Procs does.
//
// The dependence structure of the symbolic factorization is not known in
// advance (it is exactly what is being computed), so no inspector can run
// first; instead a row awaits each pivot row it discovers on the pass's
// ready array before merging with it. A row only ever waits on smaller
// rows, claimed earlier by running participants, so the pass progresses.
func SymbolicParallel(a *sparse.CSR, maxLevel, nproc int) (*Pattern, error) {
	if a.N != a.M {
		return nil, fmt.Errorf("ilu: matrix is %dx%d, want square", a.N, a.M)
	}
	n := a.N
	// rows[i] holds row i's columns and then their levels; diag[i] is the
	// diagonal's offset in it, so the columns after it are row i's upper
	// part. A row is written before the pass stamps it finished and read
	// by later rows only after their await has seen the stamp.
	rows := make([][]int32, n)
	diag := make([]int32, n)
	lists := make([]*rowList, max(nproc, 1)) // one per participant
	factor := func(p int, i int32, await func(int32) bool) {
		if lists[p] == nil {
			lists[p] = newRowList(n)
		}
		lists[p].factor(a, int(i), maxLevel, rows, diag, await)
	}
	if _, err := executor.New(executor.Pooled).RunAwaiting(context.Background(), n, nproc, factor); err != nil {
		return nil, err
	}
	pt := &Pattern{N: n, RowPtr: make([]int32, n+1), DiagPos: make([]int32, n)}
	for i, r := range rows {
		pt.RowPtr[i+1] = pt.RowPtr[i] + int32(len(r)/2)
	}
	pt.ColIdx = make([]int32, 0, pt.RowPtr[n])
	pt.Level = make([]int32, 0, pt.RowPtr[n])
	for i, r := range rows {
		m := len(r) / 2
		pt.DiagPos[i] = pt.RowPtr[i] + diag[i]
		pt.ColIdx = append(pt.ColIdx, r[:m]...)
		pt.Level = append(pt.Level, r[m:]...)
	}
	return pt, nil
}

// notInRow marks a column absent from a rowList.
const notInRow = -1

// rowList is one participant's working row: Symbolic's sorted linked list
// over columns (next[c] is the next column, n ends the list; lev[c] is
// c's level), kept from row to row so no row allocates it.
type rowList struct {
	next, lev []int32
	head, n   int32
	cols      []int32 // the harvested columns of the current row
}

func newRowList(n int) *rowList {
	l := &rowList{next: make([]int32, n+1), lev: make([]int32, n), n: int32(n)}
	for c := range l.next {
		l.next[c] = notInRow
	}
	return l
}

// seed puts column c in the row at level lev, or lowers c's level to lev.
func (l *rowList) seed(c, lev int32) {
	if l.next[c] != notInRow {
		l.lev[c] = min(l.lev[c], lev)
		return
	}
	if l.head == l.n || c < l.head {
		l.next[c] = l.head
		l.head = c
	} else {
		q := l.head
		for l.next[q] != l.n && l.next[q] < c {
			q = l.next[q]
		}
		l.next[c] = l.next[q]
		l.next[q] = c
	}
	l.lev[c] = lev
}

// factor computes row i into rows[i] and diag[i] exactly as Symbolic
// does, awaiting each pivot row it merges with. It returns early, with
// the list left dirty, once the pass aborts.
func (l *rowList) factor(a *sparse.CSR, i, maxLevel int, rows [][]int32, diag []int32, await func(int32) bool) {
	l.head = l.n
	cols, _ := a.Row(i)
	for _, c := range cols {
		l.seed(c, 0)
	}
	l.seed(int32(i), 0) // ensure the diagonal exists
	for k := l.head; k < int32(i); k = l.next[k] {
		fillBase := l.lev[k] + 1
		if int(fillBase) > maxLevel {
			continue // multiplier too indirect; generates no retained fill
		}
		if !await(k) {
			return
		}
		r := rows[k]
		m := len(r) / 2
		for q := diag[k] + 1; int(q) < m; q++ {
			if newLev := fillBase + r[m+int(q)]; int(newLev) <= maxLevel {
				l.seed(r[q], newLev)
			}
		}
	}
	l.cols = l.cols[:0]
	for c := l.head; c != l.n; c, l.next[c] = l.next[c], notInRow {
		l.cols = append(l.cols, c)
	}
	m := len(l.cols)
	r := make([]int32, 2*m)
	for j, c := range l.cols {
		if int(c) == i {
			diag[i] = int32(j)
		}
		r[j], r[m+j] = c, l.lev[c]
	}
	rows[i] = r
}
