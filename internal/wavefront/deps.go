// Package wavefront implements the inspector half of the paper's
// inspector/executor system: it extracts iteration-level dependence sets
// from run-time data structures (indirection arrays, sparse matrix rows)
// and topologically sorts the iteration space into wavefronts — disjoint
// sets of loop indices whose work may be carried out in parallel
// (Section 2.2–2.3 of the paper).
package wavefront

import (
	"fmt"

	"doconsider/internal/sparse"
)

// Deps is a compressed adjacency structure recording, for each loop index i,
// the set of indices whose results i consumes. Index i's dependences occupy
// Idx[Ptr[i]:Ptr[i+1]]. A Deps is immutable once built.
type Deps struct {
	N   int
	Ptr []int32
	Idx []int32
}

// On returns the indices that iteration i depends on. The returned slice
// aliases the Deps storage and must not be modified.
func (d *Deps) On(i int) []int32 { return d.Idx[d.Ptr[i]:d.Ptr[i+1]] }

// Count returns the number of dependences of iteration i.
func (d *Deps) Count(i int) int { return int(d.Ptr[i+1] - d.Ptr[i]) }

// Edges returns the total number of dependence edges.
func (d *Deps) Edges() int { return len(d.Idx) }

// FromAdjacency builds a Deps from a slice-of-slices adjacency list, where
// adj[i] lists the indices i depends on. Intended for tests and small
// hand-built graphs.
func FromAdjacency(adj [][]int32) *Deps {
	n := len(adj)
	d := &Deps{N: n, Ptr: make([]int32, n+1)}
	total := 0
	for _, a := range adj {
		total += len(a)
	}
	d.Idx = make([]int32, 0, total)
	for i, a := range adj {
		d.Idx = append(d.Idx, a...)
		d.Ptr[i+1] = int32(len(d.Idx))
	}
	return d
}

// FromLower extracts the dependence structure of a lower triangular solve
// (paper Figure 8): row substitution i depends on every column j < i with a
// stored entry in row i. Diagonal and upper entries are ignored, so the
// function may be handed either a full matrix or its lower triangle.
func FromLower(a *sparse.CSR) *Deps {
	d := &Deps{N: a.N, Ptr: make([]int32, a.N+1)}
	count := 0
	for i := 0; i < a.N; i++ {
		cols, _ := a.Row(i)
		for _, c := range cols {
			if int(c) < i {
				count++
			}
		}
	}
	d.Idx = make([]int32, 0, count)
	for i := 0; i < a.N; i++ {
		cols, _ := a.Row(i)
		for _, c := range cols {
			if int(c) < i {
				d.Idx = append(d.Idx, c)
			}
		}
		d.Ptr[i+1] = int32(len(d.Idx))
	}
	return d
}

// FromUpper extracts the dependence structure of an upper triangular
// (backward) solve: row i depends on every column j > i. The iteration
// order of the executor runs from n-1 down to 0; to keep all machinery
// uniform the indices are reflected (iteration k stands for row n-1-k), so
// the resulting Deps again has all dependences pointing to lower iteration
// numbers. Use ReflectIndex to translate.
func FromUpper(a *sparse.CSR) *Deps {
	n := a.N
	d := &Deps{N: n, Ptr: make([]int32, n+1)}
	count := 0
	for i := 0; i < n; i++ {
		cols, _ := a.Row(i)
		for _, c := range cols {
			if int(c) > i {
				count++
			}
		}
	}
	d.Idx = make([]int32, 0, count)
	for k := 0; k < n; k++ {
		i := n - 1 - k // actual row
		cols, _ := a.Row(i)
		for _, c := range cols {
			if int(c) > i {
				d.Idx = append(d.Idx, int32(n-1-int(c)))
			}
		}
		d.Ptr[k+1] = int32(len(d.Idx))
	}
	return d
}

// ReflectIndex translates between iteration number and row number for the
// reflected indexing used by FromUpper.
func ReflectIndex(n, k int) int { return n - 1 - k }

// FromIndirection builds the dependence structure of the paper's simple
// loop (Figure 2): x(i) = x(i) + b(i)*x(ia(i)). Iteration i depends on
// iteration ia[i] only when ia[i] < i; references with ia[i] >= i read the
// old value of x (Figure 4, line 2a-2b) and impose no ordering.
func FromIndirection(ia []int32) *Deps {
	n := len(ia)
	d := &Deps{N: n, Ptr: make([]int32, n+1)}
	count := 0
	for i, t := range ia {
		if int(t) < i {
			count++
		}
	}
	d.Idx = make([]int32, 0, count)
	for i, t := range ia {
		if int(t) < i && t >= 0 {
			d.Idx = append(d.Idx, t)
		}
		d.Ptr[i+1] = int32(len(d.Idx))
	}
	return d
}

// CheckBackward verifies that every dependence points to a strictly smaller
// iteration number — the "start-time schedulable" precondition under which
// the sequential wavefront sweep of Figure 7 is valid.
func (d *Deps) CheckBackward() error {
	for i := 0; i < d.N; i++ {
		for _, t := range d.On(i) {
			if int(t) >= i {
				return fmt.Errorf("wavefront: iteration %d depends on %d (not backward)", i, t)
			}
			if t < 0 {
				return fmt.Errorf("wavefront: iteration %d has negative dependence %d", i, t)
			}
		}
	}
	return nil
}

// Reverse returns the consumer adjacency: out[i] lists the iterations that
// depend on i. Used by the machine simulator and by Kahn's algorithm.
func (d *Deps) Reverse() *Deps {
	counts := make([]int32, d.N+1)
	for _, t := range d.Idx {
		counts[t+1]++
	}
	for i := 0; i < d.N; i++ {
		counts[i+1] += counts[i]
	}
	r := &Deps{N: d.N, Ptr: counts, Idx: make([]int32, len(d.Idx))}
	next := make([]int32, d.N)
	copy(next, counts[:d.N])
	for i := 0; i < d.N; i++ {
		for _, t := range d.On(i) {
			r.Idx[next[t]] = int32(i)
			next[t]++
		}
	}
	return r
}
