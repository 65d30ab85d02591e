// Package delta implements incremental re-inspection: given the
// inspector output for one dependence structure (wavefront levels plus a
// CSR schedule) and a structural edit set — per-row dependence
// insertions and deletions, the footprint of an adaptive mesh step or a
// refactorization with a modified drop pattern — it repairs the levels
// and the schedule locally instead of re-running the full O(N+E)
// inspection.
//
// The paper's economics are inspector-cost amortization: inspection is
// paid once and the schedule reused across executions. A plan cache
// (internal/plancache) extends that across structurally identical
// solves; this package extends it across structurally *similar* ones.
// Level changes propagate only through the cone of iterations reachable
// from the edited rows, so a small edit touches a small cone and repair
// costs a few cheap O(N) splices plus the cone — typically several times
// cheaper than cold inspection. When the cone grows past the break-even
// bound (RepairBound), Repair aborts with ErrConeTooLarge and the caller
// falls back to a full rebuild.
//
// A repaired plan is exactly equivalent to a from-scratch inspection of
// the edited structure: the level assignment is identical (pinned by
// FuzzRepair against wavefront.Compute), and because a row's arithmetic
// is fixed by the row itself, every executor produces bit-identical
// results under the repaired schedule.
package delta

import (
	"fmt"
	"sort"

	"doconsider/internal/wavefront"
)

// RowEdit describes the structural change to one iteration's dependence
// set: targets added and targets removed. Insertions must be absent from
// the row and deletions present in it — a drifted structure is an exact
// object, not a hint, and a mismatched edit means the caller's picture
// of the base structure is stale.
type RowEdit struct {
	Row    int32
	Insert []int32 // dependence targets added; must not already be present
	Delete []int32 // dependence targets removed; must be present
}

// EditSet is a collection of row edits, at most one per row.
type EditSet []RowEdit

// Apply produces the dependence structure that results from applying
// edits to d, along with the sorted list of edited rows. d is not
// modified; unchanged row spans are block-copied, so the cost is a
// memcpy of the index arrays plus the edited rows themselves.
func Apply(d *wavefront.Deps, edits EditSet) (*wavefront.Deps, []int32, error) {
	if len(edits) == 0 {
		return d, nil, nil
	}
	rows := make(map[int32][]int32, len(edits))
	changed := make([]int32, 0, len(edits))
	for _, e := range edits {
		if e.Row < 0 || int(e.Row) >= d.N {
			return nil, nil, fmt.Errorf("delta: edit row %d outside [0,%d)", e.Row, d.N)
		}
		if _, dup := rows[e.Row]; dup {
			return nil, nil, fmt.Errorf("delta: row %d edited twice", e.Row)
		}
		nr, err := editRow(d.On(int(e.Row)), e.Insert, e.Delete, e.Row, int32(d.N))
		if err != nil {
			return nil, nil, err
		}
		rows[e.Row] = nr
		changed = append(changed, e.Row)
	}
	sort.Slice(changed, func(a, b int) bool { return changed[a] < changed[b] })
	return spliceRows(d, changed, rows), changed, nil
}

// editRow returns the sorted dependence set (old ∖ del) ∪ ins, validating
// the edit against the current row content.
func editRow(old, ins, del []int32, row, n int32) ([]int32, error) {
	os := sortedCopy(old)
	is := sortedCopy(ins)
	ds := sortedCopy(del)
	for k, t := range is {
		if t < 0 || t >= n {
			return nil, fmt.Errorf("delta: row %d inserts out-of-range dependence %d", row, t)
		}
		if t == row {
			return nil, fmt.Errorf("delta: row %d inserts a self-dependence", row)
		}
		if k > 0 && is[k-1] == t {
			return nil, fmt.Errorf("delta: row %d inserts dependence %d twice", row, t)
		}
		if contains(os, t) {
			return nil, fmt.Errorf("delta: row %d inserts dependence %d, already present", row, t)
		}
		if contains(ds, t) {
			return nil, fmt.Errorf("delta: row %d both inserts and deletes dependence %d", row, t)
		}
	}
	for k, t := range ds {
		if k > 0 && ds[k-1] == t {
			return nil, fmt.Errorf("delta: row %d deletes dependence %d twice", row, t)
		}
		if !contains(os, t) {
			return nil, fmt.Errorf("delta: row %d deletes dependence %d, not present", row, t)
		}
	}
	kept := make([]int32, 0, len(os)-len(ds)+len(is))
	di := 0
	for _, t := range os {
		if di < len(ds) && ds[di] == t {
			di++
			continue
		}
		kept = append(kept, t)
	}
	return mergeSorted(kept, is), nil
}

// spliceRows builds a new Deps replacing the given (sorted) rows with the
// supplied content; all other rows are block-copied from d.
func spliceRows(d *wavefront.Deps, changed []int32, rows map[int32][]int32) *wavefront.Deps {
	n := d.N
	size := len(d.Idx)
	for _, r := range changed {
		size += len(rows[r]) - d.Count(int(r))
	}
	idx := make([]int32, 0, size)
	prev := 0
	for _, r := range changed {
		idx = append(idx, d.Idx[d.Ptr[prev]:d.Ptr[r]]...)
		idx = append(idx, rows[r]...)
		prev = int(r) + 1
	}
	idx = append(idx, d.Idx[d.Ptr[prev]:]...)

	ptr := make([]int32, n+1)
	off, ci := int32(0), 0
	for i := 0; i < n; i++ {
		if ci < len(changed) && changed[ci] == int32(i) {
			off += int32(len(rows[int32(i)])) - (d.Ptr[i+1] - d.Ptr[i])
			ci++
		}
		ptr[i+1] = d.Ptr[i+1] + off
	}
	return &wavefront.Deps{N: n, Ptr: ptr, Idx: idx}
}

// DiffRows returns the sorted list of rows whose dependence sets differ
// between a and b. Rows are compared as sets: the order in which two
// constructors list a row's dependences never affects inspection output,
// so it must not produce phantom diffs either (repaired structures store
// edited rows sorted while wavefront.FromUpper lists them reflected).
func DiffRows(a, b *wavefront.Deps) ([]int32, error) {
	if a.N != b.N {
		return nil, fmt.Errorf("delta: structures have %d and %d iterations", a.N, b.N)
	}
	var changed []int32
	for i := 0; i < a.N; i++ {
		ra, rb := a.On(i), b.On(i)
		if len(ra) != len(rb) {
			changed = append(changed, int32(i))
			continue
		}
		same := true
		for k := range ra {
			if ra[k] != rb[k] {
				same = false
				break
			}
		}
		if same {
			continue
		}
		// Order mismatch is not a structural difference; compare as sets.
		if !equalAsSets(ra, rb) {
			changed = append(changed, int32(i))
		}
	}
	return changed, nil
}

func sortedCopy(x []int32) []int32 {
	c := append([]int32(nil), x...)
	sort.Slice(c, func(a, b int) bool { return c[a] < c[b] })
	return c
}

// contains reports whether sorted slice s holds t.
func contains(s []int32, t int32) bool {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := (lo + hi) / 2
		if s[mid] < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(s) && s[lo] == t
}

func mergeSorted(a, b []int32) []int32 {
	out := make([]int32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

func equalAsSets(a, b []int32) bool {
	sa, sb := sortedCopy(a), sortedCopy(b)
	for k := range sa {
		if sa[k] != sb[k] {
			return false
		}
	}
	return true
}
