package delta

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"doconsider/internal/schedule"
	"doconsider/internal/wavefront"
)

// ErrConeTooLarge reports that the level-repair propagation cone
// exceeded Options.MaxCone: the edit perturbed too much of the DAG for
// repair to beat a rebuild, and the caller should re-inspect from
// scratch (the fall-back the break-even bound RepairBound exists for).
var ErrConeTooLarge = errors.New("delta: edit cone exceeded the repair bound")

// ErrNotBackward reports a repair attempt on a structure with forward
// dependences. The single-pass cone propagation relies on every
// dependence pointing to a smaller iteration number (the paper's
// start-time schedulable precondition); general DAGs must rebuild.
var ErrNotBackward = errors.New("delta: repair requires backward (start-time schedulable) dependences")

// ErrNotGlobal reports a repair attempt against a schedule that was not
// built by wrapped dealing (Global/GlobalRanked/FromOrder); only those
// schedules can be spliced locally.
var ErrNotGlobal = errors.New("delta: schedule repair requires a wrapped-deal global schedule")

// Options bounds one repair.
type Options struct {
	// MaxCone aborts the level propagation once more than this many rows
	// have been re-examined (0 = unbounded). Callers set it to the
	// repair-vs-rebuild break-even cone, RepairBound.
	MaxCone int
}

// RepairBound is the break-even cone of a structure with n rows and
// edges dependence edges: an inspection costs about 20 ns a row and 8 ns
// an edge, a repair about 15 ns a row plus 250 ns a re-examined row, so a
// repair wins while it re-examines at most (5·n + 8·edges)/250 rows. An
// edit of more rows than the bound is rebuilt without trying.
func RepairBound(n, edges int) int { return (5*n + 8*edges) / 250 }

// Stats describes what one repair did.
type Stats struct {
	Changed int  // rows whose dependence set differs from the base
	Cone    int  // rows re-examined by the level propagation
	Moved   int  // rows whose wavefront level actually changed
	Reused  bool // no level moved: the base schedule was shared as-is
	// Fallback is set by callers (core.Inspection.Repair) when the edit
	// exceeded RepairBound or the cone bound tripped and the structure was
	// re-inspected from scratch instead.
	Fallback bool
}

// State bundles one structure's inspector output — dependences, levels,
// schedule — plus the lazily built consumer adjacency that makes
// repeated repairs incremental. States are immutable once built; Repair
// returns a fresh State and hands the consumer adjacency forward, so a
// drift chain pays the O(N+E) reverse construction once.
//
// The handed-forward adjacency is allowed to go stale: a repair does not
// splice the reverse structure, it records the edited rows in revDirty
// instead, and every later repair re-seeds those rows into its
// propagation cone. That is sound because the stale adjacency differs
// from the true one only at consumers whose own dependence row was
// edited since the adjacency was built — exactly the rows revDirty
// holds, so they are re-examined regardless of whether an edge into
// them is missing from the stale picture. Extra stale edges merely cause
// a harmless re-examination. Once revDirty outgrows revRebuildFrac of
// the structure, the adjacency is dropped and rebuilt fresh on next use.
type State struct {
	Deps  *wavefront.Deps
	Wf    []int32
	Sched *schedule.Schedule

	backward bool
	revOnce  sync.Once
	rev      *wavefront.Deps
	revDirty []int32 // rows edited since rev was built (sorted, unique)
}

// revRebuildFrac bounds the staleness debt: when more than 1/8 of the
// rows have been edited since the reverse adjacency was built, carrying
// them as extra seeds costs more than rebuilding the adjacency.
const revRebuildFrac = 8

// NewState wraps freshly inspected output. The wavefront assignment must
// be the one wavefront.Compute produced for deps, and the schedule must
// be a wrapped-deal global schedule over wf (schedule.Global,
// GlobalRanked or FromOrder).
func NewState(deps *wavefront.Deps, wf []int32, sched *schedule.Schedule) *State {
	return &State{Deps: deps, Wf: wf, Sched: sched, backward: deps.CheckBackward() == nil}
}

// Reverse returns the consumer adjacency of the state's structure,
// building it on first use.
func (s *State) Reverse() *wavefront.Deps {
	s.revOnce.Do(func() {
		if s.rev == nil {
			s.rev = s.Deps.Reverse()
		}
	})
	return s.rev
}

// Repair produces the inspector output for newDeps — a structure that
// differs from s.Deps exactly in the given rows (as computed by DiffRows
// or returned by Apply) — by propagating level changes through the
// affected cone and splicing the schedule, instead of re-inspecting from
// scratch. The repaired levels are identical to what wavefront.Compute
// would return for newDeps, and the repaired schedule is a valid
// wrapped-deal global schedule over them.
func (s *State) Repair(newDeps *wavefront.Deps, changed []int32, o Options) (*State, Stats, error) {
	st := Stats{Changed: len(changed)}
	if !s.backward {
		return nil, st, ErrNotBackward
	}
	if newDeps.N != s.Deps.N {
		return nil, st, fmt.Errorf("delta: structure has %d iterations, base has %d", newDeps.N, s.Deps.N)
	}
	if s.Sched.N != s.Deps.N || s.Sched.P < 1 {
		return nil, st, ErrNotGlobal
	}
	for _, r := range changed {
		if r < 0 || int(r) >= newDeps.N {
			return nil, st, fmt.Errorf("delta: changed row %d outside [0,%d)", r, newDeps.N)
		}
		for _, t := range newDeps.On(int(r)) {
			if t < 0 || t >= r {
				return nil, st, ErrNotBackward
			}
		}
	}
	if len(changed) == 0 {
		st.Reused = true
		return &State{Deps: newDeps, Wf: s.Wf, Sched: s.Sched, backward: true}, st, nil
	}
	sorted := append([]int32(nil), changed...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })

	// The stale-reverse invariant (see State): propagate over the base
	// adjacency, seeding both the fresh edits and every row edited since
	// that adjacency was built.
	seeds := sorted
	if len(s.revDirty) > 0 {
		seeds = mergeUnique(s.revDirty, sorted)
	}
	wf, cone, moved, err := relevel(newDeps, s.Reverse(), s.Wf, seeds, o.MaxCone)
	st.Cone = cone
	if err != nil {
		return nil, st, err
	}
	st.Moved = len(moved)
	var sched *schedule.Schedule
	if len(moved) == 0 {
		// Dependences changed but no level did: the base schedule is still
		// a valid wavefront ordering of the new structure. Share it.
		sched = s.Sched
		wf = s.Wf
		st.Reused = true
	} else {
		sched = repairSchedule(s.Sched, wf, moved)
	}
	next := &State{Deps: newDeps, Wf: wf, Sched: sched, backward: true}
	// seeds is exactly the staleness debt the child inherits: the rows
	// edited since s.rev was built, plus this repair's edits.
	if len(seeds)*revRebuildFrac <= newDeps.N {
		next.rev = s.Reverse()
		next.revDirty = seeds
	}
	return next, st, nil
}

// mergeUnique merges two sorted int32 slices, dropping duplicates.
func mergeUnique(a, b []int32) []int32 {
	out := make([]int32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var v int32
		switch {
		case j >= len(b) || (i < len(a) && a[i] < b[j]):
			v = a[i]
			i++
		case i >= len(a) || b[j] < a[i]:
			v = b[j]
			j++
		default:
			v = a[i]
			i++
			j++
		}
		out = append(out, v)
	}
	return out
}

// relevel recomputes wavefront numbers for the dirty cone: seeds are the
// edited rows; a row whose level changes dirties its consumers. Because
// every dependence points backward and the dirty set is processed in
// increasing row order, each row is examined at most once and sees only
// final levels of its dependences — the incremental counterpart of the
// paper's Figure 7 sweep. moved lists the rows whose level changed.
func relevel(deps, rev *wavefront.Deps, oldWf []int32, seeds []int32, maxCone int) (wf []int32, cone int, moved []int32, err error) {
	wf = append([]int32(nil), oldWf...)
	h := rowHeap{inQ: make([]bool, deps.N)}
	for _, r := range seeds {
		h.push(r)
	}
	for h.len() > 0 {
		i := h.pop()
		cone++
		if maxCone > 0 && cone > maxCone {
			return nil, cone, nil, ErrConeTooLarge
		}
		lvl := int32(0)
		for _, t := range deps.On(int(i)) {
			if wf[t]+1 > lvl {
				lvl = wf[t] + 1
			}
		}
		if lvl == wf[i] {
			continue
		}
		wf[i] = lvl
		moved = append(moved, i)
		for _, c := range rev.On(int(i)) {
			h.push(c)
		}
	}
	return wf, cone, moved, nil
}

// repairSchedule splices the moved rows into the base schedule's dealing
// order: unmoved rows keep their relative order, moved rows are appended
// to their new wavefront segment in index order, and the merged order is
// re-dealt wrapped. Cost is O(N + #levels + moved·log moved) with
// memcpy-class constants — no per-edge work and no sort of the full
// index set.
func repairSchedule(old *schedule.Schedule, newWf []int32, moved []int32) *schedule.Schedule {
	n := old.N
	nw := 0
	for _, w := range newWf {
		if int(w)+1 > nw {
			nw = int(w) + 1
		}
	}
	movedSet := make([]bool, n)
	for _, r := range moved {
		movedSet[r] = true
	}
	// Per-wavefront fill offsets for the merged order.
	offsets := make([]int32, nw+1)
	for _, w := range newWf {
		offsets[w+1]++
	}
	for k := 0; k < nw; k++ {
		offsets[k+1] += offsets[k]
	}
	pos := offsets[:nw]
	newOrder := make([]int32, n)
	// Walk the base dealing order in place (position k of a wrapped deal
	// sits at processor k mod P, slot k/P) instead of materializing
	// old.Order(): unmoved rows keep their relative order.
	p := old.P
	for k := 0; k < n; k++ {
		idx := old.Idx[int(old.ProcPtr[k%p])+k/p]
		if movedSet[idx] {
			continue
		}
		w := newWf[idx]
		newOrder[pos[w]] = idx
		pos[w]++
	}
	ms := append([]int32(nil), moved...)
	sort.Slice(ms, func(a, b int) bool {
		if newWf[ms[a]] != newWf[ms[b]] {
			return newWf[ms[a]] < newWf[ms[b]]
		}
		return ms[a] < ms[b]
	})
	for _, idx := range ms {
		w := newWf[idx]
		newOrder[pos[w]] = idx
		pos[w]++
	}
	return schedule.FromOrder(newWf, newOrder, old.P)
}

// rowHeap is a deduplicating binary min-heap of row indices — the dirty
// queue of the cone propagation.
type rowHeap struct {
	rows []int32
	inQ  []bool
}

func (h *rowHeap) len() int { return len(h.rows) }

func (h *rowHeap) push(r int32) {
	if h.inQ[r] {
		return
	}
	h.inQ[r] = true
	h.rows = append(h.rows, r)
	i := len(h.rows) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.rows[p] <= h.rows[i] {
			break
		}
		h.rows[p], h.rows[i] = h.rows[i], h.rows[p]
		i = p
	}
}

func (h *rowHeap) pop() int32 {
	r := h.rows[0]
	h.inQ[r] = false
	last := len(h.rows) - 1
	h.rows[0] = h.rows[last]
	h.rows = h.rows[:last]
	i := 0
	for {
		l, rt := 2*i+1, 2*i+2
		min := i
		if l < last && h.rows[l] < h.rows[min] {
			min = l
		}
		if rt < last && h.rows[rt] < h.rows[min] {
			min = rt
		}
		if min == i {
			break
		}
		h.rows[i], h.rows[min] = h.rows[min], h.rows[i]
		i = min
	}
	return r
}
