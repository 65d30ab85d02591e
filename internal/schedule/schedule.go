// Package schedule turns a wavefront assignment into per-processor
// execution schedules — the "scheduling procedures that reorder and
// repartition index sets of loops" of paper Section 1.
//
// Two families are implemented, matching Section 2.3:
//
//   - Global scheduling sorts the whole index set by wavefront number and
//     deals the sorted list to processors in a wrapped manner, evenly
//     partitioning the work in each wavefront.
//   - Local scheduling starts from a fixed assignment of indices to
//     processors (striped or blocked) and merely reorders each processor's
//     indices by increasing wavefront number.
//
// Schedules are stored flat: one contiguous index buffer with CSR-style
// per-processor and per-phase offset arrays. The flat layout costs one
// allocation per schedule and keeps each processor's execution list
// contiguous in memory, which matters because the executor walks it on
// every Run while the builder runs only once (the paper's amortization
// argument, §5.1.1, applied to the data layout).
package schedule

import (
	"fmt"

	"doconsider/internal/wavefront"
)

// Partition names the initial index→processor assignment used by local
// scheduling (and by the executors' default data distribution).
type Partition int

const (
	// Striped assigns index i to processor i mod P (the paper's "striped
	// manner", §5.1.4).
	Striped Partition = iota
	// Blocked assigns contiguous slabs of roughly n/P indices per processor
	// (the Appendix II distribution for SAXPY/dot/matvec).
	Blocked
)

// String returns the partition name.
func (p Partition) String() string {
	switch p {
	case Striped:
		return "striped"
	case Blocked:
		return "blocked"
	default:
		return fmt.Sprintf("Partition(%d)", int(p))
	}
}

// Schedule is a complete executor plan: for each of P processors, the
// ordered list of loop indices it executes, partitioned into phases of
// equal wavefront number.
//
// The plan is stored in CSR form: Idx is a single contiguous buffer
// holding every processor's execution list back to back; ProcPtr[p] ..
// ProcPtr[p+1] bounds processor p's slice of it, and PhasePtr (stride
// NumPhases+1 per processor, absolute offsets into Idx) bounds each
// wavefront phase within that slice. Use Proc and Phase to view the
// buffer; the returned slices alias it and must not be modified.
type Schedule struct {
	P         int     // number of processors
	N         int     // number of loop indices
	NumPhases int     // number of wavefronts
	Wf        []int32 // wavefront number per index
	Idx       []int32 // flat execution lists, processor-major
	ProcPtr   []int32 // len P+1: Idx[ProcPtr[p]:ProcPtr[p+1]] = processor p's list
	PhasePtr  []int32 // len P*(NumPhases+1): absolute phase bounds per processor
}

// Proc returns the ordered execution list of processor p. The slice
// aliases the schedule and must not be modified.
func (s *Schedule) Proc(p int) []int32 {
	return s.Idx[s.ProcPtr[p]:s.ProcPtr[p+1]]
}

// ProcLen returns the number of indices assigned to processor p.
func (s *Schedule) ProcLen(p int) int {
	return int(s.ProcPtr[p+1] - s.ProcPtr[p])
}

// Phase returns the indices processor p executes during phase k. The slice
// aliases the schedule and must not be modified.
func (s *Schedule) Phase(p, k int) []int32 {
	base := p * (s.NumPhases + 1)
	return s.Idx[s.PhasePtr[base+k]:s.PhasePtr[base+k+1]]
}

// Global builds a global schedule on nproc processors: indices are sorted
// by (wavefront, index) — for a naturally ordered mesh this reproduces the
// anti-diagonal list of paper Figure 9 — and dealt to processors in a
// wrapped manner (Figure 10).
func Global(wf []int32, nproc int) *Schedule {
	return FromOrder(wf, sortedByWavefront(wf), nproc)
}

// FromOrder builds a global-style schedule from a caller-supplied
// execution order: position k of order is dealt to processor k mod P
// (the wrapped dealing of Figure 10). order must list every index exactly
// once with non-decreasing wavefront numbers — the invariant Global
// establishes by sorting, and which an incremental schedule
// repair (internal/delta) re-establishes by merging a repaired order
// instead of re-sorting from scratch.
func FromOrder(wf []int32, order []int32, nproc int) *Schedule {
	s := newSchedule(wf, nproc, len(order))
	// Wrapped dealing: position k of the sorted list goes to processor
	// k mod P, so the per-processor counts are exactly those of a striped
	// partition (ceil((n-p)/P) for processor p).
	partitionPtrs(s, Striped)
	pos := fillStart(s)
	for k, idx := range order {
		p := k % s.P
		s.Idx[pos[p]] = idx
		pos[p]++
	}
	s.buildPhasePtrs()
	return s
}

// Order recovers the global dealing order of a wrapped-deal schedule
// (Global, FromOrder): position k was dealt to processor
// k mod P at slot k/P. It is the inverse of FromOrder's dealing and lets
// an incremental repair splice a few moved indices into the existing
// order in O(N) instead of re-sorting. The result is unspecified for
// schedules built with a non-wrapped partition (Local, Natural).
func (s *Schedule) Order() []int32 {
	order := make([]int32, s.N)
	for k := 0; k < s.N; k++ {
		order[k] = s.Idx[int(s.ProcPtr[k%s.P])+k/s.P]
	}
	return order
}

// Local builds a local schedule: the initial partition fixes which
// processor owns each index, and each processor's list is then ordered by
// increasing wavefront number, preserving the original relative order of
// equal-wavefront indices. The local sort is a stable counting sort, so it
// stays cheap relative to a sequential iteration (the whole point of local
// scheduling, §5.1.5).
func Local(wf []int32, nproc int, part Partition) *Schedule {
	n := len(wf)
	s := newSchedule(wf, nproc, n)
	partitionPtrs(s, part)
	// The original per-processor order is increasing index for both
	// partitions, so filling in global (wavefront, index) order yields each
	// processor's list stably sorted by wavefront.
	pos := fillStart(s)
	for _, idx := range sortedByWavefront(wf) {
		p := partOwner(int(idx), n, s.P, part)
		s.Idx[pos[p]] = idx
		pos[p]++
	}
	s.buildPhasePtrs()
	return s
}

// Natural builds the degenerate schedule that keeps the original index
// order under the given partition with no wavefront reordering; with the
// self-executing synchronization this is exactly a classic doacross loop
// (§5.1.2). Phases are not meaningful for a Natural schedule; each
// processor's whole list forms a single phase.
func Natural(n, nproc int, part Partition) *Schedule {
	wf := make([]int32, n) // all zero: one phase
	s := newSchedule(wf, nproc, n)
	partitionPtrs(s, part)
	pos := fillStart(s)
	for i := 0; i < n; i++ {
		p := partOwner(i, n, s.P, part)
		s.Idx[pos[p]] = int32(i)
		pos[p]++
	}
	s.buildPhasePtrs()
	return s
}

// partOwner returns the processor owning index i under the partition.
func partOwner(i, n, nproc int, part Partition) int {
	switch part {
	case Striped:
		return i % nproc
	case Blocked:
		// Inverse of the lo = n*p/nproc block bounds.
		p := (i*nproc + nproc - 1) / n
		for n*p/nproc > i {
			p--
		}
		for n*(p+1)/nproc <= i {
			p++
		}
		return p
	default:
		panic("schedule: unknown partition")
	}
}

// partitionPtrs fills ProcPtr with the per-processor counts of the given
// partition (striped: near-equal wrapped counts; blocked: slab bounds).
func partitionPtrs(s *Schedule, part Partition) {
	switch part {
	case Striped:
		for p := 0; p < s.P; p++ {
			s.ProcPtr[p+1] = s.ProcPtr[p] + int32((s.N-p+s.P-1)/s.P)
		}
	case Blocked:
		for p := 0; p < s.P; p++ {
			s.ProcPtr[p+1] = int32(s.N * (p + 1) / s.P)
		}
	default:
		panic("schedule: unknown partition")
	}
}

// fillStart returns a scratch copy of the processor start offsets, used as
// running fill cursors during construction.
func fillStart(s *Schedule) []int32 {
	pos := make([]int32, s.P)
	copy(pos, s.ProcPtr[:s.P])
	return pos
}

func newSchedule(wf []int32, nproc, n int) *Schedule {
	if nproc < 1 {
		nproc = 1
	}
	nw := wavefront.NumWavefronts(wf)
	return &Schedule{
		P:         nproc,
		N:         n,
		NumPhases: nw,
		Wf:        wf,
		Idx:       make([]int32, n),
		ProcPtr:   make([]int32, nproc+1),
		PhasePtr:  make([]int32, nproc*(nw+1)),
	}
}

// buildPhasePtrs scans each processor's (wavefront-sorted) index list and
// records phase boundaries for all NumPhases phases, including empty ones —
// the pre-scheduled executor must still participate in the barrier for a
// phase in which it has no work (paper Figure 5). Offsets are absolute
// positions in the flat Idx buffer.
func (s *Schedule) buildPhasePtrs() {
	stride := s.NumPhases + 1
	if len(s.PhasePtr) != s.P*stride {
		s.PhasePtr = make([]int32, s.P*stride)
	}
	for p := 0; p < s.P; p++ {
		idxs := s.Proc(p)
		base := p * stride
		off := s.ProcPtr[p]
		pos := 0
		for k := 0; k < s.NumPhases; k++ {
			s.PhasePtr[base+k] = off + int32(pos)
			for pos < len(idxs) && s.Wf[idxs[pos]] == int32(k) {
				pos++
			}
		}
		s.PhasePtr[base+s.NumPhases] = off + int32(pos)
	}
}

// sortedByWavefront returns all indices sorted by (wavefront, index).
// Counting sort keeps this O(n + #wavefronts), cheaper than the sequential
// solve it is amortized against (paper §2.3).
func sortedByWavefront(wf []int32) []int32 {
	n := len(wf)
	nw := wavefront.NumWavefronts(wf)
	counts := make([]int32, nw+1)
	for _, w := range wf {
		counts[w+1]++
	}
	for k := 0; k < nw; k++ {
		counts[k+1] += counts[k]
	}
	order := make([]int32, n)
	next := counts
	for i := 0; i < n; i++ {
		order[next[wf[i]]] = int32(i)
		next[wf[i]]++
	}
	return order
}
