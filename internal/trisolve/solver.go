package trisolve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"doconsider/internal/executor"
	"doconsider/internal/sparse"
)

// kernel is the one loop body of the package — row substitution i of the
// triangular solve (the paper's Figure 8) — bound to a factor's values.
// Iteration k stands for row k of a forward solve and row n-1-k of a
// backward one (the reflected numbering of wavefront.FromUpper). For each
// installed right-hand side the row's stored entries are accumulated in
// CSR order, skipping the diagonal, and the sum is multiplied once by
// the reciprocal diagonal: exactly the per-row sequence of ForwardSeq and
// BackwardSeq, so any schedule, executor kind, fusion or batching choice
// reproduces the sequential loop bit for bit. A row writes only its own
// x[r], which makes independent rows safe to run concurrently.
type kernel struct {
	rp, ci []int32   // the factor's CSR structure
	val    []float64 // the factor's values
	inv    []float64 // reciprocal diagonal of val
	lower  bool
	last   int32 // n-1, the row of backward iteration 0

	xs, bs [][]float64 // per-pass, installed by the solve entry points
}

func newKernel(l *sparse.CSR, lower bool) kernel {
	return kernel{rp: l.RowPtr, ci: l.ColIdx, val: l.Val, inv: invDiagonal(l), lower: lower, last: int32(l.N) - 1}
}

// invDiagonal returns the reciprocal of each stored diagonal entry (0 for
// an absent one). Columns are strictly increasing within a row, so a
// triangular factor stores its diagonal last (lower) or first (upper):
// both ends are checked in O(1), and only a row whose diagonal is neither
// — absent, or a row with entries on both sides — falls back to At's
// binary search.
func invDiagonal(a *sparse.CSR) []float64 {
	inv := make([]float64, a.N)
	for i := 0; i < a.N; i++ {
		lo, hi := a.RowPtr[i], a.RowPtr[i+1]
		var d float64
		switch {
		case lo == hi: // empty row: no diagonal
		case int(a.ColIdx[hi-1]) == i:
			d = a.Val[hi-1]
		case int(a.ColIdx[lo]) == i:
			d = a.Val[lo]
		default:
			d = a.At(i, i)
		}
		if d != 0 {
			inv[i] = 1 / d
		}
	}
	return inv
}

// row performs iteration k for every installed right-hand side.
func (kn *kernel) row(k int32) {
	r := k
	if !kn.lower {
		r = kn.last - k
	}
	lo, hi := kn.rp[r], kn.rp[r+1]
	cols, vals := kn.ci[lo:hi], kn.val[lo:hi]
	vals = vals[:len(cols)] // hoist the bounds check out of the loops
	d := kn.inv[r]
	for j, x := range kn.xs {
		acc := kn.bs[j][r]
		for q, c := range cols {
			if c != r {
				acc -= vals[q] * x[c]
			}
		}
		x[r] = acc * d
	}
}

// groupRow is row for a group of structurally identical factors: the
// same loop with a member loop around the right-hand-side loop, each
// member bringing its own values and reciprocal diagonal inv[g]. It
// exists beside row only because the extra loop level costs a
// single-member pass 9–22 % on row-wise plans.
func (kn *kernel) groupRow(group []BatchProblem, inv [][]float64, k int32) {
	r := k
	if !kn.lower {
		r = kn.last - k
	}
	lo, hi := kn.rp[r], kn.rp[r+1]
	cols := kn.ci[lo:hi]
	for g := range group {
		m := &group[g]
		vals := m.L.Val[lo:hi]
		vals = vals[:len(cols)]
		d := inv[g][r]
		for j, x := range m.Xs {
			acc := m.Bs[j][r]
			for q, c := range cols {
				if c != r {
					acc -= vals[q] * x[c]
				}
			}
			x[r] = acc * d
		}
	}
}

// RowBody returns the kernel as a bare loop body for one right-hand side
// — body(k) performs iteration k of the solve of l with b into x — for
// callers that drive it under their own schedule and executor
// (internal/tables' timed executors). Everything else solves through a
// Plan.
func RowBody(l *sparse.CSR, lower bool, x, b []float64) executor.Body {
	kn := newKernel(l, lower)
	kn.xs, kn.bs = [][]float64{x}, [][]float64{b}
	return kn.row
}

// BatchSolver is a plan's bound solve state: the kernel over the plan's
// factor (with its reciprocal diagonal, computed once) and the executor
// bodies that sweep it over the plan's schedule, so repeated solves
// allocate nothing. This is safe because the factor values behind a plan
// are treated as immutable (the serving tier caches factors by content
// fingerprint), so the reciprocal diagonal cannot go stale.
//
// The per-call vectors are installed into kernel fields read by the
// bound bodies under a mutex, which serializes passes on one plan. The
// serving coalescer already executes at most one pass per factor at a
// time, so the serialization costs nothing there.
type BatchSolver struct {
	kernel
	p *Plan

	// body runs row: per scheduled index on a row-wise plan, over the
	// supernode's iteration span on a fused one (core.Inspection.Sweep).
	body executor.Body

	// timed wraps body to charge each scheduled index's runtime to its
	// wavefront level on the installed clock. Built on the first timed
	// solve, once, so sampled solves on a warm solver stay
	// allocation-free.
	timed executor.Body
	clock LevelClock // per-call, installed under mu like xs/bs

	mu sync.Mutex
	// one backs the one-element xs/bs of single-vector solves (Plan.Solve);
	// allocated by the first, so batched-only callers never pay for it.
	one *[2][1][]float64
}

// LevelClock receives per-wavefront-level executor time from a timed
// solve. Implementations must be safe for concurrent Add calls — the
// executor invokes the timed body from its worker goroutines.
// internal/obs.LevelClock is the serving tier's implementation.
type LevelClock interface {
	Add(level int32, ns int64)
}

// Bind returns the plan's bound solve state, building it on first use.
// The solver borrows the plan: a cached plan's lease must be held (the
// plan not Closed) for as long as the solver is in use.
func (p *Plan) Bind() *BatchSolver {
	p.bindOnce.Do(func() {
		s := &BatchSolver{kernel: newKernel(p.L, p.Lower), p: p}
		s.body = p.in.Sweep(s.row)
		p.bound = s
	})
	return p.bound
}

// checkBatch validates a batch's shape against the plan.
func (p *Plan) checkBatch(xs, bs [][]float64) error {
	if len(xs) != len(bs) {
		return fmt.Errorf("trisolve: batch has %d solutions but %d right-hand sides", len(xs), len(bs))
	}
	n := p.L.N
	for j := range xs {
		if len(xs[j]) != n || len(bs[j]) != n {
			return fmt.Errorf("trisolve: batch vector %d has length %d/%d, want %d", j, len(xs[j]), len(bs[j]), n)
		}
	}
	return nil
}

// pass runs one scheduled pass of body over the plan. The caller holds
// s.mu and has installed the per-pass state, which pass clears.
func (s *BatchSolver) pass(ctx context.Context, body executor.Body) (executor.Metrics, error) {
	m, err := s.p.in.Run(ctx, s.p.exec, body)
	s.xs, s.bs, s.clock = nil, nil, nil
	return m, err
}

// Solve runs one batched pass writing solution j to xs[j], with zero
// allocations on the success path. Each xs[j] must not alias its bs[j]
// or any other vector in the batch (the parallel executors read b while
// writing x).
func (s *BatchSolver) Solve(ctx context.Context, xs, bs [][]float64) (executor.Metrics, error) {
	return s.SolveTimed(ctx, xs, bs, nil)
}

// SolveTimed is Solve with per-wavefront-level timing: each scheduled
// index's runtime (a row for row-wise plans, a fused supernode for
// supernodal ones) is charged to its level on clock; a nil clock is a
// plain Solve. The arithmetic is identical — the timed body wraps the
// same bound body. The first timed solve on a solver builds the wrapper
// (one allocation, once); every later call allocates nothing, so level
// sampling at any rate keeps the serving warm path at 0 allocs/op.
func (s *BatchSolver) SolveTimed(ctx context.Context, xs, bs [][]float64, clock LevelClock) (executor.Metrics, error) {
	if err := s.p.checkBatch(xs, bs); err != nil {
		return executor.Metrics{}, err
	}
	if len(xs) == 0 {
		return executor.Metrics{}, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.xs, s.bs = xs, bs
	if clock == nil {
		return s.pass(ctx, s.body)
	}
	if s.timed == nil {
		// The wavefront numbers in scheduled-index space: unit levels
		// when fused, row levels otherwise. An uninspected plan has none;
		// its one sequential sweep is charged to level 0.
		levelOf := s.p.in.UnitWf
		inner := s.body
		s.timed = func(i int32) {
			t0 := time.Now()
			inner(i)
			level := int32(0)
			if levelOf != nil {
				level = levelOf[i]
			}
			s.clock.Add(level, time.Since(t0).Nanoseconds())
		}
	}
	s.clock = clock
	return s.pass(ctx, s.timed)
}
