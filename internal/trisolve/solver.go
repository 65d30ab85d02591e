package trisolve

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"doconsider/internal/executor"
	"doconsider/internal/sparse"
)

// kernel is the one loop body of the package — row substitution i of the
// triangular solve (the paper's Figure 8) — bound to a factor's values.
// Iteration k stands for row k of a forward solve and row n-1-k of a
// backward one (the reflected numbering of wavefront.FromUpper). For each
// of its right-hand sides the row's stored entries are accumulated in
// CSR order, skipping the diagonal, and the sum is multiplied once by
// the reciprocal diagonal, taken from the row itself: exactly the per-row
// sequence of ForwardSeq and BackwardSeq, so any schedule, executor kind,
// fusion or batching choice reproduces the sequential loop bit for bit.
// A row writes only its own x[r], which makes independent rows safe to
// run concurrently.
type kernel struct {
	rp, ci []int32   // the factor's CSR structure
	val    []float64 // the factor's values
	lower  bool
	last   int32 // n-1, the row of backward iteration 0

	xs, bs [][]float64 // the pass's vectors (pass.sweep: a participant's span)
}

func newKernel(l *sparse.CSR, lower bool) kernel {
	return kernel{rp: l.RowPtr, ci: l.ColIdx, val: l.Val, lower: lower, last: int32(l.N) - 1}
}

// invDiag returns the reciprocal of row r's stored diagonal, or 0 for a
// row that stores none (or stores a zero). Columns are strictly
// increasing within a row, so a lower factor stores its diagonal last and
// an upper one first, where the scan finds it at once.
func invDiag(cols []int32, vals []float64, r int32) float64 {
	q := len(cols) - 1
	if q < 0 || cols[q] != r {
		q = slices.Index(cols, r)
	}
	if q < 0 || vals[q] == 0 {
		return 0
	}
	return 1 / vals[q]
}

// row performs iteration k for every right-hand side of the kernel.
func (kn *kernel) row(k int32) {
	r := k
	if !kn.lower {
		r = kn.last - k
	}
	lo, hi := kn.rp[r], kn.rp[r+1]
	cols, vals := kn.ci[lo:hi], kn.val[lo:hi]
	vals = vals[:len(cols)] // hoist the bounds check out of the loops
	d := invDiag(cols, vals, r)
	for j, x := range kn.xs {
		acc := kn.bs[j][r]
		for q, c := range cols {
			if c != r {
				// The explicit conversion rounds the product before the
				// subtraction: the Go spec forbids fusing across it, so no
				// architecture computes a fused multiply-subtract and every
				// one returns the same bits (TestNoFusedMultiplyAdd).
				acc -= float64(vals[q] * x[c])
			}
		}
		x[r] = acc * d
	}
}

// sweep runs the sequential loop — row k for k = 0..n-1, the order of
// ForwardSeq and BackwardSeq — polling stop every 256 rows, and reports
// whether it ran to the end.
func (kn *kernel) sweep(stop func() bool) bool {
	for k := int32(0); k <= kn.last; k++ {
		if k%256 == 0 && stop() {
			return false
		}
		kn.row(k)
	}
	return true
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

// BatchSolver is a plan's batched solve entry point. It holds only the
// plan: every solve runs on a pass record of its own (see pass), so
// solves on one plan share nothing and run at once, and Bind allocates
// nothing.
type BatchSolver struct{ p *Plan }

// pass is one solve's record: the kernel over that solve's vectors, its
// clock, the fused plan's unit spans and one-element slots for a single
// vector. Its bodies are bound once, when the record is built. Records
// serve every plan from one free list — a mutex-guarded slice, which
// keeps what it is given, unlike a sync.Pool under the race detector —
// so a warm solve allocates nothing.
type pass struct {
	kernel
	one     [2][1][]float64 // a single vector's xs and bs
	units   []int32         // a fused plan's supernode row spans, else nil
	levelOf []int32         // the scheduled indices' wavefront levels
	clock   LevelClock

	body, timed executor.Body
	span        executor.Span
}

var passes struct {
	mu   sync.Mutex
	free []*pass
}

// take returns a record from the free list, or builds one.
func take() *pass {
	passes.mu.Lock()
	defer passes.mu.Unlock()
	if n := len(passes.free); n > 0 {
		r := passes.free[n-1]
		passes.free = passes.free[:n-1]
		return r
	}
	r := new(pass)
	r.body, r.timed, r.span = r.unit, r.timedUnit, r.sweep
	return r
}

// drop clears the record's references to the solve and returns it to
// the free list.
func (r *pass) drop() {
	*r = pass{body: r.body, timed: r.timed, span: r.span}
	passes.mu.Lock()
	passes.free = append(passes.free, r)
	passes.mu.Unlock()
}

// unit runs scheduled index u: row u of a row-wise plan, or supernode
// u's rows in order on a fused one (core.Inspection.Sweep).
func (r *pass) unit(u int32) {
	if r.units == nil {
		r.row(u)
		return
	}
	for k := r.units[u]; k < r.units[u+1]; k++ {
		r.row(k)
	}
}

// timedUnit is unit charging its runtime to u's wavefront level.
func (r *pass) timedUnit(u int32) {
	t0 := time.Now()
	r.unit(u)
	r.clock.Add(r.levelOf[u], time.Since(t0).Nanoseconds())
}

// sweep is one participant's span of a column pass: columns lo..hi-1,
// each solved by the sequential loop. No column waits on another, so
// every column is the sequential loop's result by construction. A timed
// span is charged to level 0, as an uninspected pass is.
func (r *pass) sweep(lo, hi int, stop func() bool) {
	t0 := time.Now()
	kn := r.kernel
	kn.xs, kn.bs = r.xs[lo:hi], r.bs[lo:hi]
	if kn.sweep(stop) && r.clock != nil {
		r.clock.Add(0, time.Since(t0).Nanoseconds())
	}
}

// solve runs r over xs and bs on p and returns r to the free list. Any
// solve on a sequential plan and a batch of two or more on an adaptive
// parallel plan run as a column pass, at width 1 on a sequential plan
// and min(columns, P) otherwise. Only single vectors on parallel plans
// and batches on pinned parallel kinds run the plan's schedule.
func (p *Plan) solve(ctx context.Context, r *pass, xs, bs [][]float64, clock LevelClock) (executor.Metrics, error) {
	defer r.drop()
	r.kernel, r.clock = newKernel(p.L, p.Lower), clock
	r.xs, r.bs = xs, bs
	switch cols := len(xs); {
	case cols == 0:
		return executor.Metrics{}, nil
	case p.Kind == executor.Sequential:
		return p.columns(ctx, r, cols, 1)
	case cols > 1 && p.Decision != nil:
		return p.columns(ctx, r, cols, min(cols, p.Sched.P))
	}
	r.levelOf = p.in.UnitWf
	if p.in.Part != nil {
		r.units = p.in.Part.RowPtr
	}
	if clock == nil {
		return p.in.Run(ctx, p.exec, r.body)
	}
	return p.in.Run(ctx, p.exec, r.timed)
}

// columns runs r's cols columns as a column pass on at most width
// participants, each claiming a contiguous span (pass.sweep).
func (p *Plan) columns(ctx context.Context, r *pass, cols, width int) (executor.Metrics, error) {
	m, err := p.exec.RunColumns(ctx, cols, width, r.span)
	if err == nil {
		m.Executed = int64(p.L.N)
	}
	return m, err
}

// LevelClock receives per-wavefront-level executor time from a timed
// solve. Implementations must be safe for concurrent Add calls — the
// executor invokes the timed body from its worker goroutines.
// internal/obs.LevelClock is the serving tier's implementation.
type LevelClock interface {
	Add(level int32, ns int64)
}

// Bind returns the plan's batched solve entry point, which allocates
// nothing. The solver borrows the plan: a cached plan's lease must be
// held (the plan not Closed) for as long as the solver is in use.
func (p *Plan) Bind() *BatchSolver { return &p.solver }

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

// Solve runs one batched pass writing solution j to xs[j], with zero
// allocations on the success path: a column pass on a sequential plan or
// an adaptive plan that chose a parallel kind (see Plan.solve), else one
// scheduled pass of a pinned parallel kind, which reads every row's
// nonzeros once for all right-hand sides and pays the busy-waits and
// dispatch once, not k times. With k = 1 the arithmetic matches
// Plan.Solve exactly, so the results are bit-identical. Each xs[j] must
// not alias its bs[j] or any other vector in the batch (the parallel
// executors read b while writing x).
func (s *BatchSolver) Solve(ctx context.Context, xs, bs [][]float64) (executor.Metrics, error) {
	return s.SolveTimed(ctx, xs, bs, nil)
}

// SolveTimed is Solve with per-wavefront-level timing: a scheduled pass
// charges each scheduled index's runtime (a row for row-wise plans, a
// fused supernode for supernodal ones) to its level on clock, and a
// column pass, which has no levels, charges each participant's sweep to
// level 0; a nil clock is a plain Solve. The arithmetic is identical,
// and a warm timed solve allocates nothing, so level sampling at any
// rate keeps the serving warm path at 0 allocs/op.
func (s *BatchSolver) SolveTimed(ctx context.Context, xs, bs [][]float64, clock LevelClock) (executor.Metrics, error) {
	if err := s.p.checkBatch(xs, bs); err != nil {
		return executor.Metrics{}, err
	}
	return s.p.solve(ctx, take(), xs, bs, clock)
}
