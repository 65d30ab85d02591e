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
// installed right-hand side the row's stored entries are accumulated in
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

	xs, bs [][]float64 // per-pass, installed by the solve entry points
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

// row performs iteration k for every installed right-hand side.
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

// groupRow is row for a group of structurally identical factors: the
// same loop with a member loop around the right-hand-side loop, each
// member bringing its own values and so its own diagonal. It exists
// beside row only because the extra loop level costs a single-member
// pass 9–22 % on row-wise plans.
func (kn *kernel) groupRow(group []BatchProblem, k int32) {
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
		d := invDiag(cols, vals, r)
		for j, x := range m.Xs {
			acc := m.Bs[j][r]
			for q, c := range cols {
				if c != r {
					acc -= float64(vals[q] * x[c])
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

// BatchSolver is a plan's bound solve state, built in O(1): the kernel
// over the plan's factor and the executor bodies that sweep it over the
// plan's schedule, so repeated solves allocate nothing.
//
// A batch of two or more right-hand sides on an adaptive plan whose
// inspection chose a parallel kind runs as a column pass (see columns),
// which installs nothing here, so such passes on one plan run at once.
// Every other pass — single vectors, pinned kinds, sequential decisions
// and first sights, coalesced groups — installs its vectors into kernel
// fields read by the bound bodies under a mutex, which serializes those
// passes on one plan.
type BatchSolver struct {
	kernel
	p     *Plan
	split bool // adaptive, parallel kind: batches run as column passes

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

// colPass is one column pass's state: the kernel over the whole batch and
// the clock it charges. Its span is bound once and records are recycled
// through colPasses, so a warm column pass allocates nothing.
type colPass struct {
	kernel
	clock LevelClock
	span  executor.Span
}

var colPasses = sync.Pool{New: func() any {
	c := new(colPass)
	c.span = c.sweep
	return c
}}

// columns runs the batch as a column pass on at most width participants:
// each solves a contiguous span of the columns with the plain sequential
// loop — kernel.row for k = 0..n-1, the order of ForwardSeq and
// BackwardSeq — reading each row once for its span. No column waits on
// another, so every column is the sequential loop's result by
// construction, and passes on one plan share nothing.
func (s *BatchSolver) columns(ctx context.Context, xs, bs [][]float64, clock LevelClock, width int) (executor.Metrics, error) {
	c := colPasses.Get().(*colPass)
	c.kernel, c.clock = newKernel(s.p.L, s.p.Lower), clock
	c.xs, c.bs = xs, bs
	m, err := s.p.exec.RunColumns(ctx, len(xs), width, c.span)
	if err == nil {
		m.Executed = int64(s.p.L.N)
	}
	c.kernel, c.clock = kernel{}, nil
	colPasses.Put(c)
	return m, err
}

// sweep is one participant's span: the sequential loop over columns
// lo..hi-1 on a kernel view of its own, polling stop every 256 rows. A
// timed sweep is charged to level 0, as an uninspected pass is.
func (c *colPass) sweep(lo, hi int, stop func() bool) {
	kn, t0 := c.kernel, time.Now()
	kn.xs, kn.bs = kn.xs[lo:hi], kn.bs[lo:hi]
	for k := int32(0); k <= kn.last; k++ {
		if k%256 == 0 && stop() {
			return
		}
		kn.row(k)
	}
	if c.clock != nil {
		c.clock.Add(0, time.Since(t0).Nanoseconds())
	}
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
		s := &BatchSolver{kernel: newKernel(p.L, p.Lower), p: p,
			split: p.Decision != nil && p.Kind != executor.Sequential}
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
// plain Solve. A column pass has no levels: each participant's sweep is
// charged to level 0. The arithmetic is identical — the timed body wraps
// the same bound body. The first timed solve on a solver builds the
// wrapper (one allocation, once); every later call allocates nothing, so
// level sampling at any rate keeps the serving warm path at 0 allocs/op.
func (s *BatchSolver) SolveTimed(ctx context.Context, xs, bs [][]float64, clock LevelClock) (executor.Metrics, error) {
	if err := s.p.checkBatch(xs, bs); err != nil {
		return executor.Metrics{}, err
	}
	if len(xs) == 0 {
		return executor.Metrics{}, nil
	}
	if s.split && len(xs) >= 2 {
		return s.columns(ctx, xs, bs, clock, min(len(xs), s.p.Sched.P))
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
