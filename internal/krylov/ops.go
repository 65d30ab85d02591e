package krylov

import (
	"context"
	"math"

	"doconsider/internal/executor"
	"doconsider/internal/sparse"
	"doconsider/internal/vec"
)

// blockRows is the fixed block of a solve's vector operations and matvec.
// A pass runs whole blocks, and a reduction sums each block with vec.Dot
// and then the block partials in block order, so a solve's bits depend on
// neither Options.Procs, the width a loaded host grants a pass, nor the
// executor discipline. A vector of at most blockRows rows is one block,
// reduced exactly as vec.Dot reduces it.
const blockRows = 4096

// ops runs one solve's inner products, SAXPYs and matvecs, each as one
// column pass over the row blocks on the executor's shared worker set.
// The spans are method values bound once and a pass's operands live in
// the fields, so a warm pass allocates nothing. An ops is not safe for
// concurrent use.
type ops struct {
	exec    *executor.Executor
	a       *sparse.CSR
	width   int       // the most participants a pass may use
	partial []float64 // one inner-product partial per block

	alpha                     float64 // axpy's scale
	x, y                      []float64
	dotSpan, axpySpan, mvSpan executor.Span
}

// newOps returns the ops of one solve of the square a whose passes are at
// most procs wide, after checking that every vector in vs has a's order.
func newOps(a *sparse.CSR, procs int, vs ...[]float64) (*ops, error) {
	if a.M != a.N {
		return nil, sparse.ErrShape
	}
	for _, v := range vs {
		if len(v) != a.N {
			return nil, sparse.ErrShape
		}
	}
	blocks := (a.N + blockRows - 1) / blockRows
	o := &ops{exec: executor.New(executor.Pooled), a: a, width: min(procs, blocks), partial: make([]float64, blocks)}
	o.dotSpan, o.axpySpan, o.mvSpan = o.dotBlocks, o.axpyBlocks, o.mvBlocks
	return o, nil
}

// run runs span over every block as one column pass; a panicking span
// re-panics on the caller.
func (o *ops) run(span executor.Span) {
	executor.MustMetrics(o.exec.RunColumns(context.Background(), len(o.partial), o.width, span))
}

// rows returns the rows of blocks lo..hi-1.
func (o *ops) rows(lo, hi int) (int, int) { return lo * blockRows, min(hi*blockRows, o.a.N) }

// dot returns the inner product of x and y.
func (o *ops) dot(x, y []float64) float64 {
	o.x, o.y = x, y
	o.run(o.dotSpan)
	s := 0.0
	for _, p := range o.partial {
		s += p
	}
	return s
}

// norm2 returns the Euclidean norm of x.
func (o *ops) norm2(x []float64) float64 { return math.Sqrt(o.dot(x, x)) }

// axpy computes y += alpha*x.
func (o *ops) axpy(alpha float64, x, y []float64) {
	o.alpha, o.x, o.y = alpha, x, y
	o.run(o.axpySpan)
}

// matVec computes y = A*x.
func (o *ops) matVec(y, x []float64) {
	o.x, o.y = x, y
	o.run(o.mvSpan)
}

func (o *ops) dotBlocks(lo, hi int, _ func() bool) {
	for k := lo; k < hi; k++ {
		r0, r1 := o.rows(k, k+1)
		o.partial[k] = vec.Dot(o.x[r0:r1], o.y[r0:r1])
	}
}

func (o *ops) axpyBlocks(lo, hi int, _ func() bool) {
	r0, r1 := o.rows(lo, hi)
	vec.Axpy(o.alpha, o.x[r0:r1], o.y[r0:r1])
}

func (o *ops) mvBlocks(lo, hi int, _ func() bool) {
	r0, r1 := o.rows(lo, hi)
	o.a.MatVecRows(o.y, o.x, r0, r1)
}
