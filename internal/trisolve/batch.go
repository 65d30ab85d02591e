package trisolve

import (
	"context"
	"fmt"

	"doconsider/internal/executor"
)

// Solve executes the planned triangular solve, writing the solution to x.
// x and b must not alias (the parallel executors read b while writing x).
func (p *Plan) Solve(x, b []float64) executor.Metrics {
	m, err := p.SolveCtx(context.Background(), x, b)
	return executor.MustMetrics(m, err)
}

// SolveCtx is Solve with cancellation support: a cancelled context
// releases every worker and returns ctx.Err().
func (p *Plan) SolveCtx(ctx context.Context, x, b []float64) (executor.Metrics, error) {
	if n := p.L.N; len(x) != n || len(b) != n {
		return executor.Metrics{}, fmt.Errorf("trisolve: vectors have length %d/%d, want %d", len(x), len(b), n)
	}
	r := take()
	r.one[0][0], r.one[1][0] = x, b
	return p.solve(ctx, r, r.one[0][:], r.one[1][:], nil)
}

// SolveBatch solves the planned triangular system for len(xs) right-hand
// sides in one pass, writing solution j to xs[j]: a column pass on a
// sequential plan or an adaptive plan that chose a parallel kind (see
// Plan.solve), else one scheduled pass of a pinned parallel kind, which
// reads every row's nonzeros once for all right-hand sides and pays the
// busy-waits and dispatch once, not k times.
// Each xs[j] must not alias its bs[j] or any other vector in the batch.
// With k = 1 the arithmetic matches Solve exactly (same operations in the
// same order), so the results are bit-identical.
func (p *Plan) SolveBatch(xs, bs [][]float64) (executor.Metrics, error) {
	return p.SolveBatchCtx(context.Background(), xs, bs)
}

// SolveBatchCtx is SolveBatch with cancellation support: a cancelled
// context releases every worker and returns ctx.Err().
func (p *Plan) SolveBatchCtx(ctx context.Context, xs, bs [][]float64) (executor.Metrics, error) {
	return p.Bind().Solve(ctx, xs, bs)
}
