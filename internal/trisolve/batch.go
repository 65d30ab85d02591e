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
