package trisolve

import (
	"context"
	"fmt"

	"doconsider/internal/executor"
	"doconsider/internal/sparse"
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
	r := take(p.L, nil, nil)
	r.one[0][0], r.one[1][0] = x, b
	r.own[0].Xs, r.own[0].Bs = r.one[0][:], r.one[1][:]
	return p.solve(ctx, r, nil)
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

// BatchProblem couples one triangular factor with the right-hand sides to
// solve against it and the vectors receiving the solutions. It is the unit
// of cross-request fusion: members of one group share the plan's sparsity
// structure (and therefore its wavefronts and schedule) while carrying
// their own numeric values.
type BatchProblem struct {
	L      *sparse.CSR // same sparsity pattern as the plan's factor
	Xs, Bs [][]float64 // len(Xs) == len(Bs); one solution per RHS
}

// SolveGroupCtx solves every member's systems in one pass. Each member's
// factor must have exactly the sparsity pattern of the plan's factor
// (checked via StructureFingerprint) but may carry different values: the
// group shares the inspector output and the pass's dispatch while each
// member solves with its own numbers. A group of two or more members runs
// as a column pass over all members' columns (see Plan.solve); a member
// alone is SolveBatch with its values. Per member the arithmetic matches
// SolveBatch on that member alone (same operations in the same order), so
// results are bit-identical to unfused solves. A cancelled context
// releases every worker and returns ctx.Err().
func (p *Plan) SolveGroupCtx(ctx context.Context, group []BatchProblem) (executor.Metrics, error) {
	if len(group) == 0 {
		return executor.Metrics{}, nil
	}
	fp := p.L.StructureFingerprint()
	for g := range group {
		m := &group[g]
		if m.L.N != p.L.N || m.L.StructureFingerprint() != fp {
			return executor.Metrics{}, fmt.Errorf("trisolve: group member %d does not share the plan's sparsity structure", g)
		}
		if err := p.checkBatch(m.Xs, m.Bs); err != nil {
			return executor.Metrics{}, fmt.Errorf("group member %d: %w", g, err)
		}
	}
	r := take(nil, nil, nil)
	r.group = group
	return p.solve(ctx, r, nil)
}
