package core

import (
	"context"

	"doconsider/internal/executor"
)

// RunBatch executes several loop bodies over the prepared schedule in one
// scheduled pass: at each index i every body runs in turn before i is
// published as complete. All bodies must tolerate the dependence structure
// the Runtime was built for (each body's writes at index i may only be
// read by bodies at indices that depend on i). The point is amortization:
// k independent sweeps — say k right-hand sides of one triangular system —
// cost one executor dispatch, one ready-array pass and one set of
// busy-waits instead of k (the batched counterpart of §5.1.1).
//
// An empty batch performs no dispatch and returns zero Metrics. A body
// panic propagates to the caller; use RunBatchCtx to receive it as an
// error instead.
func (r *Runtime) RunBatch(bodies []executor.Body) executor.Metrics {
	return executor.MustMetrics(r.RunBatchCtx(context.Background(), bodies))
}

// RunBatchCtx is RunBatch with cancellation support: a cancelled context
// releases every worker and returns ctx.Err(); a panicking body yields a
// *executor.PanicError.
func (r *Runtime) RunBatchCtx(ctx context.Context, bodies []executor.Body) (executor.Metrics, error) {
	switch len(bodies) {
	case 0:
		return executor.Metrics{}, nil
	case 1:
		return r.exec.Run(ctx, r.sched, r.deps, bodies[0])
	}
	fused := func(i int32) {
		for _, b := range bodies {
			b(i)
		}
	}
	return r.exec.Run(ctx, r.sched, r.deps, fused)
}
