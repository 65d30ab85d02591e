package executor

import (
	"context"
	"sync/atomic"
)

// RunOnTheFly executes a loop whose dependences cannot be inspected before
// execution begins — the "not start-time schedulable" class the paper
// defers to its dodynamic companion work (reference [11]). Iterations are
// claimed in natural order from a shared counter; each iteration's
// dependences are discovered by calling depsOf(i) at execution time, and
// busy waits ensure producers complete first.
//
// depsOf must return iteration numbers strictly smaller than i (backward
// dependences), which guarantees progress under the natural claim order.
// The returned slice is only read and may alias storage reused across
// calls on the same processor.
func RunOnTheFly(n, nproc int, depsOf func(i int32) []int32, body Body) Metrics {
	return MustMetrics(RunOnTheFlyCtx(context.Background(), n, nproc, depsOf, body))
}

// RunOnTheFlyCtx is RunOnTheFly with cancellation support and panic
// capture: an abort releases every busy-waiting worker. With no inspected
// structure to hand runList, this is the package's one other busy-wait
// loop; it shares the scaffold and the spin.
func RunOnTheFlyCtx(ctx context.Context, n, nproc int, depsOf func(i int32) []int32, body Body) (Metrics, error) {
	var rc runControl
	done := make([]uint32, n)
	var cursor atomic.Int64
	return fanOut(ctx, &rc, max(nproc, 1), func(int) (ran, checks, waits int64) {
		for !rc.stop() {
			i := int32(cursor.Add(1)) - 1
			if int(i) >= n {
				break
			}
			for _, t := range depsOf(i) {
				checks++
				if atomic.LoadUint32(&done[t]) == 1 {
					continue
				}
				waits++
				if !rc.spin(&done[t], 1) {
					return
				}
			}
			body(i)
			ran++
			atomic.StoreUint32(&done[i], 1)
		}
		return
	})
}
