package executor

import (
	"context"

	"doconsider/internal/schedule"
	"doconsider/internal/wavefront"
)

// RunSelfScheduled executes the wavefront-sorted index list with dynamic
// self-scheduling: instead of a static index-to-processor assignment, up
// to nproc participants claim fixed chunks of the sorted list from a
// shared counter, in the style of the self-scheduling work the paper
// compares against (Polychronopoulos & Kuck; Tang & Yew). Dependences are
// still enforced with the self-executing busy-wait mechanism, so the
// executor is correct for any chunk size; chunk >= 1.
//
// This is an extension beyond the paper's executors, included as the
// natural hybrid of its two synchronization mechanisms with the related
// work's dynamic load balancing; see the ablation benchmarks.
func RunSelfScheduled(order []int32, deps *wavefront.Deps, nproc, chunk int, body Body) Metrics {
	return MustMetrics(RunSelfScheduledCtx(context.Background(), order, deps, nproc, chunk, body))
}

// RunSelfScheduledCtx is RunSelfScheduled with cancellation support and
// panic capture: an abort releases every busy-waiting participant.
func RunSelfScheduledCtx(ctx context.Context, order []int32, deps *wavefront.Deps, nproc, chunk int, body Body) (Metrics, error) {
	return new(Executor).run(ctx, job{disc: byClaim, deps: deps, order: order, n: len(order), chunk: chunk, width: nproc, body: body})
}

// SortedOrder returns the wavefront-sorted index list of a schedule built
// on one processor — the canonical claim order for RunSelfScheduled.
func SortedOrder(wf []int32) []int32 {
	s := schedule.Global(wf, 1)
	return s.Proc(0)
}
