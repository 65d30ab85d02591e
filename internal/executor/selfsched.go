package executor

import (
	"context"
	"sync/atomic"

	"doconsider/internal/schedule"
	"doconsider/internal/wavefront"
)

// RunSelfScheduled executes the wavefront-sorted index list with dynamic
// self-scheduling: instead of a static index-to-processor assignment,
// workers claim chunks of the sorted list from a shared counter, in the
// style of the guided self-scheduling work the paper compares against
// (Polychronopoulos & Kuck; Tang & Yew). Dependences are still enforced
// with the self-executing busy-wait mechanism, so the executor is correct
// for any chunk size; chunk >= 1.
//
// This is an extension beyond the paper's executors, included as the
// natural hybrid of its two synchronization mechanisms with the related
// work's dynamic load balancing; see the ablation benchmarks.
func RunSelfScheduled(order []int32, deps *wavefront.Deps, nproc, chunk int, body Body) Metrics {
	return MustMetrics(RunSelfScheduledCtx(context.Background(), order, deps, nproc, chunk, body))
}

// RunSelfScheduledCtx is RunSelfScheduled with cancellation support and
// panic capture: an abort releases every busy-waiting worker.
func RunSelfScheduledCtx(ctx context.Context, order []int32, deps *wavefront.Deps, nproc, chunk int, body Body) (Metrics, error) {
	chunk = max(chunk, 1)
	n := len(order)
	var cursor atomic.Int64
	// Fixed chunks claim with a single wait-free fetch-add — the claim
	// primitive itself is part of what the chunk-size ablations measure.
	return runClaimed(ctx, order, deps, nproc, body, func() (lo, hi int) {
		lo = int(cursor.Add(int64(chunk))) - chunk
		return lo, min(lo+chunk, n)
	})
}

// runClaimed fans out nproc workers that claim [lo, hi) slices of the
// order list via claim — an empty slice means the list is drained — and
// run each through the busy-wait list loop.
func runClaimed(ctx context.Context, order []int32, deps *wavefront.Deps, nproc int, body Body, claim func() (lo, hi int)) (Metrics, error) {
	var rc runControl
	done := make([]uint32, deps.N)
	return fanOut(ctx, &rc, max(nproc, 1), func(int) (ran, checks, waits int64) {
		for {
			lo, hi := claim()
			if lo >= hi {
				return
			}
			r, c, w, ok := runList(&rc, order[lo:hi], deps, done, 1, body)
			ran, checks, waits = ran+r, checks+c, waits+w
			if !ok {
				return
			}
		}
	})
}

// SortedOrder returns the wavefront-sorted index list of a schedule built
// on one processor — the canonical claim order for RunSelfScheduled.
func SortedOrder(wf []int32) []int32 {
	s := schedule.Global(wf, 1)
	return s.Proc(0)
}

// RunGuidedSelfScheduled executes the sorted index list with guided
// self-scheduling (Polychronopoulos & Kuck, the paper's reference [16]):
// each free worker claims ceil(remaining/P) indices, so chunks shrink as
// the loop drains — large chunks amortize claiming overhead early, small
// chunks balance the tail. Dependences are enforced with busy waits as in
// RunSelfScheduled; minChunk bounds the final chunk size (>= 1).
func RunGuidedSelfScheduled(order []int32, deps *wavefront.Deps, nproc, minChunk int, body Body) Metrics {
	return MustMetrics(RunGuidedSelfScheduledCtx(context.Background(), order, deps, nproc, minChunk, body))
}

// RunGuidedSelfScheduledCtx is RunGuidedSelfScheduled with cancellation
// support and panic capture.
func RunGuidedSelfScheduledCtx(ctx context.Context, order []int32, deps *wavefront.Deps, nproc, minChunk int, body Body) (Metrics, error) {
	nproc = max(nproc, 1)
	n := len(order)
	var cursor atomic.Int64
	// Guided chunks depend on the remaining count, so claiming needs a CAS
	// loop: ceil(remaining/P), floored at minChunk. A failed CAS means a
	// peer claimed, so the loop is bounded by the list length.
	return runClaimed(ctx, order, deps, nproc, body, func() (lo, hi int) {
		for {
			cur := cursor.Load()
			lo = min(int(cur), n)
			chunk := max((n-lo+nproc-1)/nproc, minChunk, 1)
			hi = min(lo+chunk, n)
			if lo == hi || cursor.CompareAndSwap(cur, int64(hi)) {
				return lo, hi
			}
		}
	})
}
