package executor

import (
	"context"
	"time"

	"doconsider/internal/schedule"
	"doconsider/internal/wavefront"
)

// TimeBreakdown reports where the wall-clock time of a real (goroutine)
// parallel execution went, per simulated processor — the host-machine
// counterpart of the paper's §5.1.2 accounting. Busy is measured by
// wrapping the loop body with two clock reads; Waiting is everything else
// the processor did between starting its list and finishing it (its
// elapsed time minus Busy): dependence spins or barriers, plus the
// executor's own per-index dispatch. Absolute numbers carry that
// measurement overhead; use them for proportions, as the paper does.
type TimeBreakdown struct {
	P       int
	Total   time.Duration   // wall time of the whole run
	Busy    []time.Duration // per-processor time inside loop bodies
	Waiting []time.Duration // per-processor elapsed time outside loop bodies
}

// proc starts processor p's clocks on the calling goroutine: it returns
// body wrapped to accumulate Busy[p], and the function that closes the
// processor's account when its share of the run ends. On a nil breakdown
// — the untimed executors — body comes back unchanged.
func (bd *TimeBreakdown) proc(p int, body Body) (Body, func()) {
	if bd == nil {
		return body, func() {}
	}
	start := time.Now()
	timed := func(i int32) {
		b0 := time.Now()
		body(i)
		bd.Busy[p] += time.Since(b0)
	}
	return timed, func() { bd.Waiting[p] = time.Since(start) - bd.Busy[p] }
}

// timed runs one of the spawn-per-run executors with a breakdown attached.
// A body panic aborts the run and re-raises on the caller's goroutine.
func timed(procs int, run func(bd *TimeBreakdown) (Metrics, error)) (Metrics, TimeBreakdown) {
	bd := TimeBreakdown{
		P:       procs,
		Busy:    make([]time.Duration, procs),
		Waiting: make([]time.Duration, procs),
	}
	start := time.Now()
	m := MustMetrics(run(&bd))
	bd.Total = time.Since(start)
	return m, bd
}

// RunSelfExecutingTimed is the self-executing executor with per-processor
// busy/wait wall-time accounting.
func RunSelfExecutingTimed(s *schedule.Schedule, deps *wavefront.Deps, body Body) (Metrics, TimeBreakdown) {
	return timed(s.P, func(bd *TimeBreakdown) (Metrics, error) {
		return runSelfExecuting(context.Background(), s, deps, body, bd)
	})
}

// RunPreScheduledTimed is the pre-scheduled executor with per-processor
// busy/barrier wall-time accounting.
func RunPreScheduledTimed(s *schedule.Schedule, body Body) (Metrics, TimeBreakdown) {
	return timed(s.P, func(bd *TimeBreakdown) (Metrics, error) {
		return runPreScheduled(context.Background(), s, body, bd)
	})
}

// MaxWaiting returns the largest per-processor waiting share (waiting /
// (busy+waiting)), a load-imbalance indicator.
func (bd TimeBreakdown) MaxWaiting() float64 {
	worst := 0.0
	for p := 0; p < bd.P; p++ {
		tot := bd.Busy[p] + bd.Waiting[p]
		if tot == 0 {
			continue
		}
		if share := float64(bd.Waiting[p]) / float64(tot); share > worst {
			worst = share
		}
	}
	return worst
}
