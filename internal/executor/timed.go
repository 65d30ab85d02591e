package executor

import (
	"context"
	"time"

	"doconsider/internal/schedule"
	"doconsider/internal/wavefront"
)

// TimeBreakdown reports where the wall-clock time of a real parallel
// execution went, per participant of the pass — the host-machine
// counterpart of the paper's §5.1.2 accounting. P is the pass's width,
// like Metrics.P: a schedule of more processor lists than the shared
// worker set can staff runs them on fewer participants. Busy is measured
// by wrapping the loop body with two clock reads; Waiting is everything
// else the participant did between starting its share and finishing it
// (its elapsed time minus Busy): dependence spins or barriers, plus the
// executor's own per-index dispatch. Absolute numbers carry that
// measurement overhead; use them for proportions, as the paper does.
type TimeBreakdown struct {
	P       int
	Total   time.Duration   // wall time of the whole run
	Busy    []time.Duration // per-participant time inside loop bodies
	Waiting []time.Duration // per-participant elapsed time outside loop bodies
}

// proc starts participant p's clocks on the calling goroutine: it returns
// body wrapped to accumulate Busy[p], and the function that closes the
// participant's account when its share of the run ends.
func (bd *TimeBreakdown) proc(p int, body Body) (Body, func()) {
	start := time.Now()
	timed := func(i int32) {
		b0 := time.Now()
		body(i)
		bd.Busy[p] += time.Since(b0)
	}
	return timed, func() { bd.Waiting[p] = time.Since(start) - bd.Busy[p] }
}

// timed runs j with a breakdown sized for its widest pass attached and
// trimmed to the width the pass got. A body panic aborts the run and
// re-raises on the caller's goroutine.
func timed(j job) (Metrics, TimeBreakdown) {
	bd := TimeBreakdown{
		Busy:    make([]time.Duration, j.width),
		Waiting: make([]time.Duration, j.width),
	}
	j.bd = &bd
	start := time.Now()
	m := MustMetrics(new(Executor).run(context.Background(), j))
	bd.Total = time.Since(start)
	bd.P, bd.Busy, bd.Waiting = m.P, bd.Busy[:m.P], bd.Waiting[:m.P]
	return m, bd
}

// RunSelfExecutingTimed is the self-executing executor (the flags
// discipline) with per-participant busy/wait wall-time accounting.
func RunSelfExecutingTimed(s *schedule.Schedule, deps *wavefront.Deps, body Body) (Metrics, TimeBreakdown) {
	return timed(job{disc: byFlags, s: s, deps: deps, width: s.P, body: body})
}

// RunPreScheduledTimed is the pre-scheduled executor (the barrier
// discipline) with per-participant busy/barrier wall-time accounting.
func RunPreScheduledTimed(s *schedule.Schedule, body Body) (Metrics, TimeBreakdown) {
	m, bd := timed(job{disc: byBarrier, s: s, width: s.P, body: body})
	m.Phases = s.NumPhases
	return m, bd
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
