package planner

import (
	"context"
	"runtime"
	"sync/atomic"
	"time"

	"doconsider/internal/executor"
	"doconsider/internal/schedule"
	"doconsider/internal/wavefront"
)

// Calibrate measures the host's planner cost constants with one-shot
// microbenchmarks: the dependent multiply-add chain (TDep), indirect
// loop-body dispatch (TRow), shared ready-array checks (TCheck),
// yield-and-recheck spin rounds (TSpin), and the fixed cost of waking a
// pooled worker set for an empty pass (TPass). The whole run is bounded
// to a few tens of milliseconds. Nothing calls it implicitly: a nil model
// always means Default, and a caller that wants host constants passes
// Calibrate's result to core.WithModel or trisolve.WithModel.
//
// Measurements on a loaded machine wobble, so consumers should rely on
// coarse ordering only; the selection thresholds the constants feed are
// order-of-magnitude decisions.
func Calibrate() *CostModel {
	m := Default()
	m.Parallelism = runtime.GOMAXPROCS(0)
	const iters = 1 << 16

	// TDep: dependent multiply-add chain, one flop pair per iteration.
	x := 1.0
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		x = x*0.999999 + 1e-9
	}
	if d := time.Since(t0).Seconds() / iters; d > 0 {
		m.TDep = d
	}
	sink = x

	// TRow: indirect call through a stored closure — the per-index body
	// dispatch every executor pays.
	body := bodySink
	t0 = time.Now()
	for i := 0; i < iters; i++ {
		body(int32(i))
	}
	if d := time.Since(t0).Seconds() / iters; d > 0 {
		m.TRow = d
	}

	// TCheck: shared ready-array check (atomic load + compare).
	var flag int32 = 1
	acc := int32(0)
	t0 = time.Now()
	for i := 0; i < iters; i++ {
		if atomic.LoadInt32(&flag) == 1 {
			acc++
		}
	}
	if d := time.Since(t0).Seconds() / iters; d > 0 {
		m.TCheck = d
	}
	sinkI = acc

	// TSpin: one not-ready round — check plus a scheduler yield.
	const spinIters = 1 << 12
	t0 = time.Now()
	for i := 0; i < spinIters; i++ {
		if atomic.LoadInt32(&flag) != 0 {
			runtime.Gosched()
		}
	}
	if d := time.Since(t0).Seconds() / spinIters; d > 0 {
		m.TSpin = d
	}

	// TPass: wake-and-retire cost of a pooled pass with next to no work.
	procs := runtime.GOMAXPROCS(0)
	if procs < 2 {
		procs = 2
	}
	wf := make([]int32, procs)
	s := schedule.Global(wf, procs)
	deps := wavefront.FromAdjacency(make([][]int32, procs))
	pooled := executor.New(executor.Pooled)
	noop := func(int32) {}
	if _, err := pooled.Run(context.Background(), s, deps, noop); err == nil {
		const passes = 64
		t0 = time.Now()
		for i := 0; i < passes; i++ {
			_, _ = pooled.Run(context.Background(), s, deps, noop)
		}
		if d := time.Since(t0).Seconds() / passes; d > 0 {
			m.TPass = d
		}
	}

	if err := m.Validate(); err != nil {
		// Timer too coarse or the host too hostile: fall back whole-hog
		// rather than mixing measured and default constants arbitrarily.
		return Default()
	}
	return m
}

// sinks keep the calibration loops from being optimized away.
var (
	sink     float64
	sinkI    int32
	bodySink = func(i int32) { sinkI += i }
)
