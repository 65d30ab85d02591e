package executor

import (
	"context"
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"doconsider/internal/schedule"
	"doconsider/internal/wavefront"
)

// Calibration is the host's cost per operation, in seconds, measured on
// real passes of the runner over the process's worker set: the raw
// material of the paper's §5.1.2 accounting (Tsynch, Tcheck, Tinc) and
// of the planner's cost model. Every pass is as wide as the runner
// grants, Width participants, and a per-index cost is one participant's.
type Calibration struct {
	Width int     // participants the passes got
	Flop  float64 // one multiply-add of a dependent chain
	Row   float64 // one index of a flags pass over independent rows: dispatch and its ready stamp
	Check float64 // one ready-check of a finished producer, over Row, in a flags pass over chains
	Synch float64 // one barrier of an empty-bodied pre-scheduled pass
	Pass  float64 // the fixed cost of one empty column pass
	Spin  float64 // one not-ready spin round: a check, an abort poll and a yield
}

// Calibrate measures the host's Calibration in a few milliseconds. The
// constants wobble between calls on a loaded host, so rely on their
// orderings, not their values.
func Calibrate() Calibration {
	const rows, deps, phases, passes, spins = 1 << 13, 16, 256, 64, 1 << 10
	var c Calibration
	c.Flop = fastest(1<<16, func() {
		x := 1.0
		for range 1 << 16 {
			x = x*0.999999 + 1e-9
		}
		runtime.KeepAlive(x) // a use of the chain, so it is not dropped
	})

	// The rows are dealt wrapped to w lists in one phase. In the chains
	// every index also depends on the deps indices before it in its own
	// list, so each check finds its producer finished and never waits.
	w := helpers.size + 1
	ctx, e := context.Background(), new(Executor)
	run := func(j job) func() {
		j.width, j.body = w, func(int32) {}
		return func() { m, _ := e.run(ctx, j); c.Width = m.P }
	}
	s := schedule.Global(make([]int32, rows), w)
	adj := make([][]int32, rows)
	for i := range adj {
		for d := 1; d <= deps && i-d*w >= 0; d++ {
			adj[i] = append(adj[i], int32(i-d*w))
		}
	}
	chains := wavefront.FromAdjacency(adj)
	row := fastest(rows, run(job{disc: byFlags, s: s, deps: wavefront.FromAdjacency(make([][]int32, rows))}))
	c.Row = row * float64(c.Width)
	chained := fastest(rows, run(job{disc: byFlags, s: s, deps: chains}))
	c.Check = (chained*float64(c.Width) - c.Row) * rows / float64(chains.Edges())

	wf := make([]int32, phases*w)
	for i := range wf {
		wf[i] = int32(i / w)
	}
	c.Synch = fastest(phases, run(job{disc: byBarrier, s: schedule.Global(wf, w)}))
	c.Pass = fastest(passes, func() {
		for range passes {
			_, _ = e.RunColumns(ctx, w, w, func(int, int, func() bool) {})
		}
	})
	var rc runControl
	rc.reset(ctx)
	var flag uint32 // never ready
	c.Spin = fastest(spins, func() {
		for range spins {
			if atomic.LoadUint32(&flag) == 1 || !rc.yield() {
				break
			}
		}
	})
	return c
}

// fastest returns the seconds per operation of the fastest of five runs
// of f, each of ops operations, so one stall of a loaded host does not
// become a constant.
func fastest(ops int, f func()) float64 {
	least := math.Inf(1)
	for range 5 {
		t0 := time.Now()
		f()
		least = min(least, time.Since(t0).Seconds())
	}
	return least / float64(ops)
}
