package executor

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"

	"doconsider/internal/barrier"
	"doconsider/internal/wavefront"
)

// PanicError wraps a panic raised by a loop body during a run. The first
// panic wins; the run is aborted and all workers released.
type PanicError struct{ Value any }

// Error describes the wrapped panic.
func (e *PanicError) Error() string { return fmt.Sprintf("executor: loop body panicked: %v", e.Value) }

// ErrWorkerExited reports that a loop body terminated its worker goroutine
// outright (runtime.Goexit — e.g. t.FailNow inside a test body). The run
// is aborted like a panic, surfacing as a *PanicError wrapping this value,
// and no peer is left waiting on the vanished worker.
var ErrWorkerExited = errors.New("executor: loop body terminated its worker goroutine (runtime.Goexit)")

// runControl coordinates abort across the participants of one run: a body panic
// or a context cancellation raises the abort flag, which every spin loop
// and per-index step observes, so no worker is left busy-waiting on a
// producer that will never publish.
type runControl struct {
	done     <-chan struct{} // ctx.Done(); nil when the context cannot be cancelled
	aborted  atomic.Uint32
	panicked atomic.Uint32
	panicVal any // written by the CAS winner in recordPanic, read after all workers exit
}

func (rc *runControl) reset(ctx context.Context) {
	rc.done = ctx.Done()
	rc.aborted.Store(0)
	rc.panicked.Store(0)
	rc.panicVal = nil
}

func (rc *runControl) isAborted() bool { return rc.aborted.Load() != 0 }

// stop reports whether the run should terminate, promoting a context
// cancellation into the shared abort flag so peers see it cheaply.
func (rc *runControl) stop() bool {
	if rc.aborted.Load() != 0 {
		return true
	}
	if rc.done == nil {
		return false
	}
	select {
	case <-rc.done:
		rc.aborted.Store(1)
		return true
	default:
		return false
	}
}

// spin busy-waits until flag carries epoch, yielding between checks; it
// returns false if the run aborted while waiting.
func (rc *runControl) spin(flag *uint32, epoch uint32) bool {
	for atomic.LoadUint32(flag) != epoch {
		if rc.stop() {
			return false
		}
		runtime.Gosched()
	}
	return true
}

func (rc *runControl) recordPanic(v any) {
	if rc.panicked.CompareAndSwap(0, 1) {
		rc.panicVal = v
	}
	rc.aborted.Store(1)
}

// err resolves the run outcome after every participant has returned: a
// body panic takes precedence over a cancellation.
func (rc *runControl) err(ctx context.Context) error {
	if rc.panicked.Load() != 0 {
		return &PanicError{Value: rc.panicVal}
	}
	return ctx.Err()
}

// tally folds the per-participant counters of one run into its Metrics.
type tally struct{ executed, checks, waits atomic.Int64 }

func (t *tally) add(ran, checks, waits int64) {
	t.executed.Add(ran)
	t.checks.Add(checks)
	t.waits.Add(waits)
}

func (t *tally) metrics(procs int) Metrics {
	return Metrics{P: procs, Executed: t.executed.Load(), SpinChecks: t.checks.Load(), SpinWaits: t.waits.Load()}
}

// runList is the package's one busy-wait loop (paper Figure 4, lines
// 3a-3c): for each index of idxs in order it waits until every dependence
// carries epoch in done, runs the body and stamps the index. A pass bumps
// the epoch instead of clearing the array. The flags and claim disciplines
// call it once per processor list segment or claimed chunk, so the
// counters stay in locals. ok is false when the run aborted before the
// list finished; a body panic unwinds through runList to the
// participant's guard.
func runList(rc *runControl, idxs []int32, deps *wavefront.Deps, done []uint32, epoch uint32, body Body) (ran, checks, waits int64, ok bool) {
	for _, i := range idxs {
		if rc.stop() {
			return ran, checks, waits, false
		}
		for _, t := range deps.On(int(i)) {
			checks++
			if atomic.LoadUint32(&done[t]) == epoch {
				continue
			}
			waits++
			if !rc.spin(&done[t], epoch) {
				return ran, checks, waits, false
			}
		}
		body(i)
		ran++
		atomic.StoreUint32(&done[i], epoch)
	}
	return ran, checks, waits, true
}

// runPhase executes one processor's segment of one phase under the
// barrier discipline and returns the number of bodies run; a panic unwinds
// to the participant's barrierGuard.
func runPhase(rc *runControl, idxs []int32, body Body) (ran int64) {
	for _, i := range idxs {
		if rc.stop() {
			break
		}
		body(i)
		ran++
	}
	return ran
}

// barrierGuard keeps a participant's barrier discipline when its body
// panics or kills the goroutine (runtime.Goexit) mid-phase: the
// participant must still arrive at every remaining phase barrier, or its
// peers block there forever. The participant bumps attended after each
// barrier it passes and sets completed before returning; the deferred
// check records the abort cause and attends the rest on its behalf.
type barrierGuard struct {
	rc        *runControl
	bar       *barrier.SenseReversing
	phases    int
	attended  int
	completed bool
}

func (g *barrierGuard) check() {
	if r := recover(); r != nil {
		g.rc.recordPanic(r)
	} else if g.completed {
		return
	} else {
		g.rc.recordPanic(ErrWorkerExited)
	}
	for ; g.attended < g.phases; g.attended++ {
		g.bar.Wait()
	}
}
