// Package executor implements the paper's transformed loop structures: the
// pre-scheduled executor, which separates consecutive wavefronts with
// global synchronizations (Figure 5), and the self-executing executor,
// which replaces barriers with busy waits on a shared ready array
// (Figure 4). A doacross baseline — the self-executing mechanism over the
// original, unsorted index order — a sequential reference, and a pooled
// executor that runs on the process's one shared set of helper goroutines
// are also provided.
//
// An executor runs a user loop body once per loop index. The body receives
// the index to execute; any data (solution vectors, matrices, indirection
// arrays) is captured in the closure. Bodies for distinct indices in the
// same wavefront run concurrently, so they must only write state owned by
// their own index.
//
// One Executor type runs all five kinds, and the package holds each
// mechanism once: runList is the only busy-wait loop over an inspected
// dependence structure (pooled, self-executing, doacross, the claimed
// chunks of the self-scheduled variants and the timed run all call it),
// fanOut the only spawn-per-run scaffold, and the shared worker set the
// only goroutines that outlive a run: GOMAXPROCS(0)-1 helpers started
// with the package. A pooled pass runs on the calling goroutine plus the
// helpers idle at dispatch, so the process's parked goroutines do not
// grow with the number of pooled executors. Every context-aware entry point
// guarantees that a cancelled context, a panicking loop body or a body
// that kills its goroutine releases every busy-waiting worker instead of
// deadlocking the run.
package executor

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"doconsider/internal/barrier"
	"doconsider/internal/schedule"
	"doconsider/internal/wavefront"
)

// Body is a loop body: it performs the work of loop index i.
type Body func(i int32)

// Kind names an execution strategy.
type Kind int

const (
	// Sequential executes indices 0..n-1 in order on one processor.
	Sequential Kind = iota
	// PreScheduled executes wavefront phases separated by barriers.
	PreScheduled
	// SelfExecuting busy-waits on a shared ready array instead of barriers.
	SelfExecuting
	// DoAcross is SelfExecuting over the natural (unsorted) index order.
	DoAcross
	// Pooled is SelfExecuting on the process's shared worker set: the
	// caller works as participant 0 and borrows the helpers idle at
	// dispatch, each running its processor lists phase by phase, so
	// repeated runs of a prepared schedule pay no spawn or allocation cost
	// (the paper's amortization argument, §5.1.1, applied to the runtime
	// itself). The width is observed, never set: under load a pass runs
	// narrower, down to the caller alone.
	Pooled
)

// String returns the executor name as used in the paper.
func (k Kind) String() string {
	switch k {
	case Sequential:
		return "sequential"
	case PreScheduled:
		return "pre-scheduled"
	case SelfExecuting:
		return "self-executing"
	case DoAcross:
		return "doacross"
	case Pooled:
		return "pooled"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// KindByName resolves a kind from its name — the inverse of Kind.String.
func KindByName(name string) (Kind, error) {
	for _, k := range []Kind{Sequential, PreScheduled, SelfExecuting, DoAcross, Pooled} {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("executor: unknown kind %q", name)
}

// Metrics reports per-run execution accounting, the experimental raw
// material of §5.1.2 ("Where Does the Time Go"). On an aborted run (non-nil
// error) the counters are lower bounds: a worker whose body panicked or
// killed its goroutine reports nothing.
type Metrics struct {
	P          int   // processors (a pooled pass: its width)
	Phases     int   // barrier phases executed (pre-scheduled only)
	Executed   int64 // loop bodies run
	SpinChecks int64 // shared-array reads while busy-waiting (self-exec)
	SpinWaits  int64 // dependences that were not ready on first check
}

// MustMetrics unwraps a Run result for non-context entry points: with an
// uncancellable context the only possible error is a body panic, which is
// re-raised on the caller's goroutine; any other error (a cancelled
// context) also panics.
func MustMetrics(m Metrics, err error) Metrics {
	if err == nil {
		return m
	}
	var pe *PanicError
	if errors.As(err, &pe) {
		panic(pe.Value)
	}
	panic(err)
}

// Executor runs prepared schedules under one Kind. The stateless kinds
// hold nothing between runs; Pooled keeps its run state (the ready array)
// and DoAcross its natural-order schedule. Run is safe for concurrent use
// — leased plans of one cached skeleton share an Executor — and pooled
// runs on one Executor serialize. There is nothing to release.
type Executor struct {
	kind Kind

	mu   sync.Mutex         // held across a pooled run; guards nat
	nat  *schedule.Schedule // DoAcross: natural order for the last schedule's shape
	pass *pass              // Pooled
}

// New returns an executor of the given kind.
func New(kind Kind) *Executor {
	e := &Executor{kind: kind}
	if kind == Pooled {
		e.pass = &pass{crew: make([]*helper, 0, helpers.size)}
	}
	return e
}

// Run executes body once per index of the schedule. Sequential uses only
// s.N and DoAcross only s.N and s.P (it runs the natural order whatever
// order s holds); deps may be nil for the kinds that do not synchronize on
// dependences (Sequential, PreScheduled). Run returns ctx.Err() if the
// run was cancelled and a *PanicError if a loop body panicked; in both
// cases every worker has been released before Run returns.
func (e *Executor) Run(ctx context.Context, s *schedule.Schedule, deps *wavefront.Deps, body Body) (Metrics, error) {
	switch e.kind {
	case Sequential:
		return runSolo(ctx, s.N, body)
	case PreScheduled:
		return runPreScheduled(ctx, s, body, nil)
	case SelfExecuting:
		return runSelfExecuting(ctx, s, deps, body, nil)
	case DoAcross:
		// §5.1.2: "the self-executing loop is a doacross loop with a
		// reordered index set" — so doacross is that loop over the
		// original order, striped across the processors.
		e.mu.Lock()
		if e.nat == nil || e.nat.N != s.N || e.nat.P != s.P {
			e.nat = schedule.Natural(s.N, s.P, schedule.Striped)
		}
		nat := e.nat
		e.mu.Unlock()
		return runSelfExecuting(ctx, nat, deps, body, nil)
	case Pooled:
		// A single phase with dependences is a natural order (or another
		// unsorted one): lists wait on each other inside the phase, which
		// phase-major sharing at a width below P could deadlock, so it runs
		// one goroutine per list like SelfExecuting.
		if s.NumPhases == 1 && deps.Edges() > 0 {
			return runSelfExecuting(ctx, s, deps, body, nil)
		}
		e.mu.Lock()
		defer e.mu.Unlock()
		return e.pass.run(ctx, s, deps, body)
	}
	return Metrics{}, fmt.Errorf("executor: unknown kind %v", e.kind)
}

// RunCtx is a one-shot New(kind).Run; hold an Executor (or a core.Runtime)
// to amortize a pooled executor's ready array across runs.
func RunCtx(ctx context.Context, kind Kind, s *schedule.Schedule, deps *wavefront.Deps, body Body) (Metrics, error) {
	return New(kind).Run(ctx, s, deps, body)
}

// Run is RunCtx without cancellation; a body panic propagates to the caller.
func Run(kind Kind, s *schedule.Schedule, deps *wavefront.Deps, body Body) Metrics {
	return MustMetrics(RunCtx(context.Background(), kind, s, deps, body))
}

// RunSequential executes body for i = 0..n-1 in order.
func RunSequential(n int, body Body) Metrics {
	return MustMetrics(runSolo(context.Background(), n, body))
}

// runSolo is the one sequential loop: body for i = 0..n-1 on the calling
// goroutine, with cancellation checks and panic capture. The loop is
// written directly (not over an iter.Seq): a range-over-func loop body is
// a closure over the function's locals, which heap-allocates on every
// call — garbage the serving warm path is gated against.
func runSolo(ctx context.Context, n int, body Body) (m Metrics, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r}
		}
	}()
	done := ctx.Done()
	executed := int64(0)
	for i := int32(0); int(i) < n; i++ {
		if done != nil {
			select {
			case <-done:
				return Metrics{P: 1, Executed: executed}, ctx.Err()
			default:
			}
		}
		body(i)
		executed++
	}
	return Metrics{P: 1, Executed: executed}, nil
}

// runOneProc is the one-processor case of the spawn-per-run executors:
// the processor's whole list runs as a single phase on the calling
// goroutine, so the local order itself must be executable.
func runOneProc(ctx context.Context, s *schedule.Schedule, body Body, bd *TimeBreakdown) (m Metrics, err error) {
	var rc runControl
	rc.reset(ctx)
	body, stop := bd.proc(0, body)
	defer stop()
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r}
		}
	}()
	return Metrics{P: 1, Executed: runPhase(&rc, s.Proc(0), body)}, rc.err(ctx)
}

// runPhase executes one processor's share of one phase and returns the
// number of bodies run; a panic unwinds to the worker's barrierGuard.
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

// runPreScheduled executes the schedule with one goroutine per processor
// and a global synchronization between consecutive phases (paper Figure 5:
// the NEWPHASE flag becomes a phase loop around a reusable barrier).
// Workers that observe an abort stop executing bodies but keep arriving at
// every remaining barrier, so the phase structure unwinds without
// deadlock. bd, when non-nil, receives the per-processor time accounting.
func runPreScheduled(ctx context.Context, s *schedule.Schedule, body Body, bd *TimeBreakdown) (m Metrics, err error) {
	if s.P == 1 {
		m, err = runOneProc(ctx, s, body, bd)
	} else {
		var rc runControl
		bar := barrier.NewSenseReversing(s.P)
		m, err = fanOut(ctx, &rc, s.P, func(p int) (ran, _, _ int64) {
			body, stop := bd.proc(p, body)
			defer stop()
			g := barrierGuard{rc: &rc, bar: bar, phases: s.NumPhases}
			defer g.check()
			for k := 0; k < s.NumPhases; k++ {
				if !rc.isAborted() {
					ran += runPhase(&rc, s.Phase(p, k), body)
				}
				bar.Wait()
				g.attended++
			}
			g.completed = true
			return
		})
	}
	m.Phases = s.NumPhases
	return m, err
}

// runSelfExecuting executes the schedule with one goroutine per processor
// and a shared ready array: before running index i a processor busy-waits
// until every dependence of i is marked complete (paper Figure 4).
//
// The schedule may be any of global, local or natural order; deps must be
// acyclic. Progress is guaranteed for any schedule in which each
// processor's list is ordered consistently with some topological order of
// deps restricted to that processor — wavefront-sorted orders always
// qualify, the natural order when every dependence is backward.
func runSelfExecuting(ctx context.Context, s *schedule.Schedule, deps *wavefront.Deps, body Body, bd *TimeBreakdown) (Metrics, error) {
	if s.P == 1 {
		return runOneProc(ctx, s, body, bd)
	}
	var rc runControl
	done := make([]uint32, s.N)
	return fanOut(ctx, &rc, s.P, func(p int) (ran, checks, waits int64) {
		body, stop := bd.proc(p, body)
		defer stop()
		ran, checks, waits, _ = runList(&rc, s.Proc(p), deps, done, 1, body)
		return
	})
}
