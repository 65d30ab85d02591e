// Package executor implements the paper's transformed loop structures: the
// pre-scheduled executor, which separates consecutive wavefronts with
// global synchronizations (Figure 5), and the self-executing executor,
// which replaces barriers with busy waits on a shared ready array
// (Figure 4). A doacross baseline — the self-executing mechanism over the
// original, unsorted index order — and a sequential reference are also
// provided.
//
// An executor runs a user loop body once per loop index. The body receives
// the index to execute; any data (solution vectors, matrices, indirection
// arrays) is captured in the closure. Bodies for distinct indices in the
// same wavefront run concurrently, so they must only write state owned by
// their own index.
//
// One runner executes every parallel kind. A pass is a schedule, a
// discipline and a width w: the calling goroutine is participant 0 and
// borrows up to w-1 helpers of the process's one worker set —
// GOMAXPROCS(0)-1 goroutines started with the package, the only
// goroutines that outlive a run — taking only those idle at dispatch.
// The disciplines are the paper's two and a dynamic one:
//
//   - flags (Figure 4): each participant runs its processor lists phase
//     by phase, busy-waiting on the ready array before each index;
//   - barrier (Figure 5): each participant runs its lists' segments of a
//     phase, then meets the others at one barrier;
//   - claim: participants take indices in increasing order from an atomic
//     counter, in fixed chunks, and busy-wait as under flags. A column
//     pass (RunColumns) claims spans of independent columns instead, one
//     per participant, and waits on nothing; an awaiting pass
//     (RunAwaiting) claims rows one at a time, and each row awaits the
//     smaller rows it discovers it depends on.
//
// runList is the package's one busy-wait loop over dependences known in
// advance, and runControl.spin the one wait on a ready flag. A pass takes
// its state (the ready array, crew, barrier and counters) from its
// Executor's free list, so concurrent passes on one Executor run at once
// and a warm pass neither allocates nor starts a goroutine. Every
// context-aware entry point guarantees that a cancelled context, a
// panicking loop body or a body that kills its goroutine releases every
// busy-waiting participant instead of deadlocking the run.
//
// The package is the only one that synchronizes a parallel pass: it holds
// the barrier discipline's barrier, and Calibrate, the process's one
// measurement of host costs, taken on real passes of the runner, which
// machine.Calibrate and planner.Calibrate normalize for their models.
package executor

import (
	"context"
	"errors"
	"fmt"
	"sync"

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
	// PreScheduled executes wavefront phases separated by barriers: the
	// barrier discipline.
	PreScheduled
	// SelfExecuting busy-waits on a shared ready array instead of
	// barriers: the flags discipline.
	SelfExecuting
	// DoAcross is the self-executing loop over the natural (unsorted)
	// index order: the claim discipline over 0..N-1.
	DoAcross
	// Pooled runs exactly as SelfExecuting does; it is kept as its own
	// name because the planner reports its decisions under it. Like every
	// parallel kind, repeated runs of a prepared schedule pay no spawn or
	// allocation cost (the paper's amortization argument, §5.1.1, applied
	// to the runtime itself), and the width is observed, never set: under
	// load a pass runs narrower, down to the caller alone.
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
	P          int   // participants: the pass's width (1 for Sequential)
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

// Executor runs prepared schedules under one Kind. It holds only a free
// list of pass states, so Run is safe for concurrent use — leased plans of
// one cached skeleton share an Executor — and concurrent passes run at
// once, each on its own state. There is nothing to release.
type Executor struct {
	kind Kind
	free struct {
		mu     sync.Mutex
		passes []*pass
	}
}

// New returns an executor of the given kind.
func New(kind Kind) *Executor { return &Executor{kind: kind} }

// Run executes body once per index of the schedule. Sequential uses only
// s.N and DoAcross only s.N and s.P (it runs the natural order whatever
// order s holds); deps may be nil for the kinds that do not synchronize on
// dependences (Sequential, PreScheduled). A schedule of one phase with
// dependences is a natural order, whose lists wait on each other inside
// the phase, so every parallel kind runs it as DoAcross does. Run returns
// ctx.Err() if the run was cancelled and a *PanicError if a loop body
// panicked; in both cases every participant has been released before Run
// returns.
func (e *Executor) Run(ctx context.Context, s *schedule.Schedule, deps *wavefront.Deps, body Body) (Metrics, error) {
	switch e.kind {
	case Sequential:
		return runSolo(ctx, s.N, body)
	case PreScheduled, SelfExecuting, Pooled:
		if s.NumPhases > 1 || deps == nil || deps.Edges() == 0 {
			if e.kind == PreScheduled {
				m, err := e.run(ctx, job{disc: byBarrier, s: s, width: s.P, body: body})
				m.Phases = s.NumPhases
				return m, err
			}
			return e.run(ctx, job{disc: byFlags, s: s, deps: deps, width: s.P, body: body})
		}
		fallthrough // one phase with dependences: a natural order
	case DoAcross:
		// §5.1.2: "the self-executing loop is a doacross loop with a
		// reordered index set" — so doacross is that loop over the
		// original order, dealt one index at a time.
		return e.run(ctx, job{disc: byClaim, deps: deps, n: s.N, chunk: 1, width: s.P, body: body})
	}
	return Metrics{}, fmt.Errorf("executor: unknown kind %v", e.kind)
}

// RunColumns runs one column pass: n independent columns are cut into
// spans of ⌈n/w⌉, w ≤ width the pass's width, which the participants
// claim; no span waits on another, so only the dispatch is paid.
// Executed counts the columns of completed spans; errors are Run's.
func (e *Executor) RunColumns(ctx context.Context, n, width int, span Span) (Metrics, error) {
	return e.run(ctx, job{disc: byClaim, n: n, width: width, span: span})
}

// RunAwaiting runs one awaiting pass: participants claim rows 0..n-1 one
// at a time in natural order, on at most width participants, and each
// row awaits through the pass's ready array the smaller rows it finds it
// depends on — a self-scheduled loop whose dependences no inspector can
// know in advance, so the pass's are empty. Executed counts the finished
// rows; the awaits are not counted as checks. Errors are Run's.
func (e *Executor) RunAwaiting(ctx context.Context, n, width int, row AwaitRow) (Metrics, error) {
	return e.run(ctx, job{disc: byAwait, deps: &wavefront.Deps{N: n}, n: n, width: width, row: row})
}

// RunCtx is a one-shot New(kind).Run; hold an Executor (or a core.Runtime)
// to amortize the pass state across runs.
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
