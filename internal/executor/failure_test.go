package executor

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"doconsider/internal/schedule"
	"doconsider/internal/wavefront"
)

// gridRun executes body over deps, whose wavefront numbers are wf.
type gridRun func(ctx context.Context, deps *wavefront.Deps, wf []int32, body Body) (Metrics, error)

// gridRunner is one way of executing a loop. open builds a runner for p
// processors that is used for several runs, so the runners that keep
// state are also checked for surviving a failed run.
type gridRunner struct {
	name string
	open func(t *testing.T, p int) gridRun
	// columns marks a column pass, whose columns keep no dependences
	// between them: it has no "deps" cell.
	columns bool
}

func scheduled(p int, run runFunc) gridRun {
	return func(ctx context.Context, deps *wavefront.Deps, wf []int32, body Body) (Metrics, error) {
		return run(ctx, schedule.Global(wf, p), deps, body)
	}
}

func testBreakdown(p int) *TimeBreakdown {
	return &TimeBreakdown{P: p, Busy: make([]time.Duration, p), Waiting: make([]time.Duration, p)}
}

// timedRun runs one timed discipline through the runner with a context.
func timedRun(d discipline) func(t *testing.T, p int) gridRun {
	return func(_ *testing.T, p int) gridRun {
		return scheduled(p, func(ctx context.Context, s *schedule.Schedule, deps *wavefront.Deps, body Body) (Metrics, error) {
			return new(Executor).run(ctx, job{disc: d, s: s, deps: deps, width: p, body: body, bd: testBreakdown(p)})
		})
	}
}

// columnRun runs a column pass of p columns whose every span is the
// sequential loop over the whole index set, polling stop before each
// index — the shape of trisolve's column sweep. Like trisolve it reports
// the loop's length as Executed.
func columnRun(_ *testing.T, p int) gridRun {
	e := New(Pooled)
	return func(ctx context.Context, deps *wavefront.Deps, _ []int32, body Body) (Metrics, error) {
		m, err := e.RunColumns(ctx, p, p, func(_, _ int, stop func() bool) {
			for i := int32(0); int(i) < deps.N && !stop(); i++ {
				body(i)
			}
		})
		if err == nil {
			m.Executed = int64(deps.N)
		}
		return m, err
	}
}

// gridRunners lists every runner the package has — the five kinds through
// Executor ("pool" is Pooled once more, under its historical name), the
// self-scheduled claim, the two timed runs (through the runner with a
// context) and the column pass — each at the full width of the shared set
// and, suffixed "-w1", on the caller alone.
func gridRunners() []gridRunner {
	rs := []gridRunner{
		{name: "pool", open: func(_ *testing.T, p int) gridRun { return scheduled(p, New(Pooled).Run) }},
		{name: "self-scheduled", open: func(_ *testing.T, p int) gridRun {
			return func(ctx context.Context, deps *wavefront.Deps, wf []int32, body Body) (Metrics, error) {
				return RunSelfScheduledCtx(ctx, SortedOrder(wf), deps, p, 1, body)
			}
		}},
		{name: "timed-self-executing", open: timedRun(byFlags)},
		{name: "timed-pre-scheduled", open: timedRun(byBarrier)},
		{name: "columns", open: columnRun, columns: true},
	}
	for _, k := range allKinds {
		rs = append(rs, gridRunner{name: k.String(),
			open: func(_ *testing.T, p int) gridRun { return scheduled(p, New(k).Run) }})
	}
	for _, r := range rs {
		rs = append(rs, gridRunner{name: r.name + "-w1", columns: r.columns, open: func(t *testing.T, p int) gridRun {
			SetMaxWidth(t, 1)
			return r.open(t, p)
		}})
	}
	return rs
}

// chainDeps is the failure scenarios' structure: index i waits on i-1, so
// with index 0 stuck every other processor is busy-waiting (or parked at
// a barrier with phases still to come).
func chainDeps(n int) (*wavefront.Deps, []int32) {
	adj := make([][]int32, n)
	wf := make([]int32, n)
	for i := 1; i < n; i++ {
		adj[i] = []int32{int32(i - 1)}
		wf[i] = int32(i)
	}
	return wavefront.FromAdjacency(adj), wf
}

// failureModes are the grid's columns. Each drives one run of the runner
// to its failure and checks how it surfaced; failureCell then checks the
// runner still works and that nothing is left running.
var failureModes = map[string]func(t *testing.T, run gridRun){
	"deps": func(t *testing.T, run gridRun) {
		deps := randomDAG(rand.New(rand.NewSource(31)), 300, 3)
		wf, err := wavefront.Compute(deps)
		if err != nil {
			t.Fatal(err)
		}
		body, check := depChecker(t, deps)
		m, err := run(context.Background(), deps, wf, body)
		if err != nil {
			t.Fatal(err)
		}
		check()
		if m.Executed != int64(deps.N) {
			t.Errorf("executed %d of %d", m.Executed, deps.N)
		}
	},
	"cancel": func(t *testing.T, run gridRun) {
		// Index 0's body blocks until the test has cancelled the context
		// and given the peers time to observe it while still waiting on 0:
		// they must be released by the cancellation, not by completion.
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var ranDependent atomic.Bool
		err := failingRun(t, run, ctx, func(i int32) {
			if i != 0 {
				ranDependent.Store(true)
				return
			}
			cancel()
			time.Sleep(50 * time.Millisecond)
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
		if ranDependent.Load() {
			t.Error("a dependent index executed after cancellation")
		}
	},
	"panic": func(t *testing.T, run gridRun) {
		err := failingRun(t, run, context.Background(), func(i int32) {
			if i == 0 {
				panic("boom")
			}
		})
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Value != "boom" {
			t.Errorf("err = %v, want PanicError(boom)", err)
		}
	},
	"goexit": func(t *testing.T, run gridRun) {
		// runtime.Goexit kills the goroutine running index 1 without a
		// recoverable panic (the t.FailNow failure mode). That is a helper
		// of the shared set, which failureCell then finds replaced, or the
		// caller itself — participant 0 of every pass, and the only one of
		// a sequential run or a pass of width 1 — in which case it exits.
		err := failingRun(t, run, context.Background(), func(i int32) {
			if i == 1 {
				runtime.Goexit()
			}
		})
		var pe *PanicError
		if workerDied := errors.As(err, &pe) && pe.Value == ErrWorkerExited; !workerDied && err != errCallerExited {
			t.Errorf("err = %v, want PanicError(ErrWorkerExited) or the caller's exit", err)
		}
	},
}

// errCallerExited is failingRun's report of a run whose calling goroutine
// exited (runtime.Goexit) instead of returning.
var errCallerExited = errors.New("the calling goroutine exited during the run")

// failingRun runs body over a six-index chain and returns the run's error,
// failing the test if the run does not return at all.
func failingRun(t *testing.T, run gridRun, ctx context.Context, body Body) error {
	t.Helper()
	deps, wf := chainDeps(6)
	done := make(chan error, 1)
	go func() {
		err := errCallerExited
		defer func() { done <- err }()
		_, err = run(ctx, deps, wf, body)
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("run deadlocked")
		return nil
	}
}

// failureCell is one cell of the grid: drive the runner into the failure,
// check the same runner then completes a clean run, and check the
// goroutine count is back to where it started — no spinner or barrier
// waiter left behind — and the shared set is whole: every helper alive
// and none left claimed.
func failureCell(t *testing.T, r gridRunner, mode string) {
	const p = 3
	base := goroutines()
	run := r.open(t, p)
	failureModes[mode](t, run)
	deps, wf := chainDeps(6)
	if m, err := run(context.Background(), deps, wf, func(int32) {}); err != nil || m.Executed != 6 {
		t.Errorf("run after %s: executed %d, err %v", mode, m.Executed, err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for goroutines() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := goroutines(); n > base {
		t.Errorf("%d goroutines left running, started with %d", n, base)
	}
	checkSetWhole(t)
}

// stacks returns one runtime.Stack record per live goroutine.
func stacks() []string {
	buf := make([]byte, 1<<20)
	return strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n")
}

// goroutines counts the live goroutines except the shared set's helpers
// (IsHelper), which live as long as the process. It counts one snapshot:
// a helper that is still dying after its replacement started is a helper
// in it, not a leak.
func goroutines() int {
	n := 0
	for _, g := range stacks() {
		if !IsHelper(g) {
			n++
		}
	}
	return n
}

// checkSetWhole waits for the shared set to be whole — as many helper
// goroutines alive as it was started with, all of them idle — and fails
// the test if it does not get there.
func checkSetWhole(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		live := 0
		for _, g := range stacks() {
			if IsHelper(g) {
				live++
			}
		}
		size, idle := HelperSet()
		if live == size && idle == size {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("shared set: %d helpers alive, %d idle, want %d", live, idle, size)
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFailureModes is the failure grid: every runner × every mode.
func TestFailureModes(t *testing.T) {
	for _, r := range gridRunners() {
		for mode := range failureModes {
			if r.columns && mode == "deps" {
				continue
			}
			t.Run(r.name+"/"+mode, func(t *testing.T) { failureCell(t, r, mode) })
		}
	}
}

// The tests below are cells of the grid under the names they had when each
// runner carried its own copy of the scenario.

func gridCell(t *testing.T, runner, mode string) {
	for _, r := range gridRunners() {
		if r.name == runner {
			failureCell(t, r, mode)
			return
		}
	}
	t.Fatalf("no runner %q", runner)
}

func TestPoolCancellationReleasesSpinners(t *testing.T) { gridCell(t, "pool", "cancel") }
func TestPoolBodyPanicReleasesPeers(t *testing.T)       { gridCell(t, "pool", "panic") }
func TestPoolBodyGoexitDoesNotDeadlock(t *testing.T)    { gridCell(t, "pool", "goexit") }
func TestSelfExecutingCancellationReleasesSpinners(t *testing.T) {
	gridCell(t, "self-executing", "cancel")
}
func TestSelfExecutingPanicReleasesPeers(t *testing.T) { gridCell(t, "self-executing", "panic") }
func TestSelfExecutingBodyGoexitDoesNotDeadlock(t *testing.T) {
	gridCell(t, "self-executing", "goexit")
}
func TestPreScheduledPanicUnwindsBarriers(t *testing.T) { gridCell(t, "pre-scheduled", "panic") }
func TestPreScheduledBodyGoexitDoesNotDeadlock(t *testing.T) {
	gridCell(t, "pre-scheduled", "goexit")
}
