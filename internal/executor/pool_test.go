package executor

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"doconsider/internal/schedule"
	"doconsider/internal/wavefront"
)

func TestPooledRespectsDeps(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		deps := randomDAG(rng, 400, 3)
		wf, err := wavefront.Compute(deps)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{1, 2, 4, 9} {
			e := New(Pooled)
			for w := 1; w <= p; w++ {
				SetMaxWidth(t, w)
				for _, s := range []*schedule.Schedule{
					schedule.Global(wf, p),
					schedule.Local(wf, p, schedule.Striped),
					schedule.Natural(deps.N, p, schedule.Striped),
				} {
					body, check := depChecker(t, deps)
					m, err := e.Run(context.Background(), s, deps, body)
					if err != nil {
						t.Fatal(err)
					}
					check()
					if m.Executed != 400 {
						t.Errorf("p=%d w=%d: executed %d", p, w, m.Executed)
					}
				}
			}
		}
	}
}

func TestPooledComputesCorrectValuesAcrossRuns(t *testing.T) {
	// The epoch-stamped ready array must not leak completions between
	// runs: repeat the paper's simple loop many times on one executor and
	// compare each sweep against the sequential reference.
	rng := rand.New(rand.NewSource(12))
	n := 300
	ia := make([]int32, n)
	for i := range ia {
		ia[i] = int32(rng.Intn(n))
	}
	deps := wavefront.FromIndirection(ia)
	wf, err := wavefront.Compute(deps)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	s := schedule.Global(wf, 4)
	e := New(Pooled)
	xSeq := make([]float64, n)
	xPar := make([]float64, n)
	xold := make([]float64, n)
	for i := range xSeq {
		xSeq[i] = rng.NormFloat64()
		xPar[i] = xSeq[i]
	}
	mkBody := func(x, xold []float64) Body {
		return func(i int32) {
			needed := ia[i]
			if needed >= i {
				x[i] = xold[i] + b[i]*xold[needed]
			} else {
				x[i] = xold[i] + b[i]*x[needed]
			}
		}
	}
	for sweep := 0; sweep < 25; sweep++ {
		copy(xold, xSeq)
		RunSequential(n, mkBody(xSeq, xold))
		copy(xold, xPar)
		if _, err := e.Run(context.Background(), s, deps, mkBody(xPar, xold)); err != nil {
			t.Fatal(err)
		}
		for i := range xPar {
			if xPar[i] != xSeq[i] {
				t.Fatalf("sweep %d: x[%d] = %v, want %v", sweep, i, xPar[i], xSeq[i])
			}
		}
	}
}

// runFunc is the signature of Executor.Run.
type runFunc func(ctx context.Context, s *schedule.Schedule, deps *wavefront.Deps, body Body) (Metrics, error)

// passRunner repeats passes of one discipline over a fixed loop.
type passRunner struct {
	name string
	held bool // passes run on one held Executor
	run  func(ctx context.Context, body Body) (Metrics, error)
}

// forPassRunners runs f against every way of running a pass over deps at
// procs processors — the five kinds on a held Executor, the natural
// schedule under the two flags kinds (claimed), RunSelfScheduled and a
// column pass over deps.N one-index columns (which ignores deps) — each
// at the full width of the shared set and on the caller alone ("-w1").
// Pooled's two keep their historical names, "executor" and "pool".
func forPassRunners(t *testing.T, deps *wavefront.Deps, procs int, f func(t *testing.T, r passRunner)) {
	wf, err := wavefront.Compute(deps)
	if err != nil {
		t.Fatal(err)
	}
	held := func(k Kind, s *schedule.Schedule) func(context.Context, Body) (Metrics, error) {
		e := New(k)
		return func(ctx context.Context, body Body) (Metrics, error) { return e.Run(ctx, s, deps, body) }
	}
	global, natural := schedule.Global(wf, procs), schedule.Natural(deps.N, procs, schedule.Striped)
	order := SortedOrder(wf)
	// A column pass's span reaches the pass's body through a record from a
	// free list, as trisolve's does, so a warm pass allocates nothing.
	type colRec struct {
		body Body
		span Span
	}
	free, e := make(chan *colRec, 8), New(Pooled)
	columns := func(ctx context.Context, body Body) (Metrics, error) {
		var c *colRec
		select {
		case c = <-free:
		default:
			c = new(colRec)
			c.span = func(lo, hi int, stop func() bool) {
				for i := lo; i < hi && !stop(); i++ {
					c.body(int32(i))
				}
			}
		}
		c.body = body
		m, err := e.RunColumns(ctx, deps.N, procs, c.span)
		c.body = nil
		select {
		case free <- c:
		default:
		}
		return m, err
	}
	rs := []passRunner{
		{"executor", true, held(Pooled, global)},
		{"sequential", true, held(Sequential, global)},
		{"pre-scheduled", true, held(PreScheduled, global)},
		{"self-executing", true, held(SelfExecuting, global)},
		{"doacross", true, held(DoAcross, global)},
		{"natural-pooled", true, held(Pooled, natural)},
		{"natural-self-executing", true, held(SelfExecuting, natural)},
		{"self-scheduled", false, func(ctx context.Context, body Body) (Metrics, error) {
			return RunSelfScheduledCtx(ctx, order, deps, procs, 4, body)
		}},
		{"columns", true, columns},
	}
	for _, r := range rs {
		t.Run(r.name, func(t *testing.T) { f(t, r) })
		name := r.name + "-w1"
		if r.name == "executor" {
			name = "pool"
		}
		t.Run(name, func(t *testing.T) {
			SetMaxWidth(t, 1)
			f(t, r)
		})
	}
}

func TestPoolSpawnsNoGoroutinesPerRun(t *testing.T) {
	deps := randomDAG(rand.New(rand.NewSource(13)), 200, 2)
	forPassRunners(t, deps, 4, func(t *testing.T, r passRunner) {
		body := func(int32) {}
		if _, err := r.run(context.Background(), body); err != nil {
			t.Fatal(err)
		}
		before := runtime.NumGoroutine()
		for i := 0; i < 50; i++ {
			if _, err := r.run(context.Background(), body); err != nil {
				t.Fatal(err)
			}
		}
		after := runtime.NumGoroutine()
		if after > before {
			t.Errorf("goroutine count grew across passes: %d -> %d", before, after)
		}
	})
}

func TestPoolZeroAllocsPerRun(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not stable under -race")
	}
	deps := randomDAG(rand.New(rand.NewSource(14)), 256, 2)
	forPassRunners(t, deps, 4, func(t *testing.T, r passRunner) {
		if !r.held {
			t.Skip("a one-shot entry point allocates its pass state")
		}
		body := func(int32) {}
		ctx := context.Background()
		// Warm up: sizes the pass state's ready array and crew.
		if _, err := r.run(ctx, body); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := r.run(ctx, body); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("Run allocates %v objects per call, want 0", allocs)
		}
	})
}

// TestPoolConcurrentRunsSerialize hammers every pass runner from several
// goroutines under the race detector. Passes on one Executor may overlap,
// but each must keep to its own state: no pass has more bodies in flight
// than its schedule has processors, and each runs every body exactly once.
func TestPoolConcurrentRunsSerialize(t *testing.T) {
	const procs = 3
	deps := randomDAG(rand.New(rand.NewSource(15)), 200, 2)
	forPassRunners(t, deps, procs, func(t *testing.T, r passRunner) {
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					var inRun atomic.Int32
					count := atomic.Int64{}
					m, err := r.run(context.Background(), func(int32) {
						if v := inRun.Add(1); v > procs {
							t.Errorf("%d bodies of one pass in flight, schedule has %d processors", v, procs)
						}
						count.Add(1)
						inRun.Add(-1)
					})
					if err != nil {
						t.Error(err)
						return
					}
					if m.Executed != int64(deps.N) || count.Load() != int64(deps.N) {
						t.Errorf("pass executed %d bodies, metrics say %d, want %d",
							count.Load(), m.Executed, deps.N)
						return
					}
				}
			}()
		}
		wg.Wait()
	})
}

// TestPoolConcurrentRunsOverlap runs two passes on one Executor of each
// parallel kind from two goroutines and holds each inside the body of
// index 0 until the other has arrived there too: both passes must be in
// flight at once, each on its own state, and both results must be the
// sequential loop's. Passes serialized on the Executor would time out.
func TestPoolConcurrentRunsOverlap(t *testing.T) {
	const n = 300
	rng := rand.New(rand.NewSource(15))
	ia := make([]int32, n)
	b := make([]float64, n)
	for i := range ia {
		ia[i] = int32(rng.Intn(n))
		b[i] = rng.NormFloat64()
	}
	deps := wavefront.FromIndirection(ia)
	wf, err := wavefront.Compute(deps)
	if err != nil {
		t.Fatal(err)
	}
	x0 := make([]float64, n)
	for i := range x0 {
		x0[i] = rng.NormFloat64()
	}
	loop := func(x []float64) Body {
		return func(i int32) {
			if needed := ia[i]; needed >= i {
				x[i] = x0[i] + b[i]*x0[needed]
			} else {
				x[i] = x0[i] + b[i]*x[needed]
			}
		}
	}
	want := make([]float64, n)
	RunSequential(n, loop(want))
	s := schedule.Global(wf, 4)
	for _, k := range allKinds[1:] {
		e := New(k)
		var arrived atomic.Int32
		both := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				x := make([]float64, n)
				inner := loop(x)
				_, err := e.Run(context.Background(), s, deps, func(i int32) {
					if i == 0 {
						if arrived.Add(1) == 2 {
							close(both)
						}
						select {
						case <-both:
						case <-time.After(10 * time.Second):
							t.Errorf("%v: the other pass never reached the body", k)
						}
					}
					inner(i)
				})
				if err != nil {
					t.Errorf("%v: %v", k, err)
					return
				}
				for i := range x {
					if x[i] != want[i] {
						t.Errorf("%v: x[%d] = %v, want %v", k, i, x[i], want[i])
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestSharedSetAcrossExecutors is the race stress of the one worker set:
// eight goroutines drive eight distinct pooled executors at once, so
// passes compete for the helpers and run at whatever width they get;
// every result must be bit-equal to the sequential loop, and the set must
// be whole — every helper alive and idle — afterwards.
func TestSharedSetAcrossExecutors(t *testing.T) {
	const n, procs, sweeps = 300, 4, 30
	rng := rand.New(rand.NewSource(16))
	ia := make([]int32, n)
	b := make([]float64, n)
	for i := range ia {
		ia[i] = int32(rng.Intn(n))
		b[i] = rng.NormFloat64()
	}
	deps := wavefront.FromIndirection(ia)
	wf, err := wavefront.Compute(deps)
	if err != nil {
		t.Fatal(err)
	}
	loop := func(x, xold []float64) Body {
		return func(i int32) {
			if needed := ia[i]; needed >= i {
				x[i] = xold[i] + b[i]*xold[needed]
			} else {
				x[i] = xold[i] + b[i]*x[needed]
			}
		}
	}
	x0 := make([]float64, n)
	for i := range x0 {
		x0[i] = float64(i%11) - 5
	}
	want := append([]float64(nil), x0...)
	RunSequential(n, loop(want, x0))

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := New(Pooled)
			s := schedule.Global(wf, procs)
			if g%2 == 1 {
				s = schedule.Local(wf, procs, schedule.Striped)
			}
			x := make([]float64, n)
			for r := 0; r < sweeps; r++ {
				copy(x, x0)
				if _, err := e.Run(context.Background(), s, deps, loop(x, x0)); err != nil {
					t.Error(err)
					return
				}
				for i := range x {
					if x[i] != want[i] {
						t.Errorf("executor %d sweep %d: x[%d] = %v, want %v", g, r, i, x[i], want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	checkSetWhole(t)
}

func TestLegacyRunRethrowsBodyPanic(t *testing.T) {
	deps := wavefront.FromAdjacency([][]int32{{}, {0}})
	wf, _ := wavefront.Compute(deps)
	s := schedule.Global(wf, 2)
	defer func() {
		if r := recover(); r != "legacy boom" {
			t.Errorf("recovered %v, want legacy boom", r)
		}
	}()
	Run(SelfExecuting, s, deps, func(i int32) {
		if i == 0 {
			panic("legacy boom")
		}
	})
}
