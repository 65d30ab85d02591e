package executor

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

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

// forPooledRunners runs f against a pooled executor at the two extreme
// widths of the shared set — the caller alone ("pool") and every idle
// helper ("executor") — which must keep the same hot-path contracts.
func forPooledRunners(t *testing.T, f func(t *testing.T, run runFunc)) {
	t.Run("pool", func(t *testing.T) {
		SetMaxWidth(t, 1)
		f(t, New(Pooled).Run)
	})
	t.Run("executor", func(t *testing.T) {
		f(t, New(Pooled).Run)
	})
}

func TestPoolSpawnsNoGoroutinesPerRun(t *testing.T) {
	deps := randomDAG(rand.New(rand.NewSource(13)), 200, 2)
	wf, err := wavefront.Compute(deps)
	if err != nil {
		t.Fatal(err)
	}
	s := schedule.Global(wf, 4)
	forPooledRunners(t, func(t *testing.T, run runFunc) {
		body := func(int32) {}
		if _, err := run(context.Background(), s, deps, body); err != nil {
			t.Fatal(err)
		}
		before := runtime.NumGoroutine()
		for i := 0; i < 50; i++ {
			if _, err := run(context.Background(), s, deps, body); err != nil {
				t.Fatal(err)
			}
		}
		after := runtime.NumGoroutine()
		if after > before {
			t.Errorf("goroutine count grew across pooled runs: %d -> %d", before, after)
		}
	})
}

func TestPoolZeroAllocsPerRun(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not stable under -race")
	}
	deps := randomDAG(rand.New(rand.NewSource(14)), 256, 2)
	wf, err := wavefront.Compute(deps)
	if err != nil {
		t.Fatal(err)
	}
	s := schedule.Global(wf, 4)
	forPooledRunners(t, func(t *testing.T, run runFunc) {
		body := func(int32) {}
		ctx := context.Background()
		// Warm up: sizes the epoch array and the crew.
		if _, err := run(ctx, s, deps, body); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := run(ctx, s, deps, body); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("pooled Run allocates %v objects per call, want 0", allocs)
		}
	})
}

func TestPoolConcurrentRunsSerialize(t *testing.T) {
	// Concurrent Run calls on one executor must serialize, not interleave:
	// hammer it from several goroutines under the race detector.
	deps := randomDAG(rand.New(rand.NewSource(15)), 200, 2)
	wf, err := wavefront.Compute(deps)
	if err != nil {
		t.Fatal(err)
	}
	s := schedule.Global(wf, 3)
	forPooledRunners(t, func(t *testing.T, run runFunc) {
		var inRun atomic.Int32
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < 20; r++ {
					count := atomic.Int64{}
					m, err := run(context.Background(), s, deps, func(int32) {
						// At most P bodies of ONE run may be in flight; if two
						// runs interleaved, the count could exceed P.
						if v := inRun.Add(1); v > int32(s.P) {
							t.Errorf("%d bodies in flight, schedule has %d processors", v, s.P)
						}
						count.Add(1)
						inRun.Add(-1)
					})
					if err != nil {
						t.Error(err)
						return
					}
					if m.Executed != int64(deps.N) || count.Load() != int64(deps.N) {
						t.Errorf("run executed %d bodies, metrics say %d, want %d",
							count.Load(), m.Executed, deps.N)
						return
					}
				}
			}()
		}
		wg.Wait()
	})
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
