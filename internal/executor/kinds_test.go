package executor

import (
	"context"
	"math/rand"
	"testing"

	"doconsider/internal/schedule"
	"doconsider/internal/wavefront"
)

var allKinds = []Kind{Sequential, PreScheduled, SelfExecuting, DoAcross, Pooled}

func TestKindRoundTrip(t *testing.T) {
	for _, k := range allKinds {
		if got, err := KindByName(k.String()); err != nil || got != k {
			t.Errorf("KindByName(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := KindByName("no-such-kind"); err == nil {
		t.Error("unknown kind name did not error")
	}
}

// TestAllStrategiesRespectDeps executes every kind through one Executor
// each and checks dependence order.
func TestAllStrategiesRespectDeps(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	deps := randomDAG(rng, 300, 3)
	wf, err := wavefront.Compute(deps)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range allKinds {
		e := New(k)
		s := schedule.Global(wf, 4)
		body, check := depChecker(t, deps)
		m, err := e.Run(context.Background(), s, deps, body)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		check()
		if m.Executed != int64(deps.N) {
			t.Errorf("%v executed %d of %d", k, m.Executed, deps.N)
		}
		if err := e.Close(); err != nil {
			t.Errorf("%v close: %v", k, err)
		}
	}
}

// TestPooledStrategyReusesPool verifies a Pooled Executor keeps one pool
// across Run calls and rebuilds it when the processor count changes.
func TestPooledStrategyReusesPool(t *testing.T) {
	deps := randomDAG(rand.New(rand.NewSource(22)), 100, 2)
	wf, err := wavefront.Compute(deps)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Pooled)
	defer e.Close()
	var last *Pool
	for _, p := range []int{2, 2, 4, 2} {
		s := schedule.Global(wf, p)
		body, check := depChecker(t, deps)
		if _, err := e.Run(context.Background(), s, deps, body); err != nil {
			t.Fatal(err)
		}
		check()
		if last != nil && (last.Procs() == p) != (last == e.pool) {
			t.Errorf("p=%d: pool reuse wrong (previous pool had %d workers)", p, last.Procs())
		}
		last = e.pool
	}
	// After Close the executor must refuse to resurrect a pool.
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(context.Background(), schedule.Global(wf, 2), deps, func(int32) {}); err != ErrPoolClosed {
		t.Errorf("Run after Close: err = %v, want ErrPoolClosed", err)
	}
}

// TestExecutorConcurrentRunsAcrossShapes hammers one Executor of each kind
// from several goroutines with schedules of two processor counts — the
// leased-plans-share-one-skeleton case, plus the pooled executor's pool
// rebuild and the doacross executor's natural-schedule rebuild under
// contention (run with -race).
func TestExecutorConcurrentRunsAcrossShapes(t *testing.T) {
	deps := randomDAG(rand.New(rand.NewSource(23)), 150, 2)
	wf, err := wavefront.Compute(deps)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range allKinds {
		e := New(k)
		errs := make(chan error, 4)
		for g := 0; g < 4; g++ {
			go func(p int) {
				s := schedule.Global(wf, p)
				for r := 0; r < 10; r++ {
					m, err := e.Run(context.Background(), s, deps, func(int32) {})
					if err == nil && m.Executed != int64(deps.N) {
						t.Errorf("%v p=%d: executed %d of %d", k, p, m.Executed, deps.N)
					}
					if err != nil {
						errs <- err
						return
					}
				}
				errs <- nil
			}(2 + g%2)
		}
		for g := 0; g < 4; g++ {
			if err := <-errs; err != nil {
				t.Errorf("%v: %v", k, err)
			}
		}
		e.Close()
	}
}
