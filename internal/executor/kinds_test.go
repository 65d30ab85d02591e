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
	}
}

// TestPooledStrategyReusesPool verifies a Pooled Executor keeps one pass
// state across sequential Run calls, whatever the processor count, and
// that its passes borrow the shared set instead of spawning goroutines.
func TestPooledStrategyReusesPool(t *testing.T) {
	deps := randomDAG(rand.New(rand.NewSource(22)), 100, 2)
	wf, err := wavefront.Compute(deps)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Pooled)
	var x *pass
	base := Goroutines()
	for _, p := range []int{2, 2, 4, 2} {
		s := schedule.Global(wf, p)
		body, check := depChecker(t, deps)
		m, err := e.Run(context.Background(), s, deps, body)
		if err != nil {
			t.Fatal(err)
		}
		check()
		if size, _ := HelperSet(); m.P < 1 || m.P > min(p, size+1) {
			t.Errorf("p=%d: pass width %d, want 1..%d", p, m.P, min(p, size+1))
		}
		if len(e.free.passes) != 1 || x != nil && e.free.passes[0] != x {
			t.Fatalf("p=%d: pass state replaced", p)
		}
		x = e.free.passes[0]
	}
	if n := Goroutines(); n > base {
		t.Errorf("goroutines grew across pooled runs: %d -> %d", base, n)
	}
}

// TestExecutorConcurrentRunsAcrossShapes hammers one Executor of each kind
// from several goroutines with schedules of two processor counts — the
// leased-plans-share-one-skeleton case: concurrent passes pop and push
// pass states of every size on one free list (run with -race).
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
	}
}
