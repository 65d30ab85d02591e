package core

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"doconsider/internal/executor"
	"doconsider/internal/wavefront"
)

func randomIndirection(rng *rand.Rand, n int) []int32 {
	ia := make([]int32, n)
	for i := range ia {
		ia[i] = int32(rng.Intn(n))
	}
	return ia
}

// TestPooledRuntimeMatchesSequential runs the paper's simple loop under
// the pooled executor repeatedly and compares every sweep against the
// sequential reference — the amortized Run-many-times usage pattern.
func TestPooledRuntimeMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	n := 400
	ia := randomIndirection(rng, n)
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	mk := func(kind executor.Kind) (*SimpleLoop, []float64) {
		loop, err := NewSimpleLoop(ia, WithProcs(4), WithExecutor(kind))
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = float64(i % 7)
		}
		return loop, x
	}
	seqLoop, xSeq := mk(executor.Sequential)
	poolLoop, xPool := mk(executor.Pooled)
	defer poolLoop.Runtime().Close()
	for sweep := 0; sweep < 20; sweep++ {
		seqLoop.Run(xSeq, b)
		poolLoop.Run(xPool, b)
		for i := range xPool {
			if xPool[i] != xSeq[i] {
				t.Fatalf("sweep %d: x[%d] = %v, want %v", sweep, i, xPool[i], xSeq[i])
			}
		}
	}
}

// TestPooledRuntimeReusesWorkers checks the pool survives across Run
// calls: after warm-up, repeated runs spawn no goroutines.
func TestPooledRuntimeReusesWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	ia := randomIndirection(rng, 300)
	deps := wavefront.FromIndirection(ia)
	rt, err := New(deps, WithProcs(4), WithExecutor(executor.Pooled))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	body := func(int32) {}
	rt.Run(body) // warm-up spawns the pool
	before := runtime.NumGoroutine()
	for i := 0; i < 30; i++ {
		rt.Run(body)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines grew across pooled runs: %d -> %d", before, after)
	}
}

// TestRunCtxCancellation verifies Runtime.RunCtx surfaces a cancellation
// as ctx.Err() with all workers released.
func TestRunCtxCancellation(t *testing.T) {
	// A strict chain guarantees cross-worker waiting.
	n := 64
	adj := make([][]int32, n)
	for i := 1; i < n; i++ {
		adj[i] = []int32{int32(i - 1)}
	}
	deps := wavefront.FromAdjacency(adj)
	for _, kind := range []executor.Kind{executor.SelfExecuting, executor.Pooled} {
		rt, err := New(deps, WithProcs(4), WithExecutor(kind))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		started := make(chan struct{})
		release := make(chan struct{})
		go func() {
			<-started
			cancel()
			time.Sleep(50 * time.Millisecond)
			close(release)
		}()
		done := make(chan error, 1)
		go func() {
			_, err := rt.RunCtx(ctx, func(i int32) {
				if i == 0 {
					close(started)
					<-release
				}
			})
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%v: err = %v, want context.Canceled", kind, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%v: cancelled run deadlocked", kind)
		}
		rt.Close()
	}
}
