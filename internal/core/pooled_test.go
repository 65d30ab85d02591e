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

// TestPooledRuntimeReusesWorkers checks a pooled runtime's runs borrow
// the shared worker set: after warm-up, repeated runs spawn no
// goroutines.
func TestPooledRuntimeReusesWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	ia := randomIndirection(rng, 300)
	deps := wavefront.FromIndirection(ia)
	rt, err := New(deps, WithProcs(4), WithExecutor(executor.Pooled))
	if err != nil {
		t.Fatal(err)
	}
	body := func(int32) {}
	rt.Run(body) // warm-up sizes the ready array
	before := runtime.NumGoroutine()
	for i := 0; i < 30; i++ {
		rt.Run(body)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines grew across pooled runs: %d -> %d", before, after)
	}
}

// TestPooledRuntimesShareOneWorkerSet builds 32 pooled runtimes over
// distinct structures and runs each: every pass borrows the process's
// shared worker set, so the goroutine count after the 32nd runtime is the
// count after the first.
func TestPooledRuntimesShareOneWorkerSet(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	var afterFirst int
	var live []*Runtime // keep every runtime reachable to the end
	for k := 0; k < 32; k++ {
		n := 100 + 10*k
		rt, err := New(wavefront.FromIndirection(randomIndirection(rng, n)), WithProcs(4), WithExecutor(executor.Pooled))
		if err != nil {
			t.Fatal(err)
		}
		if m := rt.Run(func(int32) {}); m.Executed != int64(n) {
			t.Fatalf("runtime %d executed %d of %d", k, m.Executed, n)
		}
		live = append(live, rt)
		if k == 0 {
			afterFirst = runtime.NumGoroutine()
		}
	}
	if n := runtime.NumGoroutine(); n != afterFirst || len(live) != 32 {
		t.Errorf("%d goroutines after 32 pooled runtimes, %d after the first", n, afterFirst)
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
	}
}
