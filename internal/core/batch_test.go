package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"doconsider/internal/executor"
	"doconsider/internal/wavefront"
)

// TestRunBatchMatchesSequentialRuns checks that one batched pass over k
// recurrence bodies computes exactly what k separate Runs compute.
func TestRunBatchMatchesSequentialRuns(t *testing.T) {
	const n = 500
	rng := rand.New(rand.NewSource(3))
	ia := make([]int32, n)
	for i := range ia {
		ia[i] = int32(rng.Intn(n))
	}
	deps := wavefront.FromIndirection(ia)
	const k = 4
	mkBody := func(x []float64) executor.Body {
		return func(i int32) {
			if int(ia[i]) < int(i) {
				x[i] += 0.5 * x[ia[i]]
			}
		}
	}
	want := make([][]float64, k)
	for j := range want {
		want[j] = make([]float64, n)
		for i := range want[j] {
			want[j][i] = float64(j + 1)
		}
		executor.RunSequential(n, mkBody(want[j]))
	}
	for _, kind := range []executor.Kind{executor.SelfExecuting, executor.Pooled} {
		rt, err := New(deps, WithProcs(4), WithExecutor(kind))
		if err != nil {
			t.Fatal(err)
		}
		got := make([][]float64, k)
		bodies := make([]executor.Body, k)
		for j := range got {
			got[j] = make([]float64, n)
			for i := range got[j] {
				got[j][i] = float64(j + 1)
			}
			bodies[j] = mkBody(got[j])
		}
		m := rt.RunBatch(bodies)
		if m.Executed != n {
			t.Errorf("%v: executed %d indices, want %d (one pass, not k)", kind, m.Executed, n)
		}
		for j := range got {
			for i := range got[j] {
				if got[j][i] != want[j][i] {
					t.Fatalf("%v: batch body %d index %d = %v, want %v", kind, j, i, got[j][i], want[j][i])
				}
			}
		}
	}
}

func TestRunBatchEmptyAndCancelled(t *testing.T) {
	rt, err := New(wavefront.FromIndirection(make([]int32, 32)), WithProcs(2))
	if err != nil {
		t.Fatal(err)
	}
	if m := rt.RunBatch(nil); m.Executed != 0 {
		t.Fatalf("empty batch executed %d bodies", m.Executed)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = rt.RunBatchCtx(ctx, []executor.Body{func(int32) {}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch returned %v, want context.Canceled", err)
	}
}
