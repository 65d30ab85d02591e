package executor

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"doconsider/internal/wavefront"
)

func TestRunSelfScheduledRespectsDeps(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 8; trial++ {
		deps := randomDAG(rng, 300, 3)
		wf, err := wavefront.Compute(deps)
		if err != nil {
			t.Fatal(err)
		}
		order := SortedOrder(wf)
		for _, p := range []int{1, 2, 4, 8} {
			for _, chunk := range []int{1, 4, 16} {
				body, check := depChecker(t, deps)
				m := RunSelfScheduled(order, deps, p, chunk, body)
				check()
				if m.Executed != 300 {
					t.Errorf("executed %d", m.Executed)
				}
			}
		}
	}
}

func TestRunSelfScheduledComputesCorrectValues(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 400
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
	x0 := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64() * 0.5
		x0[i] = rng.NormFloat64()
	}
	xold := append([]float64(nil), x0...)
	mkBody := func(x []float64) Body {
		return func(i int32) {
			needed := ia[i]
			if needed >= i {
				x[i] = xold[i] + b[i]*xold[needed]
			} else {
				x[i] = xold[i] + b[i]*x[needed]
			}
		}
	}
	want := append([]float64(nil), x0...)
	RunSequential(n, mkBody(want))
	got := append([]float64(nil), x0...)
	RunSelfScheduled(SortedOrder(wf), deps, 6, 8, mkBody(got))
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("x[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSelfScheduledChunkBounds(t *testing.T) {
	deps := wavefront.FromAdjacency(make([][]int32, 10))
	wf, _ := wavefront.Compute(deps)
	var count atomic.Int32
	// chunk larger than n, nproc larger than n, degenerate values
	RunSelfScheduled(SortedOrder(wf), deps, 50, 100, func(int32) { count.Add(1) })
	if count.Load() != 10 {
		t.Errorf("executed %d, want 10", count.Load())
	}
	count.Store(0)
	RunSelfScheduled(SortedOrder(wf), deps, 0, 0, func(int32) { count.Add(1) })
	if count.Load() != 10 {
		t.Errorf("executed %d with degenerate params, want 10", count.Load())
	}
}
