package trisolve

import (
	"context"
	"errors"
	"sync"
	"testing"

	"doconsider/internal/executor"
	"doconsider/internal/plancache"
	"doconsider/internal/planner"
	"doconsider/internal/sparse"
	"doconsider/internal/stencil"
)

// scaled returns a copy of a with every value multiplied by f — same
// sparsity, different numbers.
func scaled(a *sparse.CSR, f float64) *sparse.CSR {
	out := &sparse.CSR{
		N:      a.N,
		M:      a.M,
		RowPtr: append([]int32(nil), a.RowPtr...),
		ColIdx: append([]int32(nil), a.ColIdx...),
		Val:    make([]float64, len(a.Val)),
	}
	for i, v := range a.Val {
		out.Val[i] = v * f
	}
	return out
}

func TestPlanCacheSharesSkeleton(t *testing.T) {
	pc := NewPlanCache(8)
	defer pc.Close()
	l := stencil.Laplace2D(25, 25).LowerWithDiag()
	sight(t, pc, l, true, WithProcs(2))
	p1, err := pc.Get(l, true, WithProcs(2))
	if err != nil {
		t.Fatal(err)
	}
	defer p1.Close()
	p2, err := pc.Get(l, true, WithProcs(2))
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if p1.Sched != p2.Sched || p1.Deps != p2.Deps {
		t.Fatal("identical structure did not share schedule/deps")
	}
	// A nil model decides as planner.Default(), so naming it shares the
	// skeleton too.
	pd, err := pc.Get(l, true, WithProcs(2), WithModel(planner.Default()))
	if err != nil {
		t.Fatal(err)
	}
	defer pd.Close()
	if pd.Sched != p1.Sched {
		t.Fatal("WithModel(planner.Default()) did not share the unpinned skeleton")
	}
	s := pc.Stats()
	if s.Misses != 2 || s.Hits != 2 {
		t.Fatalf("stats = %+v, want 2 misses (first sight, build) + 2 hits", s)
	}
	// Different options miss.
	sight(t, pc, l, true, WithProcs(3))
	p3, err := pc.Get(l, true, WithProcs(3))
	if err != nil {
		t.Fatal(err)
	}
	defer p3.Close()
	if p3.Sched == p1.Sched {
		t.Fatal("different procs shared a schedule")
	}
}

// TestPlanCacheBindsCallerValues is the correctness core of the cache
// design: two matrices with identical sparsity but different values share
// one inspector run yet each solves with its own numbers.
func TestPlanCacheBindsCallerValues(t *testing.T) {
	pc := NewPlanCache(8)
	defer pc.Close()
	l1 := stencil.Laplace2D(20, 20).LowerWithDiag()
	l2 := scaled(l1, 2)
	sight(t, pc, l1, true, WithProcs(2))
	p1, err := pc.Get(l1, true, WithProcs(2))
	if err != nil {
		t.Fatal(err)
	}
	defer p1.Close()
	p2, err := pc.Get(l2, true, WithProcs(2))
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if pc.Stats().Misses != 2 {
		t.Fatalf("second structurally-equal matrix re-ran the inspector: %+v", pc.Stats())
	}
	n := l1.N
	b := randRHS(n, 7)
	x1 := make([]float64, n)
	x2 := make([]float64, n)
	p1.Solve(x1, b)
	p2.Solve(x2, b)
	want1 := make([]float64, n)
	want2 := make([]float64, n)
	if err := ForwardSeq(l1, want1, b); err != nil {
		t.Fatal(err)
	}
	if err := ForwardSeq(l2, want2, b); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if x1[i] != want1[i] {
			t.Fatalf("matrix 1 index %d: got %v want %v", i, x1[i], want1[i])
		}
		if x2[i] != want2[i] {
			t.Fatalf("matrix 2 index %d: got %v want %v", i, x2[i], want2[i])
		}
	}
}

// TestPlanCacheConcurrentSolves leases one pooled skeleton from many
// goroutines, solving concurrently while the cache evicts and rebuilds
// other keys — run under -race in CI.
func TestPlanCacheConcurrentSolves(t *testing.T) {
	pc := NewPlanCache(2)
	defer pc.Close()
	tris := []*sparse.CSR{
		stencil.Laplace2D(15, 15).LowerWithDiag(),
		stencil.Laplace2D(16, 16).LowerWithDiag(),
		stencil.Laplace2D(17, 17).LowerWithDiag(),
	}
	wants := make([][]float64, len(tris))
	rhss := make([][]float64, len(tris))
	for i, tri := range tris {
		rhss[i] = randRHS(tri.N, int64(i))
		wants[i] = make([]float64, tri.N)
		if err := ForwardSeq(tri, wants[i], rhss[i]); err != nil {
			t.Fatal(err)
		}
	}
	const clients = 8
	const iters = 20
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				which := (w + it) % len(tris)
				tri := tris[which]
				plan, err := pc.Get(tri, true, WithProcs(2), WithKind(executor.Pooled))
				if err != nil {
					t.Error(err)
					return
				}
				x := make([]float64, tri.N)
				plan.Solve(x, rhss[which])
				for i := range x {
					if x[i] != wants[which][i] {
						t.Errorf("client %d iter %d: wrong solution at %d", w, it, i)
						break
					}
				}
				if err := plan.Close(); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// Capacity 2 over 3 keys must have evicted; every Get must still have
	// been served.
	s := pc.Stats()
	if s.Evictions == 0 {
		t.Error("expected LRU evictions with capacity 2 over 3 keys")
	}
	if total := s.Hits + s.Coalesced + s.Misses; total != clients*iters {
		t.Errorf("accounted gets = %d, want %d", total, clients*iters)
	}
}

// TestLeasedPlanDoubleCloseKeepsSharedPool: a second Close on a leased
// plan must not fall through to the shared strategy and kill the pool
// other lease holders are using.
func TestLeasedPlanDoubleCloseKeepsSharedPool(t *testing.T) {
	pc := NewPlanCache(4)
	defer pc.Close()
	l := stencil.Laplace2D(12, 12).LowerWithDiag()
	p1, err := pc.Get(l, true, WithProcs(2), WithKind(executor.Pooled))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := pc.Get(l, true, WithProcs(2), WithKind(executor.Pooled))
	if err != nil {
		t.Fatal(err)
	}
	if err := p1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p1.Close(); err != nil {
		t.Fatal("second Close errored")
	}
	x := make([]float64, l.N)
	b := randRHS(l.N, 3)
	if _, err := p2.SolveCtx(context.Background(), x, b); err != nil {
		t.Fatalf("shared pool unusable after peer double-Close: %v", err)
	}
	p2.Close()
}

func TestLeasedPlanCloseReleasesNotCloses(t *testing.T) {
	pc := NewPlanCache(4)
	l := stencil.Laplace2D(12, 12).LowerWithDiag()
	p1, err := pc.Get(l, true, WithProcs(2), WithKind(executor.Pooled))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := pc.Get(l, true, WithProcs(2), WithKind(executor.Pooled))
	if err != nil {
		t.Fatal(err)
	}
	if err := p1.Close(); err != nil {
		t.Fatal(err)
	}
	// p2 still holds the skeleton: the shared pool must still run.
	x := make([]float64, l.N)
	b := randRHS(l.N, 5)
	p2.Solve(x, b)
	if err := p2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pc.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPlanCacheCloseIdempotent pins the Close contract: a second Close
// (even racing the first) returns nil, Gets after Close fail with
// ErrClosed, and plans leased across the Close stay solvable until their
// own (also idempotent) Close.
func TestPlanCacheCloseIdempotent(t *testing.T) {
	pc := NewPlanCache(4)
	l := stencil.Laplace2D(12, 12).LowerWithDiag()
	plan, err := pc.Get(l, true, WithProcs(2), WithKind(executor.Pooled))
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := pc.Close(); err != nil {
				t.Errorf("concurrent Close returned %v", err)
			}
		}()
	}
	wg.Wait()
	if err := pc.Close(); err != nil {
		t.Fatalf("Close after Close returned %v, want nil", err)
	}

	if _, err := pc.Get(l, true, WithProcs(2)); !errors.Is(err, plancache.ErrClosed) {
		t.Fatalf("Get after Close returned %v, want plancache.ErrClosed", err)
	}

	// The leased plan still solves (its skeleton is torn down only at the
	// last lease Close), and double-Closing the lease is a no-op.
	x := make([]float64, l.N)
	plan.Solve(x, randRHS(l.N, 9))
	if err := plan.Close(); err != nil {
		t.Fatal(err)
	}
	if err := plan.Close(); err != nil {
		t.Fatalf("second plan Close returned %v, want nil", err)
	}
}
