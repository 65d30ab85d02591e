package core

import (
	"errors"
	"sync"
	"testing"

	"doconsider/internal/executor"
	"doconsider/internal/plancache"
	"doconsider/internal/wavefront"
)

func chainDeps(n int) *wavefront.Deps {
	adj := make([][]int32, n)
	for i := 1; i < n; i++ {
		adj[i] = []int32{int32(i - 1)}
	}
	return wavefront.FromAdjacency(adj)
}

func TestCacheSharesRuntime(t *testing.T) {
	c := NewCache(8)
	defer c.Close()
	deps := chainDeps(64)
	l1, err := c.Get(deps, WithProcs(2))
	if err != nil {
		t.Fatal(err)
	}
	defer l1.Release()
	l2, err := c.Get(deps, WithProcs(2))
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Release()
	if l1.Runtime() != l2.Runtime() {
		t.Fatal("same deps and options produced different runtimes")
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 miss + 1 hit", s)
	}
	// A different configuration must not share the plan.
	l3, err := c.Get(deps, WithProcs(3))
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Release()
	if l3.Runtime() == l1.Runtime() {
		t.Fatal("different procs shared one runtime")
	}
	// A structurally different graph must not share the plan.
	l4, err := c.Get(chainDeps(65), WithProcs(2))
	if err != nil {
		t.Fatal(err)
	}
	defer l4.Release()
	if l4.Runtime() == l1.Runtime() {
		t.Fatal("different structure shared one runtime")
	}
}

// TestCacheConcurrentPooledRuns exercises the advertised contract: many
// goroutines lease one cached pooled Runtime and Run it concurrently.
func TestCacheConcurrentPooledRuns(t *testing.T) {
	c := NewCache(4)
	defer c.Close()
	const n = 256
	deps := chainDeps(n)
	const clients = 6
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lease, err := c.Get(deps, WithProcs(2), WithExecutor(executor.Pooled))
			if err != nil {
				t.Error(err)
				return
			}
			defer lease.Release()
			x := make([]int32, n)
			m := lease.Runtime().Run(func(i int32) {
				if i > 0 {
					x[i] = x[i-1] + 1
				}
			})
			if m.Executed != n {
				t.Errorf("executed %d bodies, want %d", m.Executed, n)
			}
			if x[n-1] != n-1 {
				t.Errorf("chain result %d, want %d", x[n-1], n-1)
			}
		}()
	}
	wg.Wait()
	s := c.Stats()
	if s.Misses != 1 {
		t.Fatalf("misses = %d, want 1 (inspector must run once for %d clients)", s.Misses, clients)
	}
}

// TestCacheCloseIdempotent pins the Close contract: a second Close (even
// racing the first) returns nil, Gets after Close fail with ErrClosed,
// and a Runtime leased across the Close stays usable until released.
func TestCacheCloseIdempotent(t *testing.T) {
	c := NewCache(4)
	deps := chainDeps(64)
	lease, err := c.Get(deps, WithProcs(2), WithExecutor(executor.Pooled))
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.Close(); err != nil {
				t.Errorf("concurrent Close returned %v", err)
			}
		}()
	}
	wg.Wait()
	if err := c.Close(); err != nil {
		t.Fatalf("Close after Close returned %v, want nil", err)
	}

	if _, err := c.Get(deps, WithProcs(2)); !errors.Is(err, plancache.ErrClosed) {
		t.Fatalf("Get after Close returned %v, want plancache.ErrClosed", err)
	}

	// The outstanding lease survives the Close; teardown happens at the
	// final Release, which must also be idempotent.
	if m := lease.Runtime().Run(func(int32) {}); m.Executed != 64 {
		t.Fatalf("leased runtime executed %d bodies after cache Close, want 64", m.Executed)
	}
	if err := lease.Release(); err != nil {
		t.Fatal(err)
	}
	if err := lease.Release(); err != nil {
		t.Fatalf("second Release returned %v, want nil", err)
	}
}
