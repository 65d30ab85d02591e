package plancache

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// tracker is a cache value that records its Close calls; closing twice or
// using a closed value is the lifecycle bug the cache must prevent.
type tracker struct {
	id     int
	closes atomic.Int32
}

func (t *tracker) Close() error {
	t.closes.Add(1)
	return nil
}

func newTracker(id int) func() (*tracker, error) {
	return func() (*tracker, error) { return &tracker{id: id}, nil }
}

func TestGetHitMissStats(t *testing.T) {
	c := New[int, *tracker](0)
	defer c.Close()
	h1, err := c.Get(1, newTracker(1))
	if err != nil {
		t.Fatal(err)
	}
	h2, err := c.Get(1, func() (*tracker, error) {
		t.Fatal("builder ran on a resident key")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if h1.Value() != h2.Value() {
		t.Fatal("hit returned a different value")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Resident != 1 {
		t.Fatalf("stats = %+v, want 1 hit, 1 miss, 1 resident", s)
	}
	if got := s.HitRate(); got != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", got)
	}
	h1.Release()
	h2.Release()
}

func TestBuildErrorNotCached(t *testing.T) {
	c := New[int, *tracker](0)
	defer c.Close()
	boom := errors.New("boom")
	if _, err := c.Get(1, func() (*tracker, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if c.Len() != 0 {
		t.Fatalf("failed build left %d resident entries", c.Len())
	}
	// The key must be rebuildable after a failure.
	h, err := c.Get(1, newTracker(1))
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
}

func TestLRUEvictionClosesIdleEntries(t *testing.T) {
	c := New[int, *tracker](2)
	defer c.Close()
	var built []*tracker
	get := func(k int) *tracker {
		h, err := c.Get(k, func() (*tracker, error) {
			tr := &tracker{id: k}
			built = append(built, tr)
			return tr, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		v := h.Value()
		h.Release()
		return v
	}
	t1, t2 := get(1), get(2)
	get(1)       // touch 1: now 2 is least recently used
	t3 := get(3) // evicts 2
	if got := c.Stats().Evictions; got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	if t2.closes.Load() != 1 {
		t.Fatalf("evicted idle entry closed %d times, want 1", t2.closes.Load())
	}
	if t1.closes.Load() != 0 || t3.closes.Load() != 0 {
		t.Fatal("resident entries were closed")
	}
}

func TestEvictionDefersCloseToLastRelease(t *testing.T) {
	c := New[int, *tracker](0)
	h1, err := c.Get(1, newTracker(1))
	if err != nil {
		t.Fatal(err)
	}
	h2, err := c.Get(1, newTracker(1))
	if err != nil {
		t.Fatal(err)
	}
	tr := h1.Value()
	if !c.Evict(1) {
		t.Fatal("Evict found nothing")
	}
	if tr.closes.Load() != 0 {
		t.Fatal("entry closed while handles outstanding")
	}
	h1.Release()
	if tr.closes.Load() != 0 {
		t.Fatal("entry closed before final release")
	}
	h2.Release()
	if tr.closes.Load() != 1 {
		t.Fatalf("entry closed %d times after final release, want 1", tr.closes.Load())
	}
	// Release is idempotent.
	h2.Release()
	if tr.closes.Load() != 1 {
		t.Fatal("double release closed the entry again")
	}
	c.Close()
}

func TestSingleflightCoalescesConcurrentMisses(t *testing.T) {
	c := New[int, *tracker](0)
	defer c.Close()
	var builds atomic.Int32
	gate := make(chan struct{})
	const callers = 16
	var wg sync.WaitGroup
	values := make([]*tracker, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h, err := c.Get(7, func() (*tracker, error) {
				builds.Add(1)
				<-gate // hold the build open so every caller piles up
				return &tracker{id: 7}, nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			values[i] = h.Value()
			h.Release()
		}(i)
	}
	close(gate)
	wg.Wait()
	if builds.Load() != 1 {
		t.Fatalf("builder ran %d times for one key, want 1", builds.Load())
	}
	for i := 1; i < callers; i++ {
		if values[i] != values[0] {
			t.Fatal("coalesced callers received different values")
		}
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits+s.Coalesced != callers-1 {
		t.Fatalf("stats = %+v, want 1 miss and %d shared gets", s, callers-1)
	}
}

// TestBuildPanicDoesNotWedgeKey: a panicking builder must propagate to
// its caller, fail coalesced waiters with ErrBuildPanicked instead of
// blocking them forever, and leave the key rebuildable.
func TestBuildPanicDoesNotWedgeKey(t *testing.T) {
	c := New[int, *tracker](0)
	defer c.Close()
	gate := make(chan struct{})
	gate2 := make(chan struct{})
	waiterDone := make(chan error, 1)
	builderDone := make(chan any, 1)
	go func() {
		defer func() { builderDone <- recover() }()
		c.Get(1, func() (*tracker, error) {
			close(gate) // a waiter can now pile up on this in-flight build
			<-gate2
			panic("inspector blew up")
		})
	}()
	<-gate
	go func() {
		_, err := c.Get(1, newTracker(1))
		waiterDone <- err
	}()
	// Give the waiter a moment to park on the in-flight entry, then let
	// the builder panic.
	for c.Stats().Coalesced+c.Stats().Hits == 0 {
		runtime.Gosched()
	}
	close(gate2)
	if r := <-builderDone; r == nil {
		t.Fatal("builder panic did not propagate")
	}
	if err := <-waiterDone; !errors.Is(err, ErrBuildPanicked) {
		t.Fatalf("coalesced waiter got %v, want ErrBuildPanicked", err)
	}
	if s := c.Stats(); s.Coalesced != 0 || s.Hits != 0 {
		t.Fatalf("failed-build waiter still counted as served: %+v", s)
	}
	// The key must be rebuildable afterwards.
	h, err := c.Get(1, newTracker(1))
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	if c.Len() != 1 {
		t.Fatalf("resident = %d after rebuild, want 1", c.Len())
	}
}

func TestCloseEvictsAllAndRejectsGets(t *testing.T) {
	c := New[int, *tracker](0)
	h, err := c.Get(1, newTracker(1))
	if err != nil {
		t.Fatal(err)
	}
	tr := h.Value()
	h2, err := c.Get(2, newTracker(2))
	if err != nil {
		t.Fatal(err)
	}
	tr2 := h2.Value()
	h2.Release()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if tr2.closes.Load() != 1 {
		t.Fatal("idle entry not closed by cache Close")
	}
	if tr.closes.Load() != 0 {
		t.Fatal("held entry closed by cache Close")
	}
	if _, err := c.Get(3, newTracker(3)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after Close = %v, want ErrClosed", err)
	}
	h.Release()
	if tr.closes.Load() != 1 {
		t.Fatal("held entry not closed on release after cache Close")
	}
	if err := c.Close(); err != nil {
		t.Fatal("second Close errored")
	}
}

// TestConcurrentStress hammers one small cache with parallel Get, use,
// Evict, Stats and a final Close under the race detector, then checks the
// lifecycle invariants: no value observed closed while a handle pinned
// it, and every built value closed exactly once by the end.
func TestConcurrentStress(t *testing.T) {
	c := New[int, *tracker](4)
	var mu sync.Mutex
	var built []*tracker
	const (
		workers = 8
		iters   = 400
		keys    = 16
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < iters; i++ {
				k := rng.Intn(keys)
				h, err := c.Get(k, func() (*tracker, error) {
					tr := &tracker{id: k}
					mu.Lock()
					built = append(built, tr)
					mu.Unlock()
					return tr, nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				v := h.Value()
				if v.id != k {
					t.Errorf("key %d returned value for id %d", k, v.id)
				}
				if v.closes.Load() != 0 {
					t.Error("pinned value observed closed")
				}
				if rng.Intn(8) == 0 {
					c.Evict(rng.Intn(keys))
				}
				if rng.Intn(16) == 0 {
					c.Stats()
				}
				h.Release()
			}
		}(w)
	}
	wg.Wait()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, tr := range built {
		if n := tr.closes.Load(); n != 1 {
			t.Fatalf("tracker %d closed %d times, want exactly 1 (built %d total)", tr.id, n, len(built))
		}
	}
	s := c.Stats()
	total := s.Hits + s.Coalesced + s.Misses
	if total != workers*iters {
		t.Fatalf("accounted gets = %d, want %d", total, workers*iters)
	}
}

func ExampleCache() {
	c := New[string, *tracker](8)
	defer c.Close()
	h, _ := c.Get("mesh-120x120/p4", func() (*tracker, error) {
		fmt.Println("inspector runs once")
		return &tracker{}, nil
	})
	defer h.Release()
	h2, _ := c.Get("mesh-120x120/p4", func() (*tracker, error) {
		fmt.Println("never printed")
		return &tracker{}, nil
	})
	defer h2.Release()
	fmt.Println("shared:", h.Value() == h2.Value())
	// Output:
	// inspector runs once
	// shared: true
}

// TestLookupUnpinnedRead pins Lookup's contract: a hit counts and
// refreshes the entry's LRU position without taking a handle (so it
// allocates nothing and never defers an eviction's Close), a miss —
// including a key whose build is still in flight — counts and leaves
// the cache untouched.
func TestLookupUnpinnedRead(t *testing.T) {
	c := New[int, *tracker](2)
	defer c.Close()
	for _, k := range []int{1, 2} {
		h, err := c.Get(k, newTracker(k))
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	v1, ok := c.Lookup(1) // refreshes 1, leaving 2 the LRU victim
	if !ok || v1.id != 1 {
		t.Fatalf("Lookup(1) = %v, %v, want the resident value", v1, ok)
	}
	h, err := c.Get(3, newTracker(3))
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	if _, ok := c.Lookup(2); ok {
		t.Fatal("Lookup(2) hit: the lookup of 1 should have made 2 the eviction victim")
	}
	if _, ok := c.Lookup(1); !ok {
		t.Fatal("Lookup(1) missed after its LRU position was refreshed")
	}
	if s := c.Stats(); s.Hits != 2 || s.Misses != 4 || s.Evictions != 1 || s.Resident != 2 {
		t.Fatalf("stats = %+v, want 2 hits, 4 misses (3 builds + 1 lookup), 1 eviction, 2 resident", s)
	}
	// No handle was taken: evicting a looked-up entry closes it at once.
	c.Evict(1)
	if got := v1.closes.Load(); got != 1 {
		t.Fatalf("looked-up value closed %d times on eviction, want 1 (Lookup must not pin)", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { c.Lookup(3) }); allocs != 0 {
		t.Fatalf("Lookup hit = %v allocs/op, want 0", allocs)
	}

	// A key mid-build is a miss, not a wait.
	building, release := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		h, err := c.Get(9, func() (*tracker, error) {
			close(building)
			<-release
			return &tracker{id: 9}, nil
		})
		if err == nil {
			h.Release()
		}
	}()
	<-building
	if _, ok := c.Lookup(9); ok {
		t.Error("Lookup hit a key whose build is still in flight")
	}
	close(release)
	<-done
	if v, ok := c.Lookup(9); !ok || v.id != 9 {
		t.Errorf("Lookup(9) after the build = %v, %v, want the built value", v, ok)
	}
}
