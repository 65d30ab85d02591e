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

// TestPinnedReadWithoutBuilder pins Get's builder-less form — the only
// way to read a value that owns something: a hit counts, refreshes the
// entry's LRU position and pins it (so an eviction defers the value's
// Close to the Release) without allocating; an absent key counts a miss,
// fails with ErrAbsent and leaves the cache untouched; Peek sees the same
// values but counts nothing, moves nothing and pins nothing. Pinned
// follows every handle, Own's included.
func TestPinnedReadWithoutBuilder(t *testing.T) {
	c := New[int, *tracker](2)
	defer c.Close()
	for _, k := range []int{1, 2} {
		h, err := c.Get(k, newTracker(k))
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	if v, ok := c.Peek(1); !ok || v.id != 1 { // does not refresh 1
		t.Fatalf("Peek(1) = %v, %v, want the resident value", v, ok)
	}
	h2, err := c.Get(2, nil) // refreshes 2, leaving 1 the LRU victim
	if err != nil || h2.Value().id != 2 {
		t.Fatalf("Get(2, nil) = %v, want the resident value", err)
	}
	h3, err := c.Get(3, newTracker(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(1, nil); !errors.Is(err, ErrAbsent) {
		t.Fatalf("Get(1, nil) = %v, want ErrAbsent: the read of 2 should have made 1 the eviction victim", err)
	}
	if _, ok := c.Peek(1); ok {
		t.Fatal("Peek(1) hit an evicted key")
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 4 || s.Evictions != 1 || s.Resident != 2 || s.Pinned != 2 {
		t.Fatalf("stats = %+v, want 1 hit, 4 misses (3 builds + 1 absent read), 1 eviction, 2 resident, 2 pinned", s)
	}
	// The read pinned: evicting the entry does not close it until Release.
	v2 := h2.Value()
	c.Evict(2)
	if got := v2.closes.Load(); got != 0 {
		t.Fatalf("pinned value closed %d times by its eviction", got)
	}
	h2.Release()
	if got := v2.closes.Load(); got != 1 {
		t.Fatalf("evicted value closed %d times after its last release, want 1", got)
	}
	h3.Release()
	if allocs := testing.AllocsPerRun(100, func() {
		h, err := c.Get(3, nil)
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}); allocs != 0 {
		t.Fatalf("pinned read = %v allocs/op, want 0", allocs)
	}

	// An owned value is never resident and closes with its one handle.
	own := &tracker{id: 7}
	h := c.Own(own)
	if s := c.Stats(); h.Value() != own || s.Pinned != 1 || s.Resident != 1 {
		t.Fatalf("Own: value %v, stats %+v, want the value pinned once and not resident", h.Value(), s)
	}
	h.Release()
	h.Release() // a released handle is the zero handle: a no-op
	if got, s := own.closes.Load(), c.Stats(); got != 1 || s.Pinned != 0 {
		t.Fatalf("owned value closed %d times with %d pins left, want 1 and 0", got, s.Pinned)
	}
}

// TestGetSecondSight pins the admission rule: a first sight builds
// nothing, evicts nothing and counts one miss; the second sight within
// the cache's reach builds; eviction or being pushed out of the
// remembered first sights starts a key over.
func TestGetSecondSight(t *testing.T) {
	c := New[int, *tracker](2)
	builds := 0
	get := func(k int) error {
		h, err := c.GetSecondSight(k, func() (*tracker, error) {
			builds++
			return &tracker{id: k}, nil
		})
		if err == nil {
			if h.Value().id != k {
				t.Fatalf("key %d served value %d", k, h.Value().id)
			}
			err = h.Release()
		}
		return err
	}
	mustFirst := func(k int) {
		t.Helper()
		if err := get(k); !errors.Is(err, ErrFirstSight) {
			t.Fatalf("key %d: got %v, want ErrFirstSight", k, err)
		}
	}
	mustServe := func(k int) {
		t.Helper()
		if err := get(k); err != nil {
			t.Fatalf("key %d: %v", k, err)
		}
	}

	mustFirst(1)
	if st := c.Stats(); st.Misses != 1 || st.Resident != 0 || builds != 0 {
		t.Fatalf("first sight: stats %+v, %d builds; want 1 miss, nothing resident or built", st, builds)
	}
	mustServe(1) // second sight builds
	mustServe(1) // then hits
	if st := c.Stats(); st.Misses != 2 || st.Hits != 1 || builds != 1 {
		t.Fatalf("after second sight: stats %+v, %d builds; want 2 misses, 1 hit, 1 build", st, builds)
	}

	// Keys 2 and 3 fill the cache (capacity 2), evicting 1: it starts over.
	for _, k := range []int{2, 2, 3, 3} {
		_ = get(k)
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("stats %+v, want key 1 evicted", st)
	}
	mustFirst(1)
	mustServe(1)

	// Two newer first sights push a remembered one out of the reach.
	mustFirst(4)
	mustFirst(5)
	mustFirst(6)
	mustFirst(4)
	mustServe(6)

	// Get ignores the rule; Close forgets every first sight.
	h, err := c.Get(8, newTracker(8))
	if err != nil {
		t.Fatalf("Get built nothing on a first sight: %v", err)
	}
	_ = h.Release()
	mustFirst(7)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := get(7); !errors.Is(err, ErrClosed) {
		t.Fatalf("after Close: got %v, want ErrClosed", err)
	}
	if c.seen.slot != nil {
		t.Fatalf("Close kept %d first sights", len(c.seen.slot))
	}
}

// TestGetSecondSightUnbounded: an unbounded cache remembers every first
// sight until its second.
func TestGetSecondSightUnbounded(t *testing.T) {
	c := New[int, *tracker](0)
	defer c.Close()
	for k := 0; k < 100; k++ {
		if _, err := c.GetSecondSight(k, newTracker(k)); !errors.Is(err, ErrFirstSight) {
			t.Fatalf("key %d: got %v, want ErrFirstSight", k, err)
		}
	}
	for k := 0; k < 100; k++ {
		h, err := c.GetSecondSight(k, newTracker(k))
		if err != nil {
			t.Fatalf("key %d second sight: %v", k, err)
		}
		_ = h.Release()
	}
	if st := c.Stats(); st.Misses != 200 || st.Resident != 100 {
		t.Fatalf("stats %+v, want 200 misses and 100 resident", st)
	}
}
