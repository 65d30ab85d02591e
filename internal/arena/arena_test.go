package arena

import (
	"sync"
	"testing"
)

func TestPoolReuseZeroAlloc(t *testing.T) {
	p := NewPool(Config{RegionBytes: 1 << 20, SlabBytes: 1 << 16})
	// Warm the pool so the steady state is a pure idle-list pop.
	a := p.Get()
	a.Release()

	allocs := testing.AllocsPerRun(100, func() {
		a := p.Get()
		_ = a.Float64s(512)
		_ = a.Int32s(128)
		rows := a.Rows(4)
		for i := range rows {
			rows[i] = nil
		}
		a.Release()
	})
	if allocs != 0 {
		t.Fatalf("warm Get/alloc/Release = %v allocs/op, want 0", allocs)
	}
}

func TestArenaDoubleRelease(t *testing.T) {
	p := NewPool(Config{RegionBytes: 1 << 18, SlabBytes: 1 << 14})
	a := p.Get()
	a.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double Release did not panic")
		}
	}()
	a.Release()
}

func TestArenaUseAfterRelease(t *testing.T) {
	p := NewPool(Config{RegionBytes: 1 << 18, SlabBytes: 1 << 14})
	a := p.Get()
	a.Release()
	t.Run("bytes", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("Bytes after Release did not panic")
			}
		}()
		_ = a.Bytes(8)
	})
	t.Run("rows", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("Rows after Release did not panic")
			}
		}()
		_ = a.Rows(1)
	})
}

// TestArenaGrowAndOverflow exercises mid-request growth past the slab
// (buddy-backed) and past the whole region (heap fallback), and checks
// the blocks return to the buddy on Release.
func TestArenaGrowAndOverflow(t *testing.T) {
	p := NewPool(Config{RegionBytes: 1 << 16, SlabBytes: 1 << 12})
	a := p.Get()
	free0 := p.Stats().FreeBytes

	// Larger than the slab: takes a buddy block.
	big := a.Bytes(1 << 13)
	if len(big) != 1<<13 {
		t.Fatalf("grow alloc len = %d", len(big))
	}
	s := p.Stats()
	if s.Grows != 1 {
		t.Fatalf("grows = %d, want 1", s.Grows)
	}
	if s.FreeBytes >= free0 {
		t.Fatalf("free bytes did not drop on grow: %d -> %d", free0, s.FreeBytes)
	}

	// Larger than the region: heap fallback, counted as overflow.
	huge := a.Bytes(1 << 17)
	if len(huge) != 1<<17 || !Aligned8(huge) {
		t.Fatalf("overflow alloc len=%d aligned=%v", len(huge), Aligned8(huge))
	}
	if got := p.Stats().Overflows; got != 1 {
		t.Fatalf("overflows = %d, want 1", got)
	}

	a.Release()
	if got := p.Stats().FreeBytes; got != free0 {
		t.Fatalf("free bytes after Release = %d, want %d (buddy blocks not returned)", got, free0)
	}
}

// TestOverflowReservesRequestSize pins the heap-overflow block's size: a
// request past the whole region gets a block of its own size, not the
// slab doubled past it (33 MiB once reserved 64 MiB on the default pool).
func TestOverflowReservesRequestSize(t *testing.T) {
	p := NewPool(Config{})
	a := p.Get()
	defer a.Release()
	b := a.Bytes(33 << 20)
	if len(b) != 33<<20 || !Aligned8(b) {
		t.Fatalf("overflow alloc len=%d aligned=%v", len(b), Aligned8(b))
	}
	if got := len(a.cur); got >= 34<<20 {
		t.Errorf("overflow block reserves %d bytes for a 33 MiB request, want < 34 MiB", got)
	}
	if got := p.Stats().Overflows; got != 1 {
		t.Errorf("overflows = %d, want 1", got)
	}
}

// TestPoolTrim returns idle slabs to the buddy region and verifies full
// coalescing when everything is trimmed.
func TestPoolTrim(t *testing.T) {
	p := NewPool(Config{RegionBytes: 1 << 16, SlabBytes: 1 << 12})
	var arenas []*Arena
	for i := 0; i < 4; i++ {
		arenas = append(arenas, p.Get())
	}
	for _, a := range arenas {
		a.Release()
	}
	if s := p.Stats(); s.Idle != 4 {
		t.Fatalf("idle = %d, want 4", s.Idle)
	}
	if n := p.Trim(-1); n != 4 {
		t.Fatalf("trimmed %d, want 4", n)
	}
	if got := p.Stats().FreeBytes; got != 1<<16 {
		t.Fatalf("free bytes after full trim = %d, want %d", got, 1<<16)
	}
}

// TestPoolConcurrent hammers Get/alloc/Release from many
// goroutines; run under -race this is the concurrency regression test,
// and the final stats assert no arena leaked.
func TestPoolConcurrent(t *testing.T) {
	p := NewPool(Config{RegionBytes: 1 << 20, SlabBytes: 1 << 13})
	const workers = 8
	const iters = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				a := p.Get()
				xs := a.Float64s(64 + (seed+i)%256)
				for j := range xs {
					xs[j] = float64(j)
				}
				a.Release()
			}
		}(w)
	}
	wg.Wait()
	s := p.Stats()
	if s.Outstanding != 0 {
		t.Fatalf("leak: %d arenas still outstanding", s.Outstanding)
	}
	if s.Gets != workers*iters {
		t.Fatalf("gets = %d, want %d", s.Gets, workers*iters)
	}
	if s.Gets != s.Releases {
		t.Fatalf("gets=%d releases=%d, want equal", s.Gets, s.Releases)
	}
}

func TestViews(t *testing.T) {
	p := NewPool(Config{})
	a := p.Get()
	defer a.Release()

	f := a.Float64s(8)
	for i := range f {
		f[i] = float64(i) * 1.5
	}
	// The float view and the raw bytes share memory.
	b := a.Bytes(32)
	i32 := ViewInt32s(b)
	if len(i32) != 8 {
		t.Fatalf("int32 view len = %d", len(i32))
	}
	i32[7] = -5
	if got := ViewInt32s(b)[7]; got != -5 {
		t.Fatalf("view not aliased: %d", got)
	}
	u := ViewUint64s(a.Bytes(16))
	if len(u) != 2 {
		t.Fatalf("uint64 view len = %d", len(u))
	}
}

func TestViewMisalignedPanics(t *testing.T) {
	raw := newBuddyRegion(64)
	defer func() {
		if recover() == nil {
			t.Fatal("misaligned view did not panic")
		}
	}()
	_ = ViewFloat64s(raw[4:20])
}

// TestRowsGrowth checks the reusable header array grows and is reused
// without retaining stale data ownership semantics the callers rely on.
func TestRowsGrowth(t *testing.T) {
	p := NewPool(Config{})
	a := p.Get()
	r1 := a.Rows(100)
	if len(r1) != 100 {
		t.Fatalf("rows len = %d", len(r1))
	}
	r2 := a.Rows(3)
	r2[0] = []float64{1}
	a.Release()

	// After recycle the header storage is reused from the start.
	a2 := p.Get()
	r3 := a2.Rows(2)
	if len(r3) != 2 {
		t.Fatalf("rows len after recycle = %d", len(r3))
	}
	a2.Release()
}
