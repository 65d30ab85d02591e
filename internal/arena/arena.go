// Package arena provides pooled request arenas, each with one resident
// slab of a single size, backed by a buddy-allocated region. A server request path that would
// otherwise allocate per request — decode buffers, RHS batches, factor
// values, response frames — instead Gets an Arena, bump-allocates
// everything it needs from the arena's resident slab, and Releases the
// arena back to the pool when the request completes. On the warm path
// (arena reused from the idle list, slab large enough) a request
// performs zero heap allocations.
//
// Lifetime: Pool.Get hands out a live Arena, and its one Release
// returns it to the pool. Releasing it again panics, as does allocating
// from a released arena — both are programming errors the lifecycle
// tests pin.
//
// Memory returned by the allocation methods is uninitialized (it is
// recycled bump space) and is only valid until the arena's Release;
// callers must not retain views across Release. The typed
// views (Float64s, Int32s) rely on the slab region's 8-byte alignment,
// which the buddy region and the bump pointer both maintain.
package arena

import (
	"sync"
	"sync/atomic"
)

// Config sizes a Pool. Zero values select the defaults.
type Config struct {
	// RegionBytes is the total buddy region backing all slabs (rounded up
	// to a power of two). Default 32 MiB.
	RegionBytes int
	// SlabBytes is the resident slab each arena keeps across reuse
	// (rounded up to a power of two). Default 1 MiB.
	SlabBytes int
	// MinBlock is the buddy split granularity (rounded up to a power of
	// two). Default 4 KiB.
	MinBlock int
}

func (c Config) withDefaults() Config {
	if c.RegionBytes <= 0 {
		c.RegionBytes = 32 << 20
	}
	if c.SlabBytes <= 0 {
		c.SlabBytes = 1 << 20
	}
	if c.MinBlock <= 0 {
		c.MinBlock = 4 << 10
	}
	if c.SlabBytes > c.RegionBytes {
		c.SlabBytes = c.RegionBytes
	}
	return c
}

// Stats is a point-in-time snapshot of pool activity, exposed by the
// server's /v1/stats endpoint and asserted by the leak check after the
// drain integration test (Outstanding must return to zero).
type Stats struct {
	Outstanding int    `json:"outstanding"` // arenas held by callers
	Idle        int    `json:"idle"`        // arenas parked in the pool
	Gets        uint64 `json:"gets"`
	Releases    uint64 `json:"releases"`   // final releases (arena returned)
	Grows       uint64 `json:"grows"`      // extra buddy blocks taken mid-request
	Overflows   uint64 `json:"overflows"`  // heap fallbacks (buddy exhausted or oversize)
	FreeBytes   int    `json:"free_bytes"` // buddy region bytes currently free
}

// Pool hands out request arenas. Safe for concurrent use.
type Pool struct {
	cfg Config

	mu          sync.Mutex
	buddy       *buddy
	idle        []*Arena
	outstanding int
	gets        uint64
	releases    uint64
	grows       uint64
	overflows   uint64
}

// NewPool builds a pool over a fresh buddy region.
func NewPool(cfg Config) *Pool {
	cfg = cfg.withDefaults()
	return &Pool{
		cfg:   cfg,
		buddy: newBuddy(cfg.RegionBytes, cfg.MinBlock),
	}
}

// Get returns an arena with reference count 1. The arena comes off the
// idle list when one is parked (the warm path — no allocation), or is
// built fresh with a slab carved from the buddy region.
func (p *Pool) Get() *Arena {
	p.mu.Lock()
	p.gets++
	p.outstanding++
	if n := len(p.idle); n > 0 {
		a := p.idle[n-1]
		p.idle[n-1] = nil
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		a.refs.Store(1)
		return a
	}
	slab, off, ok := p.buddy.alloc(p.cfg.SlabBytes)
	if !ok {
		// Region exhausted: a heap slab keeps the server serving; the
		// overflow counter makes the misconfiguration visible in stats.
		p.overflows++
		slab, off = newBuddyRegion(p.cfg.SlabBytes), -1
	}
	p.mu.Unlock()
	a := &Arena{pool: p, slab: slab, slabOff: off, cur: slab}
	a.refs.Store(1)
	return a
}

// Stats snapshots the pool counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{
		Outstanding: p.outstanding,
		Idle:        len(p.idle),
		Gets:        p.gets,
		Releases:    p.releases,
		Grows:       p.grows,
		Overflows:   p.overflows,
		FreeBytes:   p.buddy.freeBytes(),
	}
}

// Trim releases the slabs of up to n idle arenas back to the buddy
// region (all idle arenas when n < 0). Reused by tests to exercise the
// buddy merge path; a server would call it on memory pressure.
func (p *Pool) Trim(n int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	trimmed := 0
	for (n < 0 || trimmed < n) && len(p.idle) > 0 {
		a := p.idle[len(p.idle)-1]
		p.idle = p.idle[:len(p.idle)-1]
		if a.slabOff >= 0 {
			p.buddy.freeBlock(a.slabOff)
		}
		trimmed++
	}
	return trimmed
}

// Arena is a bump allocator over pooled slab memory. Not safe for
// concurrent allocation.
type Arena struct {
	pool *Pool
	refs atomic.Int64

	// slab is the resident block kept across reuse; cur is the block the
	// bump pointer currently walks (the slab, or the latest overflow
	// block). off is 8-aligned at all times.
	slab    []byte
	slabOff int
	cur     []byte
	off     int

	// extra holds blocks acquired mid-request beyond the slab; buddy
	// blocks carry their region offset, heap fallbacks carry -1. All are
	// returned or dropped on final Release.
	extra     [][]byte
	extraOffs []int

	// rows is a reusable header array for [][]float64 batch views, so
	// building a k-vector batch doesn't allocate header storage per
	// request. Grown on demand, retained across reuse.
	rows     [][]float64
	rowsUsed int
}

// Release returns the arena's extra blocks to the buddy region and parks
// the arena on the pool's idle list. Releasing it twice panics.
func (a *Arena) Release() {
	if a.refs.Add(-1) < 0 {
		panic("arena: double Release")
	}
	p := a.pool
	p.mu.Lock()
	for i, off := range a.extraOffs {
		if off >= 0 {
			p.buddy.freeBlock(off)
		}
		a.extra[i] = nil
	}
	a.extra = a.extra[:0]
	a.extraOffs = a.extraOffs[:0]
	a.cur = a.slab
	a.off = 0
	a.rowsUsed = 0
	p.outstanding--
	p.releases++
	p.idle = append(p.idle, a)
	p.mu.Unlock()
}

// Bytes returns an 8-aligned, uninitialized slice of n bytes valid
// until the arena's final Release.
func (a *Arena) Bytes(n int) []byte {
	if a.refs.Load() <= 0 {
		panic("arena: allocation from released arena")
	}
	need := (n + 7) &^ 7
	if a.off+need > len(a.cur) {
		a.grow(need)
	}
	b := a.cur[a.off : a.off+n : a.off+n]
	a.off += need
	return b
}

// grow acquires a fresh block of at least need bytes (at least a slab)
// and makes it the current bump block. A buddy block is the slab size
// doubled until it fits; a heap overflow block is only max(slab, need),
// since nothing rounds it. The remainder of the previous block is
// abandoned until Release — bump allocators trade that slack for never
// scanning a free list on the hot path.
func (a *Arena) grow(need int) {
	p := a.pool
	slab := p.cfg.SlabBytes
	size := slab
	for size < need {
		size *= 2
	}
	p.mu.Lock()
	block, off, ok := p.buddy.alloc(size)
	if ok {
		p.grows++
	} else {
		p.overflows++
		block, off = newBuddyRegion(max(slab, need)), -1
	}
	p.mu.Unlock()
	a.extra = append(a.extra, block)
	a.extraOffs = append(a.extraOffs, off)
	a.cur = block
	a.off = 0
}

// Float64s returns an uninitialized []float64 of length n backed by
// arena memory.
func (a *Arena) Float64s(n int) []float64 {
	return viewFloat64s(a.Bytes(n * 8))
}

// Int32s returns an uninitialized []int32 of length n backed by arena
// memory.
func (a *Arena) Int32s(n int) []int32 {
	return viewInt32s(a.Bytes(n * 4))
}

// Rows returns a [][]float64 header array of length k from the arena's
// reusable header storage. The headers are stale from previous use;
// callers assign every element. Headers live in ordinary Go memory (not
// the byte slab) so the garbage collector sees the row pointers.
func (a *Arena) Rows(k int) [][]float64 {
	if a.refs.Load() <= 0 {
		panic("arena: allocation from released arena")
	}
	if a.rowsUsed+k > len(a.rows) {
		grown := make([][]float64, a.rowsUsed+k+16)
		copy(grown, a.rows[:a.rowsUsed])
		a.rows = grown
	}
	r := a.rows[a.rowsUsed : a.rowsUsed+k : a.rowsUsed+k]
	a.rowsUsed += k
	return r
}
