// Package plancache provides a concurrency-safe, reference-counted LRU
// cache for prepared execution plans. The paper's economics rest on
// amortizing the inspector over many executor runs (§5.1.1); this package
// extends that amortization across callers: N concurrent clients solving
// structurally identical problems share one inspector run instead of
// paying N times.
//
// The cache is generic over the key (a fingerprint of the dependence
// structure plus the plan configuration) and the value (anything with a
// Close method: a trisolve plan skeleton, the serving tier's resident
// factor, ...). Three properties make it safe for the serving workloads
// the roadmap targets:
//
//   - Singleflight misses: concurrent Gets for the same absent key run the
//     builder once; the losers block until the winner's plan is ready and
//     then share it.
//   - Reference counting: every read that hands out a value returns it
//     behind a Handle that pins the entry. An entry evicted by LRU pressure
//     (or by Close) is only Closed after the last handle is released, so no
//     caller ever runs a torn-down plan. Peek, the one unpinned read, is
//     for observers of fields a value's Close does not touch.
//   - Close-on-evict: once the final reference to an evicted entry drops,
//     its value's Close runs exactly once.
//
// GetSecondSight adds the admission rule of ghost-list caches (ARC's
// ghost lists, TinyLFU's doorkeeper): a key is built only the second
// time it is asked for within the cache's reach, so a value that would
// be used once is never built, and never displaces one that is reused.
package plancache

import (
	"errors"
	"io"
	"sync"
)

// ErrClosed reports a Get on a cache whose Close has been called.
var ErrClosed = errors.New("plancache: cache is closed")

// ErrAbsent reports a Get without a builder for a key that is not resident.
var ErrAbsent = errors.New("plancache: key is not resident")

// ErrFirstSight reports a GetSecondSight of a key that is neither
// resident nor remembered from an earlier first sight; the key is now
// remembered, and nothing was built.
var ErrFirstSight = errors.New("plancache: first sight of key")

// ErrBuildPanicked is returned to callers coalesced onto a build whose
// builder panicked (the panic itself propagates on the builder's
// goroutine). The key is removed, so a later Get retries the build.
var ErrBuildPanicked = errors.New("plancache: plan builder panicked")

// Stats is a point-in-time snapshot of cache effectiveness counters.
type Stats struct {
	Hits      uint64 // Gets served from a resident, built entry
	Coalesced uint64 // Gets served by joining another caller's in-flight build
	Misses    uint64 // Gets that ran the builder (successfully or not)
	Evictions uint64 // entries displaced by LRU pressure or cache Close
	Resident  int    // entries currently in the cache (built or building)
	Pinned    int    // outstanding handles, over resident and evicted entries alike
}

// HitRate returns the fraction of Gets served without running the builder.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Coalesced + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.Coalesced) / float64(total)
}

// Cache is a keyed plan cache with LRU eviction. The zero value is not
// usable; construct with New. All methods are safe for concurrent use.
type Cache[K comparable, V io.Closer] struct {
	mu       sync.Mutex
	capacity int // <= 0 means unbounded
	entries  map[K]*entry[K, V]
	lru      lruList[K, V] // front = most recently used
	stats    Stats         // Resident is filled in by Stats; Pinned is live
	seen     seenSet[K]    // GetSecondSight's first sights
	closed   bool
}

// seenSet is the FIFO of keys GetSecondSight turned away on first
// sight: the last capacity of them for a bounded cache, every one for
// an unbounded cache. A key leaves when it is admitted (its second
// sight) or when capacity newer first sights have pushed it out.
type seenSet[K comparable] struct {
	slot map[K]int // key → its position in ring (0 when unbounded)
	ring []K       // bounded caches: the last capacity first sights
	next int       // ring position of the oldest first sight
}

// admit reports whether key was seen before, forgetting it if so, and
// otherwise remembers it, pushing out the oldest first sight when the
// ring is full.
func (s *seenSet[K]) admit(key K, capacity int) bool {
	if _, ok := s.slot[key]; ok {
		delete(s.slot, key)
		return true
	}
	if s.slot == nil {
		s.slot = make(map[K]int)
	}
	if capacity <= 0 {
		s.slot[key] = 0
		return false
	}
	if len(s.ring) < capacity {
		s.ring = append(s.ring, key)
		s.slot[key] = len(s.ring) - 1
		return false
	}
	// The slot's old key is pushed out unless it was admitted since
	// (and perhaps seen again, in another slot).
	if i, ok := s.slot[s.ring[s.next]]; ok && i == s.next {
		delete(s.slot, s.ring[s.next])
	}
	s.ring[s.next] = key
	s.slot[key] = s.next
	s.next = (s.next + 1) % capacity
	return false
}

// entry is one cached plan. refs counts outstanding Handles plus, during
// construction, the builder itself; evicted entries are out of the map and
// are closed when refs reaches zero.
type entry[K comparable, V io.Closer] struct {
	key        K
	val        V
	err        error
	ready      chan struct{} // closed when the builder finishes
	refs       int           // guarded by Cache.mu
	evicted    bool          // guarded by Cache.mu
	built      bool          // val is valid and must eventually be Closed
	prev, next *entry[K, V]  // LRU links, guarded by Cache.mu
}

// New returns a cache holding at most capacity plans; capacity <= 0 means
// unbounded. Eviction is strict LRU over resident entries, but an entry
// with outstanding handles is torn down only after its last Release.
func New[K comparable, V io.Closer](capacity int) *Cache[K, V] {
	return &Cache[K, V]{capacity: capacity, entries: make(map[K]*entry[K, V])}
}

// Get returns a handle to the plan cached under key, building it with
// build on a miss. Concurrent Gets for one absent key run build once and
// share the result. The caller must Release the handle when done with the
// plan; the value stays valid until then even if the entry is evicted. If
// build fails, the error is returned to every waiting caller and nothing
// is cached. A nil build makes Get a pure read: an absent key counts a
// miss and fails with ErrAbsent, leaving the cache untouched. A hit
// allocates nothing.
func (c *Cache[K, V]) Get(key K, build func() (V, error)) (Handle[K, V], error) {
	return c.get(key, build, false)
}

// GetSecondSight is Get that builds only a key it has seen before: a
// resident key is served exactly as by Get, while an absent key seen for
// the first time within the cache's reach — the last capacity first
// sights, all of them when unbounded — is remembered, counted as a miss
// and answered with ErrFirstSight, nothing built and nothing evicted. Its
// next GetSecondSight, while still remembered, builds it as Get would.
// A key that was evicted, or pushed out of the remembered set, starts
// over. build must be non-nil.
func (c *Cache[K, V]) GetSecondSight(key K, build func() (V, error)) (Handle[K, V], error) {
	return c.get(key, build, true)
}

func (c *Cache[K, V]) get(key K, build func() (V, error), secondSight bool) (Handle[K, V], error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return Handle[K, V]{}, ErrClosed
	}
	if e, ok := c.entries[key]; ok {
		c.pinLocked(e)
		c.lru.moveToFront(e)
		select {
		case <-e.ready:
			c.stats.Hits++
		default:
			c.stats.Coalesced++
		}
		c.mu.Unlock()
		<-e.ready
		if e.err != nil {
			// The builder already removed the failed entry from the map;
			// drop the reference taken above and uncount this Get from
			// Coalesced — it was not served a plan, and leaving it in
			// would inflate HitRate whenever builds fail. (A waiter on a
			// build that fails is always in the Coalesced bucket: the
			// failure path removes the entry from the map before closing
			// ready, so no Get can count a Hit against a failed entry.)
			err := e.err
			c.mu.Lock()
			c.stats.Coalesced--
			toClose := c.releaseLocked(e)
			c.mu.Unlock()
			closeIgnored(toClose)
			return Handle[K, V]{}, err
		}
		return Handle[K, V]{c: c, e: e}, nil
	}
	if build == nil {
		c.stats.Misses++
		c.mu.Unlock()
		return Handle[K, V]{}, ErrAbsent
	}
	if secondSight && !c.seen.admit(key, c.capacity) {
		c.stats.Misses++
		c.mu.Unlock()
		return Handle[K, V]{}, ErrFirstSight
	}
	e := &entry[K, V]{key: key, ready: make(chan struct{})}
	c.pinLocked(e)
	c.entries[key] = e
	c.lru.pushFront(e)
	c.stats.Misses++
	evict := c.evictExcessLocked()
	c.mu.Unlock()
	closeIgnored(evict)

	v, err := c.runBuild(e, build)

	c.mu.Lock()
	e.val, e.err = v, err
	e.built = err == nil
	if err != nil && !e.evicted {
		delete(c.entries, e.key)
		c.lru.remove(e)
		e.evicted = true
	}
	var toClose []V
	if err != nil {
		toClose = c.releaseLocked(e)
	}
	c.mu.Unlock()
	close(e.ready)
	if err != nil {
		closeIgnored(toClose)
		return Handle[K, V]{}, err
	}
	return Handle[K, V]{c: c, e: e}, nil
}

// Own returns a handle to a value that is never resident: v belongs to
// the handle alone and is Closed by its Release. A caller that could not
// cache a value (the cache is closed, the key is taken by a different
// value) gives it the same one-release lifetime as a cached one this way.
func (c *Cache[K, V]) Own(v V) Handle[K, V] {
	e := &entry[K, V]{val: v, evicted: true, built: true}
	c.mu.Lock()
	c.pinLocked(e)
	c.mu.Unlock()
	return Handle[K, V]{c: c, e: e}
}

// runBuild invokes the builder, converting a panic (or runtime.Goexit)
// into a failed entry first: the entry is removed and its ready channel
// closed with ErrBuildPanicked, so coalesced and future Gets for the key
// fail or retry instead of blocking forever on a channel nobody will
// close. The panic itself still propagates to the building caller.
func (c *Cache[K, V]) runBuild(e *entry[K, V], build func() (V, error)) (v V, err error) {
	completed := false
	defer func() {
		if completed {
			return
		}
		c.mu.Lock()
		e.err = ErrBuildPanicked
		if !e.evicted {
			delete(c.entries, e.key)
			c.lru.remove(e)
			e.evicted = true
		}
		toClose := c.releaseLocked(e) // drop the builder's reference
		c.mu.Unlock()
		close(e.ready)
		closeIgnored(toClose)
	}()
	v, err = build()
	completed = true
	return v, err
}

// Peek returns the value cached under key without pinning it, counting
// nothing and leaving the LRU order alone — enumeration (the sharded
// tier's warm handoff) must not look like demand. A key whose build is
// still in flight reads as absent. The value may be evicted and Closed
// while the caller still looks at it, so Peek suits only reads of what
// Close does not touch.
func (c *Cache[K, V]) Peek(key K) (v V, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.entries[key]; e != nil && e.built {
		return e.val, true
	}
	return v, false
}

// Keys returns up to limit resident keys, most recently used first
// (limit <= 0 means all). Entries still being built are included — a
// key's presence means a caller wanted it, which is what hotness
// enumeration (the sharded tier's warm handoff) needs. The snapshot is
// point-in-time: keys may be evicted before the caller acts on them.
func (c *Cache[K, V]) Keys(limit int) []K {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.entries)
	if limit > 0 && limit < n {
		n = limit
	}
	keys := make([]K, 0, n)
	for e := c.lru.front; e != nil && len(keys) < n; e = e.next {
		keys = append(keys, e.key)
	}
	return keys
}

// Stats returns a snapshot of the cache counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Resident = len(c.entries)
	return s
}

// Len returns the number of resident entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Evict removes the entry for key, if resident, returning whether it was.
// The entry's value is closed once its outstanding handles are released.
func (c *Cache[K, V]) Evict(key K) bool {
	c.mu.Lock()
	e, ok := c.entries[key]
	var toClose []V
	if ok {
		toClose = c.evictLocked(e)
	}
	c.mu.Unlock()
	closeIgnored(toClose)
	return ok
}

// Close evicts every entry and marks the cache closed; subsequent Gets
// return ErrClosed. Entries with outstanding handles are closed when their
// last handle is released. Close is idempotent.
func (c *Cache[K, V]) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.seen = seenSet[K]{}
	var toClose []V
	for c.lru.back != nil {
		toClose = append(toClose, c.evictLocked(c.lru.back)...)
	}
	c.mu.Unlock()
	return closeAll(toClose)
}

// evictExcessLocked applies the LRU bound, returning values to close.
func (c *Cache[K, V]) evictExcessLocked() []V {
	if c.capacity <= 0 {
		return nil
	}
	var toClose []V
	for len(c.entries) > c.capacity && c.lru.back != nil {
		toClose = append(toClose, c.evictLocked(c.lru.back)...)
	}
	return toClose
}

// evictLocked unlinks e from the map and LRU list; if no handles remain it
// returns the value for the caller to close outside the lock.
func (c *Cache[K, V]) evictLocked(e *entry[K, V]) []V {
	delete(c.entries, e.key)
	c.lru.remove(e)
	e.evicted = true
	c.stats.Evictions++
	if e.refs == 0 && e.built {
		e.built = false
		return []V{e.val}
	}
	return nil
}

// pinLocked takes one reference to e.
func (c *Cache[K, V]) pinLocked(e *entry[K, V]) {
	e.refs++
	c.stats.Pinned++
}

// releaseLocked drops one reference, returning the value to close if e was
// evicted and this was the final reference.
func (c *Cache[K, V]) releaseLocked(e *entry[K, V]) []V {
	e.refs--
	c.stats.Pinned--
	if e.refs == 0 && e.evicted && e.built {
		e.built = false
		return []V{e.val}
	}
	return nil
}

// Handle is one pin on a cached plan; Value stays usable until Release.
// It is a small value, so taking one allocates nothing: keep it where the
// pin's owner lives and copy it only to move the pin, never to share it.
// The zero Handle pins nothing.
type Handle[K comparable, V io.Closer] struct {
	c *Cache[K, V]
	e *entry[K, V]
}

// Value returns the cached plan. It must not be used after Release.
func (h Handle[K, V]) Value() V { return h.e.val }

// Release unpins the plan and zeroes the handle, so a second Release of
// the same handle (or of the zero Handle) is a no-op. If the entry was
// evicted and this was its last handle, the plan's Close runs here and its
// error is returned.
func (h *Handle[K, V]) Release() error {
	c, e := h.c, h.e
	if e == nil {
		return nil
	}
	*h = Handle[K, V]{}
	c.mu.Lock()
	toClose := c.releaseLocked(e)
	c.mu.Unlock()
	return closeAll(toClose)
}

func closeAll[V io.Closer](vs []V) error {
	var first error
	for _, v := range vs {
		if err := v.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func closeIgnored[V io.Closer](vs []V) { _ = closeAll(vs) }

// lruList is an intrusive doubly-linked list over entries; front is the
// most recently used end.
type lruList[K comparable, V io.Closer] struct {
	front, back *entry[K, V]
}

func (l *lruList[K, V]) pushFront(e *entry[K, V]) {
	e.prev, e.next = nil, l.front
	if l.front != nil {
		l.front.prev = e
	}
	l.front = e
	if l.back == nil {
		l.back = e
	}
}

func (l *lruList[K, V]) remove(e *entry[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.front = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.back = e.prev
	}
	e.prev, e.next = nil, nil
}

func (l *lruList[K, V]) moveToFront(e *entry[K, V]) {
	if l.front == e {
		return
	}
	l.remove(e)
	l.pushFront(e)
}
