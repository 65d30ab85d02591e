package core

import (
	"math"

	"doconsider/internal/fphash"
	"doconsider/internal/plancache"
	"doconsider/internal/planner"
	"doconsider/internal/wavefront"
)

// Cache is a concurrency-safe LRU cache of prepared Runtimes keyed by the
// dependence-structure fingerprint plus the plan-shaping configuration
// (procs, scheduler, executor kind, partition, phase merging, work
// weights). Concurrent Gets for an absent key run the inspector once and
// share the resulting Runtime — including, for the Pooled kind, one
// persistent worker pool — so N callers solving structurally identical
// problems pay one wavefront analysis instead of N (§5.1.1 amortization
// across callers, not just across iterations).
//
// A shared Runtime is safe for concurrent Run/RunCtx/RunBatch calls: the
// stateless executor kinds carry no per-run mutable state, and the pooled
// executor serializes runs on its internal pool.
type Cache struct {
	c *plancache.Cache[cacheKey, *Runtime]
}

// cacheKey identifies a plan. ParallelInspector is deliberately excluded:
// it changes how wavefronts are computed, not what they are. Adaptive
// plans (no pinned kind) key on auto plus the cost model identity: the
// planner's choice is a pure function of (structure, procs, model), so
// two adaptive Gets under one model always agree, while a Get pinning a
// kind never shares an entry with an adaptive one that happened to pick
// the same kind.
type cacheKey struct {
	fp        uint64
	procs     int
	scheduler Scheduler
	kind      int // executor.Kind; int keeps the key comparable and compact
	auto      bool
	model     planner.CostModel // zero + !hasModel = host model; compared by value
	hasModel  bool              // so fresh-but-equal models (planner.Default() per call) share entries
	partition int               // schedule.Partition
	merge     bool
	weightsFp uint64
}

// NewCache returns a runtime cache holding at most capacity plans;
// capacity <= 0 means unbounded. Evicted Runtimes are Closed after their
// last lease is released.
func NewCache(capacity int) *Cache {
	return &Cache{c: plancache.New[cacheKey, *Runtime](capacity)}
}

// Get returns a lease on the Runtime prepared for deps under opts,
// running the inspector and schedule construction only on a miss. Release
// the lease when done; the Runtime stays valid until then even if the
// entry is evicted. Do not Close a cached Runtime directly — the cache
// owns that lifecycle.
func (c *Cache) Get(deps *wavefront.Deps, opts ...Option) (*RuntimeLease, error) {
	cfg := buildConfig(opts)
	key := cacheKey{
		fp:        deps.Fingerprint(),
		procs:     cfg.Procs,
		scheduler: cfg.Scheduler,
		kind:      int(cfg.Executor),
		auto:      cfg.adaptive(),
		partition: int(cfg.Partition),
		merge:     cfg.MergePhases,
		weightsFp: hashWeights(cfg.WorkWeights),
	}
	if key.auto {
		key.kind = -1 // the planner decides; don't fragment on the unused default
		if cfg.Model != nil {
			key.model, key.hasModel = *cfg.Model, true
		}
	}
	h, err := c.c.Get(key, func() (*Runtime, error) { return New(deps, opts...) })
	if err != nil {
		return nil, err
	}
	return &RuntimeLease{h: h}, nil
}

// Stats returns the cache effectiveness counters.
func (c *Cache) Stats() plancache.Stats { return c.c.Stats() }

// Len returns the number of resident plans.
func (c *Cache) Len() int { return c.c.Len() }

// Close evicts every plan and closes the cache; Runtimes still leased are
// Closed when their last lease is released.
func (c *Cache) Close() error { return c.c.Close() }

// RuntimeLease pins one cached Runtime.
type RuntimeLease struct {
	h *plancache.Handle[cacheKey, *Runtime]
}

// Runtime returns the leased Runtime. It must not be used (or Closed)
// after Release.
func (l *RuntimeLease) Runtime() *Runtime { return l.h.Value() }

// Release unpins the Runtime; if its cache entry was evicted and this was
// the last lease, the Runtime is Closed here.
func (l *RuntimeLease) Release() error { return l.h.Release() }

// hashWeights folds the work-weight vector into the cache key; plans built
// with different weights produce different schedules.
func hashWeights(w []float64) uint64 {
	if w == nil {
		return 0
	}
	h := uint64(fphash.Offset)
	for _, x := range w {
		h = fphash.Mix(h, math.Float64bits(x))
	}
	return fphash.Final(h)
}
