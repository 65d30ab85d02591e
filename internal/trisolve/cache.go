package trisolve

import (
	"errors"
	"slices"
	"sync"
	"time"

	"doconsider/internal/core"
	"doconsider/internal/delta"
	"doconsider/internal/executor"
	"doconsider/internal/plancache"
	"doconsider/internal/planner"
	"doconsider/internal/sparse"
	"doconsider/internal/wavefront"
)

// PlanCache shares the inspector output (core.Inspection) of
// structurally identical triangular solves: plans are keyed by the
// sparsity fingerprint of the factor plus the plan configuration, so N
// callers solving factors with the same nonzero pattern — successive
// Newton steps, the same mesh with updated coefficients, many concurrent
// requests over one model — run the inspector once and share one
// executor. The cache itself keys, leases and counts; inspection and
// repair are core's.
//
// Get binds the caller's matrix values to the shared structural skeleton,
// so matrices with equal structure but different values each solve with
// their own numbers. Concurrent misses for one key are coalesced into a
// single inspector run.
//
// When no kind is pinned (no WithKind), the planner chooses the strategy
// per structure; the cache records each decision (see Decisions and
// DecisionCounts) so serving stats can report what the inspector decided
// and why.
//
// Such an adaptive lookup inspects a structure only on its second sight
// within the cache's reach (plancache.Cache.GetSecondSight): the first
// lookup of a structure that is neither resident nor among the last
// capacity first sights (all of them when unbounded) runs no inspector
// and returns an uninspected plan, whose passes are the sequential loop
// itself — ForwardSeq/BackwardSeq's arithmetic, so the answer is the
// oracle's. The inspector is paid only for a structure that comes back,
// the one whose executions can amortize it (§5.1.1). The first sight
// costs one miss and a sequential pass; it is
// recorded as a deferred "sequential" decision. Pinned kinds always
// inspect.
//
// A fingerprint miss is not necessarily a cold start: the cache keeps a
// similarity index of resident skeletons, and when the new structure is
// a small structural drift of a resident one — a few rows' nonzeros
// appeared or vanished — the nearest ancestor's inspection is repaired
// (core.Inspection.Repair) instead of re-inspected from scratch, with the
// caller's values bound as usual. An ancestor is a candidate only while
// its diff stays within the break-even bound (delta.RepairBound), and the
// repair falls back to a full inspection when the level-change cone
// outgrows it. WithDriftHint lets a caller that knows the edited rows (the
// server's base_fp+edits request form) skip the ancestor scan entirely.
type PlanCache struct {
	c *plancache.Cache[planKey, *planSkeleton]

	mu      sync.Mutex
	records []DecisionRecord
	counts  map[string]uint64
	sim     map[simKey]map[uint64]*planSkeleton // repairable resident skeletons, by fingerprint
	delta   DeltaStats
	super   SupernodeStats
}

// maxSimScan bounds how many resident candidates one near-miss lookup
// will diff against; candidates beyond the bound (unusual — drift chains
// keep one or two ancestors per shape) fall back to a cold build.
const maxSimScan = 4

// simKey groups skeletons that could repair one another: everything in
// planKey except the structural fingerprint, plus the order (repair
// never changes N).
type simKey struct {
	n   int
	key planKey // fp zeroed
}

// DeltaStats counts the near-miss outcomes of a PlanCache: how many
// misses were served by repairing a resident ancestor, how many
// attempted repairs fell back to a full build (the edit or its cone
// exceeded the break-even bound), and the total rows releveled by
// repairs.
type DeltaStats struct {
	Repairs   uint64 `json:"repairs"`
	Fallbacks uint64 `json:"fallbacks"`
	ConeRows  uint64 `json:"cone_rows"`
}

// maxDecisionRecords bounds the per-cache decision log; older records
// are dropped FIFO. The counts map is never trimmed.
const maxDecisionRecords = 64

// DecisionRecord is one planner decision made while building a cached
// skeleton, or one first-sight answer (Deferred), flattened for JSON
// stats.
type DecisionRecord struct {
	Strategy string `json:"strategy"`
	Pinned   bool   `json:"pinned,omitempty"`
	// Repaired marks skeletons obtained by delta-repairing a resident
	// ancestor instead of full inspection; the strategy and predictions
	// are inherited from the ancestor's decision.
	Repaired bool `json:"repaired,omitempty"`
	// Deferred marks a first-sight answer: no inspector ran, and the
	// lookup was answered by the sequential loop (see PlanCache).
	Deferred bool `json:"deferred,omitempty"`
	Lower    bool `json:"lower"`
	Procs    int  `json:"procs"`
	N        int  `json:"n"`
	Edges    int  `json:"edges"`
	Levels   int  `json:"levels"`
	MaxWidth int  `json:"max_width"`
	// Predicted pass times, seconds, for auditing a surprising choice.
	PredSequential float64 `json:"pred_sequential"`
	PredPooled     float64 `json:"pred_pooled"`
	PredDoAcross   float64 `json:"pred_doacross"`
	PredSupernodal float64 `json:"pred_supernodal,omitempty"`
	// Supernodal fusion outcome for this skeleton (internal/supernode).
	Fused        bool `json:"fused,omitempty"`
	Nodes        int  `json:"nodes,omitempty"`
	FusedRows    int  `json:"fused_rows,omitempty"`
	NodeMaxWidth int  `json:"node_max_width,omitempty"`
}

// SupernodeStats aggregates the fusion outcomes of a cache's skeleton
// builds (cumulative, like DecisionCounts — evictions do not decrement).
// MeanWidth and FusedFrac are derived over the fused skeletons only.
type SupernodeStats struct {
	FusedPlans uint64  `json:"fused_plans"`
	Nodes      uint64  `json:"nodes"`
	Rows       uint64  `json:"rows"`
	FusedRows  uint64  `json:"fused_rows"`
	MaxWidth   int     `json:"max_width"`
	MeanWidth  float64 `json:"mean_width"`
	FusedFrac  float64 `json:"fused_frac"`
}

type planKey struct {
	fp       uint64
	lower    bool
	procs    int
	kind     int               // executor.Kind; -1 when the planner chooses
	auto     bool              // no pinned kind: decision is a function of (fp, procs, model)
	model    planner.CostModel // compared by value, so fresh-but-equal models share entries
	hasModel bool              // false = host model
	sched    SchedulerKind
	part     int // schedule.Partition
	// fuse is the fusion mode — the plan's fusion identity.
	// Modes differ in executor shape (unit vs row schedules), so fused
	// and unfused skeletons must never share an entry. Under FuseAuto the
	// fused/row-wise choice itself is a deterministic function of the
	// fingerprint and model already in the key.
	fuse FuseMode
}

// planSkeleton is the cached, matrix-value-free part of a Plan: the
// inspection — a pure function of the sparsity pattern and the plan
// configuration, which also backs near-miss repairs of a drift chain —
// and the (possibly stateful) executor running it.
type planSkeleton struct {
	in      *core.Inspection
	exec    *executor.Executor
	cleanup func() // removes the skeleton from the similarity index
}

func (s *planSkeleton) Close() error {
	if s.cleanup != nil {
		s.cleanup()
	}
	return nil
}

// NewPlanCache returns a plan cache holding at most capacity skeletons;
// capacity <= 0 means unbounded. An evicted skeleton leaves the
// similarity index after the last leased Plan is Closed.
func NewPlanCache(capacity int) *PlanCache {
	return &PlanCache{
		c:      plancache.New[planKey, *planSkeleton](capacity),
		counts: make(map[string]uint64),
		sim:    make(map[simKey]map[uint64]*planSkeleton),
	}
}

// Get returns a Plan for the factor t, sharing the inspector output and
// executor with every other plan whose factor has the same
// sparsity pattern and whose options match. The returned Plan is leased:
// Close it when done (the shared skeleton persists for other holders).
// Concurrent Solve calls on plans sharing one skeleton are safe and run
// at once: the shared executor gives each pass its own state. An adaptive
// lookup's first sight of a structure returns an uninspected plan
// instead (see PlanCache), which shares nothing and whose Close is a
// no-op.
func (pc *PlanCache) Get(t *sparse.CSR, lower bool, opts ...Option) (*Plan, error) {
	cfg := buildPlanConfig(opts)
	key := planKey{
		fp:    t.StructureFingerprint(),
		lower: lower,
		procs: cfg.Procs,
		kind:  int(cfg.Executor),
		sched: cfg.Scheduler,
		part:  int(cfg.Partition),
		fuse:  cfg.fuse,
	}
	if cfg.Adaptive() {
		key.kind, key.auto = -1, true
		if cfg.Model != nil {
			key.model, key.hasModel = *cfg.Model, true
		}
	}
	// Both cache reads are direct calls: through a func value, the
	// builder closure and its captures would escape to the heap on every
	// lookup, hits included.
	build := func() (*planSkeleton, error) { return pc.build(t, lower, cfg, key) }
	var h plancache.Handle[planKey, *planSkeleton]
	var err error
	if key.auto {
		h, err = pc.c.GetSecondSight(key, build)
	} else {
		h, err = pc.c.Get(key, build)
	}
	if errors.Is(err, plancache.ErrFirstSight) {
		pc.recordDeferred(t.N, lower)
		return uninspected(t, lower), nil
	}
	if err != nil {
		return nil, err
	}
	sk := h.Value()
	p := newPlan(t, lower, sk.in, sk.exec)
	p.leased, p.lease = true, h
	return p, nil
}

// build is the singleflight builder behind Get's miss on key: a repair
// of the nearest resident ancestor when one qualifies, else a full
// inspection, registered for later repairs and recorded.
func (pc *PlanCache) build(t *sparse.CSR, lower bool, cfg planConfig, key planKey) (*planSkeleton, error) {
	// Build-cost attribution: a traced request can tell "waiting on a
	// drift repair" from "waiting on a cold inspection". Only the
	// singleflight builder gets here; coalesced peers observe the time as
	// plan-stage waiting.
	t0 := time.Now()
	var in *core.Inspection
	var st delta.Stats
	var err error
	anc, changed := pc.nearest(t, lower, cfg, key)
	if anc != nil {
		in, st, err = anc.in.Repair(delta.FactorDeps(anc.in.Deps, t, lower, changed), changed)
		pc.mu.Lock()
		if st.Fallback {
			pc.delta.Fallbacks++
		} else {
			pc.delta.Repairs++
			pc.delta.ConeRows += uint64(st.Cone)
		}
		pc.mu.Unlock()
	} else {
		in, err = core.Inspect(factorDeps(t, lower), cfg.Config, cfg.fuse)
	}
	repaired := anc != nil && !st.Fallback
	if bs := cfg.buildStats; bs != nil {
		bs.Repaired = repaired
		if anc != nil {
			bs.RepairNs += time.Since(t0).Nanoseconds()
		} else {
			bs.InspectNs += time.Since(t0).Nanoseconds()
		}
	}
	if err != nil {
		return nil, err
	}
	sk := &planSkeleton{in: in, exec: executor.New(in.Kind)}
	if cfg.Scheduler == GlobalSched {
		pc.registerSim(key, t.N, sk)
	}
	pc.record(lower, cfg, in, repaired)
	return sk, nil
}

// nearest picks the repair ancestor for t among the resident skeletons
// of its plan shape — the hinted one when the caller named it, else the
// candidate with the fewest differing rows, within the break-even bound
// — and returns it with those rows in iteration space; nil when none
// qualifies.
func (pc *PlanCache) nearest(t *sparse.CSR, lower bool, cfg planConfig, key planKey) (*planSkeleton, []int32) {
	sk := simKey{n: t.N, key: key}
	sk.key.fp = 0
	pc.mu.Lock()
	bucket := pc.sim[sk]
	if e, ok := bucket[cfg.hintFp]; ok && cfg.hintRows != nil {
		pc.mu.Unlock()
		// The caller names the edited rows (it built t from the ancestor
		// by applying exactly those edits), so the diff scan disappears.
		// Hint rows are matrix rows; translate to iteration space (upper
		// factors are reflected) and normalize for the splice.
		return e, normalizeHintRows(cfg.hintRows, t.N, lower)
	}
	candidates := make([]*planSkeleton, 0, maxSimScan)
	for _, e := range bucket {
		if candidates = append(candidates, e); len(candidates) == maxSimScan {
			break
		}
	}
	pc.mu.Unlock()

	var best *planSkeleton
	var bestChanged []int32
	for _, e := range candidates {
		limit := delta.RepairBound(t.N, e.in.Deps.Edges())
		if limit <= 0 {
			// Repair can never pay for this shape (the break-even cone
			// is empty); don't spend an O(N) diff to find that out —
			// DiffFactor would read limit<=0 as "unbounded".
			continue
		}
		changed, ok := delta.DiffFactor(e.in.Deps, t, lower, limit)
		if !ok || len(changed) == 0 {
			continue // drifted too far, or a fingerprint collision
		}
		if best == nil || len(changed) < len(bestChanged) {
			best, bestChanged = e, changed
		}
	}
	return best, bestChanged
}

// normalizeHintRows maps matrix row indices to iteration indices
// (reflected for backward solves, wavefront.ReflectIndex), sorted and
// deduplicated as the splice requires. Out-of-range rows are dropped —
// the repair then treats the structure as if those rows were unedited,
// and the hint contract (rows cover every edited row) stays with the
// caller.
func normalizeHintRows(rows []int32, n int, lower bool) []int32 {
	out := make([]int32, 0, len(rows))
	for _, r := range rows {
		if r < 0 || int(r) >= n {
			continue
		}
		if !lower {
			r = int32(wavefront.ReflectIndex(n, int(r)))
		}
		out = append(out, r)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// registerSim adds a freshly built skeleton to the similarity index and
// arranges its removal when the skeleton is torn down.
func (pc *PlanCache) registerSim(key planKey, n int, sk *planSkeleton) {
	sKey := simKey{n: n, key: key}
	sKey.key.fp = 0
	fp := key.fp
	pc.mu.Lock()
	bucket := pc.sim[sKey]
	if bucket == nil {
		bucket = make(map[uint64]*planSkeleton)
		pc.sim[sKey] = bucket
	}
	bucket[fp] = sk
	pc.mu.Unlock()
	sk.cleanup = func() {
		pc.mu.Lock()
		// Close of an evicted skeleton can run after the same structure
		// was rebuilt and re-registered (plancache defers Close past the
		// last lease): only remove the entry if it is still ours, never a
		// replacement's.
		if b := pc.sim[sKey]; b != nil && b[fp] == sk {
			delete(b, fp)
			if len(b) == 0 {
				delete(pc.sim, sKey)
			}
		}
		pc.mu.Unlock()
	}
}

// DeltaStats returns the cache's near-miss repair counters.
func (pc *PlanCache) DeltaStats() DeltaStats {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.delta
}

// record logs the strategy chosen for a freshly built skeleton.
func (pc *PlanCache) record(lower bool, cfg planConfig, in *core.Inspection, repaired bool) {
	rec := DecisionRecord{
		Strategy: in.Kind.String(),
		Repaired: repaired,
		Lower:    lower,
		Procs:    cfg.Procs,
	}
	if d := in.Decision; d != nil {
		rec.N = d.Features.N
		rec.Edges = d.Features.Edges
		rec.Levels = d.Features.Levels
		rec.MaxWidth = d.Features.MaxWidth
		rec.PredSequential = d.PredSequential
		rec.PredPooled = d.PredPooled
		rec.PredDoAcross = d.PredDoAcross
		rec.PredSupernodal = d.PredSupernodal
	} else {
		rec.Pinned = true
		rec.N = in.Deps.N
		rec.Edges = in.Deps.Edges()
		rec.Levels = in.Sched.NumPhases
	}
	pc.mu.Lock()
	if in.Part != nil {
		st := in.Part.Stats()
		rec.Fused = true
		rec.Strategy += "+fused"
		rec.Nodes = st.Nodes
		rec.FusedRows = st.FusedRows
		rec.NodeMaxWidth = st.MaxWidth
		pc.super.FusedPlans++
		pc.super.Nodes += uint64(st.Nodes)
		pc.super.Rows += uint64(st.Rows)
		pc.super.FusedRows += uint64(st.FusedRows)
		pc.super.MaxWidth = max(pc.super.MaxWidth, st.MaxWidth)
	}
	pc.appendRecordLocked(rec)
	pc.mu.Unlock()
}

// recordDeferred logs a first-sight answer: the sequential loop, chosen
// without inspection.
func (pc *PlanCache) recordDeferred(n int, lower bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.appendRecordLocked(DecisionRecord{Strategy: executor.Sequential.String(),
		Deferred: true, Lower: lower, Procs: 1, N: n})
}

// appendRecordLocked counts rec under its strategy and appends it to the
// bounded decision log. Callers hold pc.mu.
func (pc *PlanCache) appendRecordLocked(rec DecisionRecord) {
	pc.counts[rec.Strategy]++
	pc.records = append(pc.records, rec)
	if len(pc.records) > maxDecisionRecords {
		pc.records = pc.records[len(pc.records)-maxDecisionRecords:]
	}
}

// SupernodeStats returns the cache's cumulative fusion counters with the
// derived mean node width and fused-row fraction filled in.
func (pc *PlanCache) SupernodeStats() SupernodeStats {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	s := pc.super
	if s.Nodes > 0 {
		s.MeanWidth = float64(s.Rows) / float64(s.Nodes)
	}
	if s.Rows > 0 {
		s.FusedFrac = float64(s.FusedRows) / float64(s.Rows)
	}
	return s
}

// Decisions returns the most recent planner decisions (newest last,
// bounded FIFO) made while building skeletons for this cache, first-sight
// answers included.
func (pc *PlanCache) Decisions() []DecisionRecord {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	out := make([]DecisionRecord, len(pc.records))
	copy(out, pc.records)
	return out
}

// DecisionCounts returns how many skeleton builds chose each strategy,
// by registry name, since the cache was created (evictions do not
// decrement). First-sight answers count under "sequential".
func (pc *PlanCache) DecisionCounts() map[string]uint64 {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	out := make(map[string]uint64, len(pc.counts))
	for k, v := range pc.counts {
		out[k] = v
	}
	return out
}

// Stats returns the cache effectiveness counters.
func (pc *PlanCache) Stats() plancache.Stats { return pc.c.Stats() }

// Len returns the number of resident plan skeletons.
func (pc *PlanCache) Len() int { return pc.c.Len() }

// Close evicts every skeleton and closes the cache; skeletons still
// leased are torn down when their last Plan is Closed.
func (pc *PlanCache) Close() error { return pc.c.Close() }
