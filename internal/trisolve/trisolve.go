// Package trisolve implements sparse triangular solves — the paper's
// central workload (Figure 8). The outer loop of row substitutions is the
// loop being run-time parallelized; the package provides the sequential
// reference, the inspector (NewPlan, PlanCache) and the one loop body —
// the row-substitution kernel — every executor runs.
package trisolve

import (
	"fmt"
	"sync"

	"doconsider/internal/executor"
	"doconsider/internal/plancache"
	"doconsider/internal/planner"
	"doconsider/internal/reorder"
	"doconsider/internal/schedule"
	"doconsider/internal/sparse"
	"doconsider/internal/supernode"
	"doconsider/internal/wavefront"
)

// ForwardSeq solves L*x = b sequentially where L is lower triangular with
// nonzero diagonal entries stored in the matrix. x and b may alias.
//
// Together with BackwardSeq this is the repository's one oracle: it
// performs, per row, exactly the arithmetic of the executor kernel (see
// kernel) — the row's off-diagonal entries accumulated in CSR order,
// then one multiply by the reciprocal diagonal — so every planned solve
// must reproduce it bit for bit, whatever the factor's diagonal.
func ForwardSeq(l *sparse.CSR, x, b []float64) error { return sequential(l, x, b, true) }

// BackwardSeq solves U*x = b sequentially where U is upper triangular with
// nonzero diagonal entries. x and b may alias.
func BackwardSeq(u *sparse.CSR, x, b []float64) error { return sequential(u, x, b, false) }

// sequential is the plain substitution loop behind ForwardSeq (rows
// ascending) and BackwardSeq (rows descending). Unlike the kernel it
// validates as it goes: an entry on the wrong side of the diagonal or a
// zero diagonal is an error. Columns are strictly increasing within a
// row (sparse.CSR.CheckWellFormed), so a row's last (forward) or first
// (backward) stored column tells whether any entry is on the wrong side.
func sequential(t *sparse.CSR, x, b []float64, lower bool) error {
	if t.N != t.M || len(x) != t.N || len(b) != t.N {
		return sparse.ErrShape
	}
	for k := 0; k < t.N; k++ {
		i := k
		if !lower {
			i = t.N - 1 - k
		}
		cols, vals := t.Row(i)
		if n := len(cols); n > 0 {
			if c := cols[n-1]; lower && int(c) > i {
				return fmt.Errorf("trisolve: row %d has upper entry %d in forward solve", i, c)
			}
			if c := cols[0]; !lower && int(c) < i {
				return fmt.Errorf("trisolve: row %d has lower entry %d in backward solve", i, c)
			}
		}
		s := b[i]
		diag := 0.0
		for q, c := range cols {
			if int(c) != i {
				s -= vals[q] * x[c]
			} else {
				diag = vals[q]
			}
		}
		if diag == 0 {
			return fmt.Errorf("trisolve: zero diagonal at row %d", i)
		}
		x[i] = s * (1 / diag)
	}
	return nil
}

// Plan bundles everything needed to repeatedly solve with one triangular
// factor: the dependence structure, wavefront numbers, a schedule and the
// executor that runs it. Building a Plan is the inspector step; Solve is
// the executor step. With the Pooled kind the executor keeps a
// persistent worker pool across Solve calls; call Close when done with
// such a plan to release the workers.
//
// Every solve entry point runs through the plan's one bound state (see
// Bind), built on first use: the factor values behind a plan are treated
// as immutable, so the reciprocal diagonal is computed once per plan,
// and solves on one Plan serialize. Callers wanting concurrent solves
// over one structure lease a Plan each from a PlanCache — the skeleton
// is shared, only the bound state is per plan.
//
// For a supernodal plan (Fusion non-nil) Deps and Sched describe the
// compressed unit-level structure the executor actually runs — each
// scheduled index is a supernode covering one or more rows — while Wf
// keeps the row-level wavefront numbers the inspector computed.
type Plan struct {
	L     *sparse.CSR
	Lower bool // forward (true) or backward (false) solve
	// Deps and Wf are nil for an uninspected plan: a PlanCache's answer
	// to the first sight of a structure, which runs the sequential loop.
	Deps  *wavefront.Deps
	Wf    []int32
	Sched *schedule.Schedule
	Kind  executor.Kind
	// Decision records the planner's analysis when the kind was chosen
	// adaptively (no WithKind); nil for pinned plans.
	Decision *planner.Decision
	exec     *executor.Executor
	fused    *fusedExec
	// leased marks plans obtained from a PlanCache: the schedule and
	// executor are shared, so Close releases the lease (once) instead of
	// closing the executor.
	leased bool
	lease  plancache.Handle[planKey, *planSkeleton]

	bindOnce sync.Once
	bound    *BatchSolver
}

// Fusion returns the supernode statistics of a fused plan, or nil for a
// row-wise plan.
func (p *Plan) Fusion() *supernode.Stats {
	if p.fused == nil {
		return nil
	}
	st := p.fused.stats
	return &st
}

// Option configures plan construction.
type Option func(*planConfig)

type planConfig struct {
	nproc     int
	kind      executor.Kind
	kindSet   bool // WithKind pins the kind; otherwise the planner chooses
	model     *planner.CostModel
	scheduler SchedulerKind
	part      schedule.Partition
	fuse      FuseMode
	// Drift hint (PlanCache only): the structure is hintRows-many edited
	// rows away from the resident plan fingerprinted hintFp. Advisory —
	// it never enters the cache key — but it lets a near-miss lookup skip
	// the ancestor diff scan.
	hintFp   uint64
	hintRows []int32
	// buildStats, when non-nil, receives the cost breakdown of the plan
	// build this lookup triggered (PlanCache only; advisory, never part
	// of the cache key).
	buildStats *BuildStats
}

// adaptive reports whether the planner should choose the executor.
func (c *planConfig) adaptive() bool { return !c.kindSet }

// FuseMode controls supernodal row fusion (internal/supernode).
type FuseMode int

const (
	// FuseAuto (the default) detects supernodes on adaptively planned
	// global-schedule plans and lets the planner's cost model decide
	// whether the fused executor wins.
	FuseAuto FuseMode = iota
	// FuseOff disables detection entirely: plans are always row-wise.
	FuseOff
	// FuseForce executes fused whenever the partition is well-formed,
	// bypassing the cost model — for benchmarks and differential tests.
	FuseForce
)

// SchedulerKind selects global or local index-set scheduling.
type SchedulerKind int

const (
	// GlobalSched sorts the whole index set by wavefront and deals wrapped.
	GlobalSched SchedulerKind = iota
	// LocalSched keeps the initial partition and sorts locally.
	LocalSched
	// NaturalSched keeps the original order (doacross baseline).
	NaturalSched
)

// WithProcs sets the processor count (default 1).
func WithProcs(p int) Option { return func(c *planConfig) { c.nproc = p } }

// WithKind pins the executor kind, bypassing adaptive selection.
func WithKind(k executor.Kind) Option {
	return func(c *planConfig) { c.kind = k; c.kindSet = true }
}

// WithModel supplies the cost model adaptive selection consults; nil
// (the default) uses the once-per-machine calibrated host model. Pass
// planner.Default() for machine-independent, reproducible decisions.
func WithModel(m *planner.CostModel) Option { return func(c *planConfig) { c.model = m } }

// WithScheduler sets the scheduling method (default GlobalSched).
func WithScheduler(s SchedulerKind) Option { return func(c *planConfig) { c.scheduler = s } }

// WithPartition sets the local-scheduling partition (default Striped).
func WithPartition(p schedule.Partition) Option { return func(c *planConfig) { c.part = p } }

// WithFusion sets the supernodal fusion mode (default FuseAuto).
func WithFusion(m FuseMode) Option { return func(c *planConfig) { c.fuse = m } }

// WithDriftHint tells a PlanCache lookup that the factor was produced by
// editing the nonzero pattern of exactly the given rows of the resident
// structure fingerprinted baseFp (sparse.CSR.StructureFingerprint). The
// hint is advisory and trusted: rows must cover every row whose pattern
// differs from the base — the server's base_fp+edits request form
// guarantees that by construction, having built the factor from those
// very edits. Plain NewPlan ignores the hint.
func WithDriftHint(baseFp uint64, rows []int32) Option {
	return func(c *planConfig) { c.hintFp, c.hintRows = baseFp, rows }
}

// BuildStats breaks down where a PlanCache lookup's build time went,
// for request-scoped latency attribution in the serving tier. A cache
// hit leaves it zero; a miss fills RepairNs with the delta-repair
// attempt's cost (successful or fallen back) and InspectNs with the
// full inspector run when one happened.
type BuildStats struct {
	RepairNs  int64 // time inside the near-miss repair attempt
	InspectNs int64 // time inside full inspection (0 when repaired)
	Repaired  bool  // the skeleton was obtained by delta repair
}

// WithBuildStats directs a PlanCache lookup to record its build-cost
// breakdown into bs. Advisory: it never enters the cache key, and only
// the caller whose lookup actually runs the singleflight build sees
// nonzero numbers (peers coalesced onto that build spend their time
// waiting, which their own request clocks capture). Plain NewPlan
// ignores it.
func WithBuildStats(bs *BuildStats) Option {
	return func(c *planConfig) { c.buildStats = bs }
}

// buildPlanConfig resolves options against the defaults shared by NewPlan
// and the plan cache's key computation.
func buildPlanConfig(opts []Option) planConfig {
	cfg := planConfig{nproc: 1, kind: executor.SelfExecuting, scheduler: GlobalSched, part: schedule.Striped}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.nproc < 1 {
		cfg.nproc = 1
	}
	return cfg
}

// inspect runs the inspector half of plan construction: dependence
// extraction, wavefront computation, supernode detection, adaptive
// planning (when no kind is pinned) and schedule construction. The
// output depends only on the sparsity structure of t, never on its
// values — which is what lets a PlanCache share it across matrices. The
// skeleton's kind is cfg.kind for pinned plans and the planner's choice
// otherwise.
func inspect(t *sparse.CSR, lower bool, cfg planConfig) (*planSkeleton, error) {
	var deps *wavefront.Deps
	if lower {
		deps = wavefront.FromLower(t)
	} else {
		deps = wavefront.FromUpper(t)
	}
	wf, err := wavefront.Compute(deps)
	if err != nil {
		return nil, err
	}

	// Supernode detection. Only global-schedule plans can run the
	// compressed unit schedule, and under FuseAuto only adaptive plans
	// detect (the cost model arbitrates; a pinned kind asked for exactly
	// the row-wise executor it named). A partition with nothing fused is
	// discarded — unless fusion is forced, where even an all-singleton
	// partition runs the unit-level schedule.
	mode := cfg.fuse
	var part *supernode.Partition
	var unitDeps *wavefront.Deps
	var unitWf []int32
	if cfg.scheduler == GlobalSched && (mode == FuseForce || (mode == FuseAuto && cfg.adaptive())) {
		p := supernode.Detect(deps, supernode.Config{})
		if st := p.Stats(); st.FusedRows > 0 || mode == FuseForce {
			unitDeps = p.Compress(deps)
			if unitWf, err = wavefront.Compute(unitDeps); err != nil {
				return nil, err
			}
			part = p
		}
	}

	kind := cfg.kind
	useFused := mode == FuseForce && part != nil
	var dec *planner.Decision
	var rank []int32
	if cfg.adaptive() {
		f := planner.Analyze(deps, wf, cfg.nproc)
		if part != nil {
			f.Fusion = fusionFeatures(part, unitDeps, unitWf, cfg.nproc)
		}
		d := planner.Select(f, cfg.model)
		if useFused && !d.Fused {
			// Forced fusion overrides the cost model's verdict but keeps
			// its executor kind; fused plans schedule units, so the
			// within-level row reordering has nothing to rank.
			d.Fused, d.Reorder = true, planner.ReorderNone
		}
		dec = &d
		kind = d.Strategy
		useFused = d.Fused
		// Realize an RCM reorder decision as a within-wavefront rank for
		// the global schedule; the wavefronts themselves are untouched
		// (DAG depth is relabeling-invariant) so results stay
		// bit-identical. Other schedulers fix the order themselves.
		if !useFused && d.Reorder == planner.ReorderRCM && cfg.scheduler == GlobalSched {
			if p, rerr := reorder.RCM(t); rerr == nil {
				rank = p.Inv
				if !lower {
					// FromUpper reflects indices (iteration k stands for
					// row n-1-k); reflect the rank to match.
					n := t.N
					rank = make([]int32, n)
					for k := 0; k < n; k++ {
						rank[k] = p.Inv[n-1-k]
					}
				}
			} else {
				d.Reorder = planner.ReorderNone
			}
		} else if d.Reorder != planner.ReorderNone {
			d.Reorder = planner.ReorderNone
		}
	}
	sk := &planSkeleton{deps: deps, wf: wf, kind: kind, decision: dec}
	switch {
	case useFused:
		if sk.fused, err = newFusedExec(part, deps, unitDeps, unitWf, cfg.nproc); err != nil {
			return nil, err
		}
		sk.sched = sk.fused.sched
	case cfg.scheduler == GlobalSched && rank != nil:
		sk.sched = schedule.GlobalRanked(wf, rank, cfg.nproc)
	case cfg.scheduler == GlobalSched:
		sk.sched = schedule.Global(wf, cfg.nproc)
	case cfg.scheduler == LocalSched:
		sk.sched = schedule.Local(wf, cfg.nproc, cfg.part)
	case cfg.scheduler == NaturalSched:
		sk.sched = schedule.Natural(t.N, cfg.nproc, cfg.part)
	default:
		return nil, fmt.Errorf("trisolve: unknown scheduler %d", cfg.scheduler)
	}
	sk.exec = executor.New(kind)
	return sk, nil
}

// NewPlan runs the inspector for a triangular factor: it extracts the
// dependence sets, computes wavefronts, lets the planner pick the
// executor strategy (and a locality reordering or supernodal fusion)
// unless WithKind pinned one, and builds the schedule.
func NewPlan(t *sparse.CSR, lower bool, opts ...Option) (*Plan, error) {
	sk, err := inspect(t, lower, buildPlanConfig(opts))
	if err != nil {
		return nil, err
	}
	return newPlan(t, lower, sk), nil
}

// uninspected returns the plan a PlanCache answers a first sight with:
// no dependences, wavefronts, skeleton or lease — only the natural order
// on one processor, held as the schedule header the sequential executor
// reads, so every pass is the plain substitution loop of ForwardSeq or
// BackwardSeq. Nothing is shared, and Close has nothing to release.
func uninspected(t *sparse.CSR, lower bool) *Plan {
	return &Plan{L: t, Lower: lower, Sched: &schedule.Schedule{P: 1, N: t.N},
		Kind: executor.Sequential, exec: executor.New(executor.Sequential)}
}

// newPlan binds the factor t to an inspected skeleton.
func newPlan(t *sparse.CSR, lower bool, sk *planSkeleton) *Plan {
	p := &Plan{L: t, Lower: lower, Deps: sk.deps, Wf: sk.wf, Sched: sk.sched,
		Kind: sk.kind, Decision: sk.decision, exec: sk.exec, fused: sk.fused}
	if sk.fused != nil {
		p.Deps = sk.fused.deps
	}
	return p
}

// rowMetrics keeps the Executed counter in row substitutions for fused
// plans: the executor counts scheduled indices, which for a supernodal
// schedule are multi-row units. A complete pass ran every unit, so every
// row; an aborted pass keeps the raw unit count.
func (p *Plan) rowMetrics(m executor.Metrics, err error) executor.Metrics {
	if p.fused != nil && err == nil {
		m.Executed = int64(p.L.N)
	}
	return m
}

// Close releases the plan's resources. For a plan leased from a PlanCache
// it releases the lease (the shared schedule and executor stay available
// to other lease holders); otherwise it closes the executor (releasing a
// pooled executor's workers). Close is idempotent either way — a second
// Close on a leased plan must never fall through to the shared executor.
func (p *Plan) Close() error {
	if p.leased {
		return p.lease.Release()
	}
	return p.exec.Close()
}

// Phases returns the number of wavefronts of the factor — the paper's
// "Phases" column in Tables 2 and 3. A fused plan's schedule runs fewer
// phases (the compressed unit levels); this reports the factor's own
// level count either way. An uninspected plan (a PlanCache first sight)
// never computed its wavefronts and reports 0.
func (p *Plan) Phases() int {
	if p.fused == nil {
		return p.Sched.NumPhases
	}
	n := 0
	for _, w := range p.Wf {
		if int(w)+1 > n {
			n = int(w) + 1
		}
	}
	return n
}
