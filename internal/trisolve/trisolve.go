// Package trisolve implements sparse triangular solves — the paper's
// central workload (Figure 8). The outer loop of row substitutions is the
// loop being run-time parallelized. The package keeps only what is
// triangular: the sequential reference, the dependences of a factor,
// which it hands to the one inspector (core.Inspect,
// core.Inspection.Repair) behind NewPlan and PlanCache, and the one loop
// body — the row-substitution kernel — every executor runs.
package trisolve

import (
	"fmt"

	"doconsider/internal/core"
	"doconsider/internal/executor"
	"doconsider/internal/plancache"
	"doconsider/internal/planner"
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
// then one multiply by the reciprocal of the row's own diagonal — so
// every planned solve must reproduce it bit for bit, whatever the
// factor's diagonal. A column pass runs this very loop, in this order,
// on each participant's share of a batch.
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
				s -= float64(vals[q] * x[c]) // no fused multiply-subtract; see kernel.row
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
// factor: its inspection (the dependence structure, wavefront numbers, a
// schedule and the strategy) and the executor that runs it. Building a
// Plan is the inspector step; Solve is the executor step. A Pooled plan's
// passes borrow the process's shared worker set; Close releases a cached
// plan's lease and is a no-op otherwise.
//
// Every solve runs on a pass record of its own (see Plan.solve), so
// solves on one Plan — single vectors and batches, from any
// number of goroutines — share nothing on the plan and run at once.
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
	in       *core.Inspection
	exec     *executor.Executor
	// leased marks plans obtained from a PlanCache: the schedule and
	// executor are shared, and Close releases the lease (once).
	leased bool
	lease  plancache.Handle[planKey, *planSkeleton]
	solver BatchSolver // Bind's answer: the plan itself
}

// Fusion returns the supernode statistics of a fused plan, or nil for a
// row-wise plan.
func (p *Plan) Fusion() *supernode.Stats {
	if p.in.Part == nil {
		return nil
	}
	st := p.in.Part.Stats()
	return &st
}

// Option configures plan construction.
type Option func(*planConfig)

// planConfig is the inspector's configuration plus what only a
// triangular solve adds to it.
type planConfig struct {
	core.Config
	fuse FuseMode
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

// The scheduling and fusion vocabulary is the inspector's (core).
type (
	FuseMode      = core.FuseMode  // supernodal row fusion
	SchedulerKind = core.Scheduler // global, local or natural index-set scheduling
)

const (
	FuseAuto     = core.FuseAuto         // detect on adaptive global plans; the cost model decides
	FuseOff      = core.FuseOff          // never fuse
	FuseForce    = core.FuseForce        // fuse every global plan, bypassing the cost model
	GlobalSched  = core.GlobalScheduler  // sort the whole index set by wavefront, deal wrapped
	LocalSched   = core.LocalScheduler   // keep the initial partition and sort locally
	NaturalSched = core.NaturalScheduler // keep the original order (doacross baseline)
)

// WithProcs sets the processor count (default 1).
func WithProcs(p int) Option { return func(c *planConfig) { c.Procs = p } }

// WithKind pins the executor kind, bypassing adaptive selection.
func WithKind(k executor.Kind) Option {
	pin := core.WithExecutor(k)
	return func(c *planConfig) { pin(&c.Config) }
}

// WithModel supplies the cost model adaptive selection consults; nil
// (the default) means the canonical planner.Default() constants, which
// decide the same on every host. Pass planner.Calibrate() for
// host-measured constants.
func WithModel(m *planner.CostModel) Option { return func(c *planConfig) { c.Model = m } }

// WithScheduler sets the scheduling method (default GlobalSched).
func WithScheduler(s SchedulerKind) Option { return func(c *planConfig) { c.Scheduler = s } }

// WithPartition sets the local-scheduling partition (default Striped).
func WithPartition(p schedule.Partition) Option { return func(c *planConfig) { c.Partition = p } }

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
// hit leaves it zero; a miss that found a resident ancestor fills
// RepairNs (the repair, or the failed attempt and the re-inspection it
// fell back to), any other miss InspectNs.
type BuildStats struct {
	RepairNs  int64 // time of a near-miss build, repaired or fallen back
	InspectNs int64 // time of a cold inspection (0 on a near miss)
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
	cfg := planConfig{Config: core.Config{Procs: 1, Executor: executor.SelfExecuting}}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.Procs < 1 {
		cfg.Procs = 1
	}
	return cfg
}

// factorDeps extracts the dependences of a factor: row-wise for a
// forward solve, in reflected iteration numbering for a backward one.
func factorDeps(t *sparse.CSR, lower bool) *wavefront.Deps {
	if lower {
		return wavefront.FromLower(t)
	}
	return wavefront.FromUpper(t)
}

// NewPlan runs the inspector for a triangular factor: it extracts the
// dependence sets and hands them to core.Inspect, which computes
// wavefronts, lets the planner pick the executor strategy (and
// supernodal fusion) unless WithKind pinned one, and builds the schedule.
func NewPlan(t *sparse.CSR, lower bool, opts ...Option) (*Plan, error) {
	cfg := buildPlanConfig(opts)
	in, err := core.Inspect(factorDeps(t, lower), cfg.Config, cfg.fuse)
	if err != nil {
		return nil, err
	}
	return newPlan(t, lower, in, executor.New(in.Kind)), nil
}

// uninspected returns the plan a PlanCache answers a first sight with:
// no dependences, wavefronts, skeleton or lease — only the natural order
// on one processor, so every pass is a column pass on the caller alone,
// the plain substitution loop of ForwardSeq or BackwardSeq. Only the
// executor, firstSight, is shared — its free list of pass states makes a
// warm first sight's solve allocate nothing — and Close has nothing to
// release. The inspection and its schedule header share one allocation.
func uninspected(t *sparse.CSR, lower bool) *Plan {
	u := &struct {
		in    core.Inspection
		sched schedule.Schedule
	}{sched: schedule.Schedule{P: 1, N: t.N}}
	u.in.Sched, u.in.Kind = &u.sched, executor.Sequential
	return newPlan(t, lower, &u.in, firstSight)
}

var firstSight = executor.New(executor.Sequential)

// newPlan binds the factor t to an inspection and the executor running
// it.
func newPlan(t *sparse.CSR, lower bool, in *core.Inspection, exec *executor.Executor) *Plan {
	p := &Plan{L: t, Lower: lower, Deps: in.UnitDeps, Wf: in.Wf, Sched: in.Sched,
		Kind: in.Kind, Decision: in.Decision, in: in, exec: exec}
	p.solver.p = p
	return p
}

// Close releases the lease of a plan leased from a PlanCache (the shared
// schedule and executor stay available to other lease holders); a plan
// of its own holds nothing to release. Close is idempotent.
func (p *Plan) Close() error {
	if p.leased {
		return p.lease.Release()
	}
	return nil
}

// Phases returns the number of wavefronts of the factor — the paper's
// "Phases" column in Tables 2 and 3. A fused plan's schedule runs fewer
// phases (the compressed unit levels); this reports the factor's own
// level count either way. An uninspected plan (a PlanCache first sight)
// never computed its wavefronts and reports 0.
func (p *Plan) Phases() int {
	if p.in.Part == nil {
		return p.Sched.NumPhases
	}
	return wavefront.NumWavefronts(p.Wf)
}
