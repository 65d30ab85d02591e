// Package core is the library entry point: the run-time system behind the
// paper's doconsider construct. Given the dependence structure a compiler
// (or the transform package) extracts from a loop, core runs the inspector
// (wavefront analysis), builds a schedule (global or local), and executes
// the loop body with one executor.Executor of the chosen kind (sequential,
// pre-scheduled, self-executing, doacross or pooled), held by the Runtime
// for its lifetime.
//
// Typical use:
//
//	deps := wavefront.FromIndirection(ia)
//	rt, err := core.New(deps, core.WithProcs(8), core.WithExecutor(executor.SelfExecuting))
//	...
//	rt.Run(func(i int32) { x[i] = x[i] + b[i]*x[ia[i]] })
//
// The inspector cost is paid once in New; Run may be invoked many times,
// which is where the approach pays off (paper §5.1.1: scheduling "was
// amortized over a substantial number of iterations").
package core

import (
	"context"
	"fmt"

	"doconsider/internal/delta"
	"doconsider/internal/executor"
	"doconsider/internal/planner"
	"doconsider/internal/schedule"
	"doconsider/internal/wavefront"
)

// Scheduler selects the index-set scheduling strategy.
type Scheduler int

const (
	// GlobalScheduler sorts the whole index set by wavefront and deals the
	// sorted list to processors in a wrapped manner.
	GlobalScheduler Scheduler = iota
	// LocalScheduler keeps a fixed partition and reorders locally.
	LocalScheduler
	// NaturalScheduler keeps the original index order (doacross-style).
	NaturalScheduler
)

// String returns the scheduler name.
func (s Scheduler) String() string {
	switch s {
	case GlobalScheduler:
		return "global"
	case LocalScheduler:
		return "local"
	case NaturalScheduler:
		return "natural"
	default:
		return fmt.Sprintf("Scheduler(%d)", int(s))
	}
}

// Config collects the runtime options.
type Config struct {
	Procs             int                // simulated processors (goroutines); default 1
	Executor          executor.Kind      // executor kind; chosen adaptively unless set via WithExecutor
	Scheduler         Scheduler          // default GlobalScheduler
	Partition         schedule.Partition // initial partition for local scheduling
	ParallelInspector bool               // run the wavefront sweep in parallel (§2.3)
	WorkWeights       []float64          // optional per-index costs for work-balanced global dealing
	MergePhases       bool               // coalesce barrier phases when safe (ref [13])
	Model             *planner.CostModel // cost model for adaptive selection; nil = host-calibrated

	// kindSet records that WithExecutor pinned the kind explicitly;
	// otherwise New lets the planner choose.
	kindSet bool
}

// adaptive reports whether New should let the planner pick the kind.
func (c *Config) adaptive() bool { return !c.kindSet }

// Option mutates a Config.
type Option func(*Config)

// WithProcs sets the number of processors.
func WithProcs(p int) Option { return func(c *Config) { c.Procs = p } }

// WithExecutor pins the executor kind, bypassing adaptive selection.
func WithExecutor(k executor.Kind) Option {
	return func(c *Config) { c.Executor = k; c.kindSet = true }
}

// WithModel supplies the cost model adaptive selection consults; nil (the
// default) uses the once-per-machine calibrated host model (planner.ForHost).
// Pass planner.Default() for machine-independent, reproducible decisions.
func WithModel(m *planner.CostModel) Option { return func(c *Config) { c.Model = m } }

// WithScheduler sets the scheduling strategy.
func WithScheduler(s Scheduler) Option { return func(c *Config) { c.Scheduler = s } }

// WithPartition sets the initial partition used by local scheduling.
func WithPartition(p schedule.Partition) Option { return func(c *Config) { c.Partition = p } }

// WithParallelInspector runs the topological sort striped across the
// processors with busy-wait synchronization.
func WithParallelInspector() Option { return func(c *Config) { c.ParallelInspector = true } }

// WithWorkWeights supplies per-index costs; the global scheduler then
// balances summed cost per wavefront rather than index counts.
func WithWorkWeights(w []float64) Option { return func(c *Config) { c.WorkWeights = w } }

// WithMergedPhases coalesces consecutive barrier phases whenever no
// dependence inside the merged window crosses processors, reducing the
// global synchronization count of the pre-scheduled executor (the
// rearrangement idea of the paper's reference [13]). It has no effect on
// the self-executing executor, which has no barriers to merge.
func WithMergedPhases() Option { return func(c *Config) { c.MergePhases = true } }

// buildConfig resolves options against the defaults shared by New and the
// plan cache's key computation.
func buildConfig(opts []Option) Config {
	cfg := Config{Procs: 1, Executor: executor.SelfExecuting, Scheduler: GlobalScheduler}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.Procs < 1 {
		cfg.Procs = 1
	}
	return cfg
}

// Runtime is a prepared loop: inspector output, an executor schedule, and
// the executor that runs it. A pooled executor's workers live as long as
// the Runtime; call Close to release them.
type Runtime struct {
	cfg      Config
	deps     *wavefront.Deps
	wf       []int32
	sched    *schedule.Schedule
	exec     *executor.Executor
	decision *planner.Decision // non-nil when the planner chose the kind
	patch    *delta.State      // incremental-repair state, built on first Patch
}

// New runs the inspector on the dependence structure and builds the
// schedule. It returns an error if the dependences are not executable
// (cycle, out-of-range edge, or a forward dependence under natural-order
// execution) rather than letting an executor deadlock.
func New(deps *wavefront.Deps, opts ...Option) (*Runtime, error) {
	cfg := buildConfig(opts)
	wf, err := cfg.wavefronts(deps)
	if err != nil {
		return nil, err
	}
	// Adaptive planning: with no kind pinned, the inspector measures the
	// DAG it just leveled and picks the executor itself (sequential for
	// tiny or chain-like structures, pooled for wide ones, doacross when
	// the natural order already parallelizes).
	var dec *planner.Decision
	if cfg.adaptive() {
		d := planner.Select(planner.Analyze(deps, wf, cfg.Procs), cfg.Model)
		dec = &d
		cfg.Executor = d.Strategy
	}
	s, err := cfg.schedule(deps, wf)
	if err != nil {
		return nil, err
	}
	return &Runtime{cfg: cfg, deps: deps, wf: wf, sched: s, exec: executor.New(cfg.Executor), decision: dec}, nil
}

// wavefronts is the inspector proper: the wavefront number of every index,
// or an error for a cyclic or out-of-range structure.
func (c *Config) wavefronts(deps *wavefront.Deps) ([]int32, error) {
	switch {
	case deps.CheckBackward() != nil:
		// General DAG: fall back to Kahn's algorithm, which also rejects
		// cyclic inputs with a useful error.
		return wavefront.ComputeDAG(deps)
	case c.ParallelInspector:
		return wavefront.ComputeParallel(deps, c.Procs)
	default:
		return wavefront.Compute(deps)
	}
}

// schedule builds the configured schedule over the inspected structure.
// Natural-order execution — the doacross executor, or any executor over
// the natural schedule — busy-waits in index order, so a forward
// dependence (an index waiting on a later one in its own processor's
// list) would spin forever; it is rejected here.
func (c *Config) schedule(deps *wavefront.Deps, wf []int32) (*schedule.Schedule, error) {
	if c.Executor == executor.DoAcross || c.Scheduler == NaturalScheduler {
		if err := deps.CheckBackward(); err != nil {
			return nil, fmt.Errorf("core: natural-order execution needs backward dependences: %w", err)
		}
	}
	var s *schedule.Schedule
	switch c.Scheduler {
	case GlobalScheduler:
		if c.WorkWeights != nil {
			s = schedule.GlobalByWork(wf, c.WorkWeights, c.Procs)
		} else {
			s = schedule.Global(wf, c.Procs)
		}
	case LocalScheduler:
		s = schedule.Local(wf, c.Procs, c.Partition)
	case NaturalScheduler:
		s = schedule.Natural(deps.N, c.Procs, c.Partition)
	default:
		return nil, fmt.Errorf("core: unknown scheduler %v", c.Scheduler)
	}
	if c.MergePhases {
		s = schedule.MergePhases(s, deps)
	}
	return s, nil
}

// Decision returns the planner's strategy decision, or nil when the
// caller pinned the executor (WithExecutor).
func (r *Runtime) Decision() *planner.Decision { return r.decision }

// Run executes the loop body under the configured executor. It may be
// called repeatedly; the schedule — and, for the pooled executor, the
// worker pool — is reused across calls. A body panic propagates to the
// caller; use RunCtx to receive it as an error instead.
func (r *Runtime) Run(body executor.Body) executor.Metrics {
	return executor.MustMetrics(r.exec.Run(context.Background(), r.sched, r.deps, body))
}

// RunCtx executes the loop body with cancellation support: a cancelled
// context releases every worker (including busy-waiting ones) and returns
// ctx.Err(); a panicking body yields an *executor.PanicError.
func (r *Runtime) RunCtx(ctx context.Context, body executor.Body) (executor.Metrics, error) {
	return r.exec.Run(ctx, r.sched, r.deps, body)
}

// Close releases the pooled executor's persistent workers; it is a no-op
// for the other kinds.
func (r *Runtime) Close() error { return r.exec.Close() }

// NumWavefronts returns the number of wavefronts found by the inspector.
func (r *Runtime) NumWavefronts() int { return wavefront.NumWavefronts(r.wf) }

// Wavefronts returns the per-index wavefront numbers. The slice aliases
// runtime state and must not be modified.
func (r *Runtime) Wavefronts() []int32 { return r.wf }

// Schedule exposes the built schedule (read-only).
func (r *Runtime) Schedule() *schedule.Schedule { return r.sched }

// Deps exposes the dependence structure the runtime was built from.
func (r *Runtime) Deps() *wavefront.Deps { return r.deps }

// Config returns the effective configuration.
func (r *Runtime) Config() Config { return r.cfg }
