// Package core is the run-time system behind the paper's doconsider
// construct, and the repository's one inspector. Inspect(deps, cfg, fuse)
// is the whole inspector interface: it takes the dependence structure a
// compiler (or the transform package, or a triangular factor) yields and
// runs the inspector once — wavefront analysis, supernode detection, the
// planner's choice of executor, and a global, local or natural schedule.
// Inspection.Repair re-inspects a drifted structure incrementally
// (internal/delta). The Runtime built by New runs a loop body under that
// inspection with one executor.Executor of the chosen kind (sequential,
// pre-scheduled, self-executing, doacross or pooled), held for its
// lifetime; internal/trisolve's plans and plan cache are the other
// callers of Inspect and Repair.
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
	Procs       int                // processor lists, run by at most GOMAXPROCS participants; default 1
	Executor    executor.Kind      // executor kind; chosen adaptively unless set via WithExecutor
	Scheduler   Scheduler          // default GlobalScheduler
	Partition   schedule.Partition // initial partition for local scheduling
	MergePhases bool               // coalesce barrier phases when safe (ref [13])
	Model       *planner.CostModel // cost model for adaptive selection; nil = host-calibrated

	// kindSet records that WithExecutor pinned the kind explicitly;
	// otherwise Inspect lets the planner choose.
	kindSet bool
}

// Adaptive reports whether the planner picks the executor kind (no
// WithExecutor).
func (c *Config) Adaptive() bool { return !c.kindSet }

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

// WithMergedPhases coalesces consecutive barrier phases whenever no
// dependence inside the merged window crosses processors, reducing the
// global synchronization count of the pre-scheduled executor (the
// rearrangement idea of the paper's reference [13]). It has no effect on
// the self-executing executor, which has no barriers to merge.
func WithMergedPhases() Option { return func(c *Config) { c.MergePhases = true } }

// buildConfig resolves options against the defaults.
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

// Runtime is a prepared loop: the inspection of its dependence structure
// and the executor that runs it. A pooled runtime's passes borrow the
// process's shared worker set, so a Runtime holds no goroutines and has
// nothing to release.
type Runtime struct {
	in   *Inspection
	exec *executor.Executor
}

// New runs the inspector on the dependence structure (Inspect, with
// supernodal fusion under FuseAuto) and prepares the executor. It
// returns an error if the dependences are not executable (cycle,
// out-of-range edge, or a forward dependence under natural-order
// execution) rather than letting an executor deadlock.
func New(deps *wavefront.Deps, opts ...Option) (*Runtime, error) {
	in, err := Inspect(deps, buildConfig(opts), FuseAuto)
	if err != nil {
		return nil, err
	}
	return &Runtime{in: in, exec: executor.New(in.Kind)}, nil
}

// Decision returns the planner's strategy decision, or nil when the
// caller pinned the executor (WithExecutor).
func (r *Runtime) Decision() *planner.Decision { return r.in.Decision }

// Run executes the loop body under the configured executor. It may be
// called repeatedly; the schedule — and, for the pooled executor, the
// ready array — is reused across calls. A body panic propagates to the
// caller; use RunCtx to receive it as an error instead.
func (r *Runtime) Run(body executor.Body) executor.Metrics {
	return executor.MustMetrics(r.RunCtx(context.Background(), body))
}

// RunCtx executes the loop body with cancellation support: a cancelled
// context releases every worker (including busy-waiting ones) and returns
// ctx.Err(); a panicking body yields an *executor.PanicError. On a fused
// runtime the body is swept over each supernode's iterations
// (Inspection.Sweep) and Executed still counts iterations.
func (r *Runtime) RunCtx(ctx context.Context, body executor.Body) (executor.Metrics, error) {
	return r.in.Run(ctx, r.exec, r.in.Sweep(body))
}

// NumWavefronts returns the number of wavefronts found by the inspector.
func (r *Runtime) NumWavefronts() int { return wavefront.NumWavefronts(r.in.Wf) }

// Wavefronts returns the per-index wavefront numbers. The slice aliases
// runtime state and must not be modified.
func (r *Runtime) Wavefronts() []int32 { return r.in.Wf }

// Schedule exposes the built schedule (read-only); a fused runtime's
// schedule runs supernodes.
func (r *Runtime) Schedule() *schedule.Schedule { return r.in.Sched }

// Deps exposes the dependence structure the runtime was built from.
func (r *Runtime) Deps() *wavefront.Deps { return r.in.Deps }

// Config returns the effective configuration: Executor is the kind the
// runtime runs, whether pinned or chosen by the planner.
func (r *Runtime) Config() Config {
	c := r.in.cfg
	c.Executor = r.in.Kind
	return c
}
