package core

import (
	"context"
	"fmt"
	"sync"

	"doconsider/internal/delta"
	"doconsider/internal/executor"
	"doconsider/internal/planner"
	"doconsider/internal/schedule"
	"doconsider/internal/supernode"
	"doconsider/internal/wavefront"
)

// FuseMode controls supernodal row fusion (internal/supernode).
type FuseMode int

const (
	// FuseAuto (the default) detects supernodes on adaptively planned
	// wrapped-deal global schedules and lets the planner's cost model
	// decide whether the fused executor wins.
	FuseAuto FuseMode = iota
	// FuseOff disables detection entirely: schedules are always row-wise.
	FuseOff
	// FuseForce executes fused whenever the schedule is a wrapped-deal
	// global one, bypassing the cost model — for benchmarks and
	// differential tests.
	FuseForce
)

// Inspection is the inspector's output for one dependence structure
// (paper §2.3, §3): every iteration's wavefront, the strategy the planner
// chose or the caller pinned, and the schedule it runs. It depends only
// on the structure and the configuration, so one immutable Inspection
// serves every pass, and in a plan cache every caller of the structure.
//
// A fused inspection schedules supernodes: Part groups consecutive
// iterations into units, and UnitDeps, UnitWf and Sched are unit-level
// while Deps and Wf stay row-level. A row-wise inspection's units are
// its iterations: UnitDeps and UnitWf are Deps and Wf.
type Inspection struct {
	Deps     *wavefront.Deps
	Wf       []int32
	Kind     executor.Kind
	Decision *planner.Decision    // nil when the kind was pinned
	Part     *supernode.Partition // nil for a row-wise inspection
	UnitDeps *wavefront.Deps
	UnitWf   []int32
	Sched    *schedule.Schedule

	cfg      Config
	fuse     FuseMode
	backward bool // every dependence points to a smaller iteration

	stateOnce sync.Once
	state     *delta.State // where repairs start from; see repairState
}

// Inspect runs the inspector on deps under cfg: the wavefront sweep,
// supernode detection, the planner's choice of strategy (unless cfg pins
// one) and the schedule. fuse selects supernodal fusion. Inspect returns
// an error for a structure that is not executable: a cycle, an
// out-of-range edge, or a forward dependence under natural-order
// execution.
func Inspect(deps *wavefront.Deps, cfg Config, fuse FuseMode) (*Inspection, error) {
	in := &Inspection{Deps: deps, Kind: cfg.Executor, cfg: cfg, fuse: fuse}
	var err error
	in.Wf, err = wavefront.Compute(deps)
	// The sweep refuses a dependence that does not point backward: the
	// structure is then a general DAG, leveled by Kahn's algorithm, which
	// also rejects cyclic inputs with a useful error.
	if in.backward = err == nil; !in.backward {
		if in.Wf, err = wavefront.ComputeDAG(deps); err != nil {
			return nil, err
		}
	}
	// Supernode detection. Only wrapped-deal global schedules can run the
	// compressed unit schedule, and under FuseAuto only adaptive
	// inspections detect (the cost model arbitrates; a pinned kind asked
	// for exactly the row-wise executor it named). A partition with
	// nothing fused is discarded — unless fusion is forced, where even an
	// all-singleton partition runs the unit-level schedule.
	if in.repairable() && (fuse == FuseForce || (fuse == FuseAuto && cfg.Adaptive())) {
		p := supernode.Detect(deps, supernode.Config{})
		if st := p.Stats(); st.FusedRows > 0 || fuse == FuseForce {
			in.Part, in.UnitDeps = p, p.Compress(deps)
			if in.UnitWf, err = wavefront.Compute(in.UnitDeps); err != nil {
				return nil, err
			}
		}
	}
	fused := fuse == FuseForce && in.Part != nil
	if cfg.Adaptive() {
		f := planner.Analyze(deps, in.Wf, cfg.Procs)
		if in.Part != nil {
			f.Fusion = fusionFeatures(in.Part, in.UnitDeps, in.UnitWf, cfg.Procs)
		}
		d := planner.Select(f, cfg.Model)
		// Forced fusion overrides the cost model's verdict but keeps its
		// executor kind.
		d.Fused = d.Fused || fused
		fused = d.Fused
		in.Decision, in.Kind = &d, d.Strategy
	}
	if !fused {
		in.Part, in.UnitDeps, in.UnitWf = nil, deps, in.Wf
	}
	if in.Sched, err = in.schedule(); err != nil {
		return nil, err
	}
	return in, nil
}

// repairable reports whether the inspection's schedule is a wrapped-deal
// global one (no merged phases) over backward dependences: the shape
// supernode fusion and delta repair both need.
func (in *Inspection) repairable() bool {
	return in.backward && in.cfg.Scheduler == GlobalScheduler && !in.cfg.MergePhases
}

// schedule builds the schedule the executor runs from one switch.
// Natural-order execution — the doacross executor, or any executor over
// the natural schedule — busy-waits in index order, so a forward
// dependence (an index waiting on a later one in its own processor's
// list) would spin forever; it is rejected here.
func (in *Inspection) schedule() (*schedule.Schedule, error) {
	c := &in.cfg
	if (in.Kind == executor.DoAcross || c.Scheduler == NaturalScheduler) && !in.backward {
		return nil, fmt.Errorf("core: natural-order execution needs backward dependences: %w", in.Deps.CheckBackward())
	}
	var s *schedule.Schedule
	switch {
	case in.Part != nil:
		s = schedule.Global(in.UnitWf, c.Procs)
	case c.Scheduler == GlobalScheduler:
		s = schedule.Global(in.Wf, c.Procs)
	case c.Scheduler == LocalScheduler:
		s = schedule.Local(in.Wf, c.Procs, c.Partition)
	case c.Scheduler == NaturalScheduler:
		s = schedule.Natural(in.Deps.N, c.Procs, c.Partition)
	default:
		return nil, fmt.Errorf("core: unknown scheduler %v", c.Scheduler)
	}
	if c.MergePhases {
		s = schedule.MergePhases(s, in.Deps)
	}
	return s, nil
}

// fusionFeatures packages a partition's stats and unit-level DAG shape
// for the planner's supernodal candidate.
func fusionFeatures(part *supernode.Partition, unitDeps *wavefront.Deps, unitWf []int32, procs int) *planner.Fusion {
	st := part.Stats()
	fu := &planner.Fusion{Nodes: st.Nodes, FusedRows: st.FusedRows, MaxWidth: st.MaxWidth, UnitEdges: unitDeps.Edges()}
	hist := wavefront.Histogram(unitWf)
	fu.UnitLevels = len(hist)
	for _, w := range hist {
		fu.UnitLevelSum += (w + procs - 1) / procs
	}
	return fu
}

// Repair returns the inspection of newDeps, a structure that differs
// from in.Deps exactly in the changed rows (as delta.Apply or
// delta.DiffFactor list them). A wrapped-deal global inspection whose
// edit stays within the break-even bound (delta.RepairBound) is repaired
// instead of rebuilt: levels are re-propagated through the edit's cone
// and the schedule spliced (internal/delta); a fused inspection's
// partition is re-spliced around the edited rows (supernode.Resplice)
// and its unit schedule rebuilt; the strategy decision is inherited.
// Anything else — another schedule shape, an edit past the bound, a cone
// that outgrows it — falls back to Inspect under the same configuration,
// which stats.Fallback reports.
func (in *Inspection) Repair(newDeps *wavefront.Deps, changed []int32) (*Inspection, delta.Stats, error) {
	if bound := delta.RepairBound(in.Deps.N, in.Deps.Edges()); in.repairable() && len(changed) <= bound {
		st, stats, err := in.repairState().Repair(newDeps, changed, delta.Options{MaxCone: bound})
		if err == nil {
			out := &Inspection{Deps: st.Deps, Wf: st.Wf, Kind: in.Kind, Decision: in.Decision,
				UnitDeps: st.Deps, UnitWf: st.Wf, Sched: st.Sched, cfg: in.cfg, fuse: in.fuse, backward: true, state: st}
			if in.Part == nil {
				return out, stats, nil
			}
			// Keep a drift chain fused: detection is local, so untouched
			// nodes carry over, and only the unit schedule is rebuilt.
			out.Part = supernode.Resplice(in.Part, st.Deps, changed)
			out.UnitDeps = out.Part.Compress(st.Deps)
			if out.UnitWf, err = wavefront.Compute(out.UnitDeps); err == nil {
				out.Sched = schedule.Global(out.UnitWf, in.cfg.Procs)
				return out, stats, nil
			}
		}
	}
	out, err := Inspect(newDeps, in.cfg, in.fuse)
	return out, delta.Stats{Changed: len(changed), Fallback: true}, err
}

// repairState returns the delta state repairs of this inspection start
// from, built by the first one: the row-level structure under its
// row-level schedule — for a fused inspection, the wrapped deal it would
// have run unfused. A repaired inspection carries the state its repair
// produced, so a drift chain keeps the incremental reverse adjacency.
func (in *Inspection) repairState() *delta.State {
	in.stateOnce.Do(func() {
		if in.state == nil {
			rowSched := in.Sched
			if in.Part != nil {
				rowSched = schedule.Global(in.Wf, in.cfg.Procs)
			}
			in.state = delta.NewState(in.Deps, in.Wf, rowSched)
		}
	})
	return in.state
}

// Sweep lifts a per-iteration body to the inspection's scheduled index
// space: a row-wise inspection schedules iterations themselves, a fused
// one supernodes, each covering a span of consecutive iterations that the
// lifted body runs in order. Fusion changes which iterations share a
// scheduling unit — saving dispatches and ready checks — never what an
// iteration computes, so results are bit-identical.
func (in *Inspection) Sweep(body executor.Body) executor.Body {
	if in.Part == nil {
		return body
	}
	np := in.Part.RowPtr
	return func(u int32) {
		for k := np[u]; k < np[u+1]; k++ {
			body(k)
		}
	}
}

// Run executes one pass of a Sweep-lifted body on exec. Executed counts
// iterations: the executor counts scheduled units, so a complete fused
// pass reports every iteration, and an aborted one its raw unit count.
func (in *Inspection) Run(ctx context.Context, exec *executor.Executor, body executor.Body) (executor.Metrics, error) {
	m, err := exec.Run(ctx, in.Sched, in.UnitDeps, body)
	if in.Part != nil && err == nil {
		m.Executed = int64(in.Part.N)
	}
	return m, err
}
