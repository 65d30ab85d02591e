package core

import (
	"context"

	"doconsider/internal/delta"
	"doconsider/internal/planner"
	"doconsider/internal/wavefront"
)

// Patch applies a structural edit set to the runtime in place: the
// dependence structure drifts (a few iterations gain or lose
// dependences — an adaptive mesh step, a refactorization with a changed
// drop pattern) and the runtime repairs its wavefront levels and
// schedule through internal/delta instead of paying a full re-inspection
// — falling back to one when the planner prices the repair above a
// rebuild or the level-change cone exceeds the break-even bound
// (stats.Fallback reports which way it went). The executor is
// kept; repair never changes the strategy decision.
//
// Patch must not run concurrently with Run/RunCtx on the same runtime:
// it replaces the structures an executing pass is reading.
func (r *Runtime) Patch(edits delta.EditSet) (delta.Stats, error) {
	return r.PatchCtx(context.Background(), edits)
}

// PatchCtx is Patch with cancellation support; repair itself runs in
// microseconds, so the context is consulted only between stages.
func (r *Runtime) PatchCtx(ctx context.Context, edits delta.EditSet) (delta.Stats, error) {
	if err := ctx.Err(); err != nil {
		return delta.Stats{}, err
	}
	newDeps, changed, err := delta.Apply(r.deps, edits)
	if err != nil {
		return delta.Stats{}, err
	}
	if len(changed) == 0 {
		return delta.Stats{}, nil
	}
	if r.repairable() {
		state := r.patch
		if state == nil {
			state = delta.NewState(r.deps, r.wf, r.sched)
		}
		dec := planner.PlanRepair(r.deps.N, r.deps.Edges(), len(changed), r.cfg.Model)
		if dec.Repair {
			st, stats, rerr := state.Repair(newDeps, changed, delta.Options{MaxCone: dec.MaxCone})
			if rerr == nil {
				r.deps, r.wf, r.sched, r.patch = st.Deps, st.Wf, st.Sched, st
				return stats, nil
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return delta.Stats{}, err
	}
	stats, err := r.reinspect(newDeps)
	stats.Changed = len(changed)
	return stats, err
}

// repairable reports whether this runtime's plan shape admits a local
// repair: a wrapped-deal global schedule (no work weights, no merged
// phases) over backward dependences.
func (r *Runtime) repairable() bool {
	return r.cfg.Scheduler == GlobalScheduler &&
		r.cfg.WorkWeights == nil &&
		!r.cfg.MergePhases &&
		r.deps.CheckBackward() == nil
}

// reinspect is the Patch fallback: full wavefront recomputation and
// schedule construction for the edited structure, exactly as New would
// do, keeping the existing executor.
func (r *Runtime) reinspect(newDeps *wavefront.Deps) (delta.Stats, error) {
	wf, err := r.cfg.wavefronts(newDeps)
	if err != nil {
		return delta.Stats{Fallback: true}, err
	}
	s, err := r.cfg.schedule(newDeps, wf)
	if err != nil {
		return delta.Stats{Fallback: true}, err
	}
	r.deps, r.wf, r.sched, r.patch = newDeps, wf, s, nil
	return delta.Stats{Fallback: true}, nil
}
