package core

import (
	"context"

	"doconsider/internal/delta"
	"doconsider/internal/executor"
)

// Patch applies a structural edit set to the runtime in place: the
// dependence structure drifts (a few iterations gain or lose
// dependences — an adaptive mesh step, a refactorization with a changed
// drop pattern) and the runtime repairs its inspection (Inspection.Repair)
// instead of paying a full re-inspection — falling back to one, exactly
// as New would run it, when the edit exceeds the break-even bound or the
// level-change cone outgrows it (stats.Fallback reports which way it
// went). A repair keeps the strategy decision; a fallback that chooses
// another kind replaces the executor.
//
// Patch must not run concurrently with Run/RunCtx on the same runtime:
// it replaces the structures an executing pass is reading.
func (r *Runtime) Patch(edits delta.EditSet) (delta.Stats, error) {
	return r.PatchCtx(context.Background(), edits)
}

// PatchCtx is Patch with cancellation support; repair itself runs in
// microseconds, so the context is consulted only before it starts.
func (r *Runtime) PatchCtx(ctx context.Context, edits delta.EditSet) (delta.Stats, error) {
	if err := ctx.Err(); err != nil {
		return delta.Stats{}, err
	}
	newDeps, changed, err := delta.Apply(r.in.Deps, edits)
	if err != nil || len(changed) == 0 {
		return delta.Stats{}, err
	}
	in, stats, err := r.in.Repair(newDeps, changed)
	if err != nil {
		return stats, err
	}
	if in.Kind != r.in.Kind {
		r.exec = executor.New(in.Kind)
	}
	r.in = in
	return stats, nil
}
