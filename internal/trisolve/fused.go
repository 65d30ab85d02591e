package trisolve

import (
	"doconsider/internal/planner"
	"doconsider/internal/schedule"
	"doconsider/internal/supernode"
	"doconsider/internal/wavefront"
)

// fusedExec is the supernodal half of a plan: the node partition over the
// iteration space and the compressed unit-level dependence structure,
// levels and schedule the executor runs instead of the row-level ones.
//
// Bit-identity invariant: a fused plan runs the same kernel as a
// row-wise one — the scheduled index is a supernode, and the body sweeps
// the row routine over the node's iteration span part.RowPtr[u] …
// part.RowPtr[u+1] in order. Fusion changes which rows share a
// scheduling unit (saving executor dispatch and dependence ready checks),
// never the per-row arithmetic, so results are bit-identical to the
// sequential oracle.
type fusedExec struct {
	part  *supernode.Partition
	deps  *wavefront.Deps    // unit-level, compressed
	wf    []int32            // unit-level wavefront numbers
	sched *schedule.Schedule // unit-level wrapped-deal schedule
	stats supernode.Stats
}

// newFusedExec builds the fused executor state for a detected partition.
// unitDeps/unitWf may be nil (they are recomputed) or carried over from
// planning to avoid the second compression pass.
func newFusedExec(part *supernode.Partition, deps, unitDeps *wavefront.Deps, unitWf []int32, nproc int) (*fusedExec, error) {
	if unitDeps == nil {
		unitDeps = part.Compress(deps)
	}
	if unitWf == nil {
		var err error
		if unitWf, err = wavefront.Compute(unitDeps); err != nil {
			return nil, err
		}
	}
	return &fusedExec{
		part:  part,
		deps:  unitDeps,
		wf:    unitWf,
		sched: schedule.Global(unitWf, nproc),
		stats: part.Stats(),
	}, nil
}

// fusionFeatures packages a partition's stats and unit-level DAG shape
// for the planner's supernodal candidate.
func fusionFeatures(part *supernode.Partition, unitDeps *wavefront.Deps, unitWf []int32, procs int) *planner.Fusion {
	st := part.Stats()
	fu := &planner.Fusion{
		Nodes:     st.Nodes,
		FusedRows: st.FusedRows,
		MaxWidth:  st.MaxWidth,
		UnitEdges: unitDeps.Edges(),
	}
	if procs < 1 {
		procs = 1
	}
	hist := wavefront.Histogram(unitWf)
	fu.UnitLevels = len(hist)
	for _, w := range hist {
		fu.UnitLevelSum += (w + procs - 1) / procs
	}
	return fu
}
