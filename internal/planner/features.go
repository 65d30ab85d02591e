package planner

import (
	"doconsider/internal/wavefront"
)

// Features are cheap structural measurements of one dependence DAG at a
// fixed processor count — everything the cost model needs, computable in
// one O(N + E) sweep at plan-construction time (the inspector already
// paid O(N + E) for the wavefront numbers, so analysis does not change
// the asymptotic cost of planning).
type Features struct {
	N     int `json:"n"`     // loop indices (rows)
	Edges int `json:"edges"` // dependence edges (off-diagonals of a factor)
	P     int `json:"p"`     // processors the plan will run on

	Levels   int     `json:"levels"`    // wavefront count — the DAG depth
	MaxWidth int     `json:"max_width"` // widest wavefront
	AvgDeps  float64 `json:"avg_deps"`  // Edges / N

	// LevelSum is Σ_l ceil(width_l / P): the step count of a perfectly
	// dealt wavefront schedule where every index costs one step. It lower-
	// bounds to max(ceil(N/P), Levels) and is the pooled executor's
	// idealized makespan in row units.
	LevelSum int `json:"level_sum"`
	// NatSteps is the unit-work makespan of the natural striped order —
	// the doacross executor's idealized makespan in row units, from an
	// exact earliest-finish sweep over the DAG with index i pinned to
	// worker i mod P.
	NatSteps int `json:"nat_steps"`
	// LateEdges counts dependence edges shorter than the stripe width P.
	// Under the natural striped order the producer of such an edge runs
	// in the consumer's own time slot (or later), so each is a likely
	// busy-wait for the doacross executor.
	LateEdges int `json:"late_edges"`
	// Backward reports that every dependence points to a smaller index —
	// the precondition for executing the natural order at all. A general
	// DAG (forward edges) rules the doacross executor out entirely: its
	// striped natural order would busy-wait on indices later in the same
	// worker's own list.
	Backward bool `json:"backward"`

	// Fusion, when non-nil, describes the supernode partition the caller
	// detected over this structure (internal/supernode) and makes the
	// supernodal executor a candidate. Inspections that do not execute
	// fused units — pinned kinds, FuseOff, schedules other than the
	// wrapped deal — leave it nil and the planner never chooses fusion.
	Fusion *Fusion `json:"fusion,omitempty"`
}

// Fusion summarizes a supernode partition for cost-model pricing: the
// unit-level structure after fusing runs of rows into single scheduling
// units. The per-row arithmetic is unchanged by fusion — only the
// scheduling-unit count, dependence-check count and barrier count shrink.
type Fusion struct {
	Nodes     int `json:"nodes"`      // scheduling units after fusion
	FusedRows int `json:"fused_rows"` // rows inside nodes of width >= 2
	MaxWidth  int `json:"max_width"`  // widest node
	// Unit-level DAG shape, measured like the row-level LevelSum/Levels
	// but over the compressed dependence structure.
	UnitEdges    int `json:"unit_edges"`
	UnitLevels   int `json:"unit_levels"`
	UnitLevelSum int `json:"unit_level_sum"` // Σ_l ceil(unit_width_l / P)
}

// Analyze measures deps (with wavefront numbers wf, as computed by the
// inspector) for execution on procs processors.
func Analyze(deps *wavefront.Deps, wf []int32, procs int) Features {
	if procs < 1 {
		procs = 1
	}
	f := Features{N: deps.N, Edges: deps.Edges(), P: procs}
	if deps.N == 0 {
		return f
	}

	hist := wavefront.Histogram(wf)
	f.Levels = len(hist)
	for _, w := range hist {
		if w > f.MaxWidth {
			f.MaxWidth = w
		}
		f.LevelSum += (w + procs - 1) / procs
	}
	f.AvgDeps = float64(f.Edges) / float64(f.N)

	// Earliest-finish sweep of the natural striped order: index i runs on
	// worker i mod P after the worker's previous index and after every
	// dependence. finish is in unit row-steps. The sweep is exact only
	// for backward dependences; a forward edge marks the DAG general and
	// the doacross candidate invalid (see Backward).
	finish := make([]int32, f.N)
	natMax := int32(0)
	f.Backward = true
	for i := 0; i < f.N; i++ {
		start := int32(0)
		if i >= procs {
			start = finish[i-procs]
		}
		for _, t := range deps.On(i) {
			if int(t) >= i {
				f.Backward = false
			}
			if d := i - int(t); d < procs && d > -procs {
				f.LateEdges++
			}
			if finish[t] > start {
				start = finish[t]
			}
		}
		finish[i] = start + 1
		if finish[i] > natMax {
			natMax = finish[i]
		}
	}
	f.NatSteps = int(natMax)
	return f
}
