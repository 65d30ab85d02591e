package planner

import (
	"fmt"
	"math"

	"doconsider/internal/executor"
)

// CostModel holds the per-operation costs, in seconds, that turn DAG
// features into predicted executor pass times. The shape of the model is
// the paper's own §5.1.2 accounting — per-row work, shared-array checks,
// busy-wait losses, per-pass overhead — with constants for a current
// commodity core (Default) or measured on the host (Calibrate) instead
// of the Encore Multimax's.
//
// Only ratios matter for strategy selection, but the constants are kept
// in absolute seconds so predictions can be sanity-checked against real
// pass timings.
type CostModel struct {
	TRow   float64 // fixed per-row cost: loop body dispatch, row header
	TDep   float64 // per-dependence cost: one multiply-add + column load
	TCheck float64 // one shared ready-array check (atomic load)
	TSpin  float64 // one not-ready busy-wait round (check + Gosched)
	TPass  float64 // fixed parallel pass overhead: waking and retiring workers

	// TRowFused is the per-row fixed cost of a row executed inside a
	// supernode beyond the node's first: the fused kernels pay one body
	// dispatch and one set of dependence checks per node, so trailing
	// rows cost only their loop header and bounds setup. Policy-grade,
	// not measured — Calibrate leaves it at its default.
	TRowFused float64

	// Parallelism is the hardware parallelism the host can actually
	// deliver: Calibrate records GOMAXPROCS, and 0 — the canonical
	// default — trusts the plan's processor count. Under a model from
	// Calibrate, a plan configured for more workers than the host has
	// cores gets no compute speedup from the excess, only coordination
	// overhead, so Predict floors the parallel step counts at
	// N/Parallelism.
	Parallelism int

	// Scatter inflates the parallel compute term to account for the
	// wavefront sort destroying the natural row-access locality: the
	// pooled executor walks rows in (level, index) order, so consecutive
	// bodies touch non-adjacent rows of the factor and of x. It is
	// dimensionless (a fraction of the compute term).
	Scatter float64
}

// Default returns the canonical cost model: constants representative of
// a current commodity core, fixed so decisions (and the golden decision
// table in this package's tests) are machine-independent. A nil model
// means this one everywhere. Calibrate replaces the timing constants
// with host measurements.
func Default() *CostModel {
	return &CostModel{
		TRow:      25e-9,
		TRowFused: 10e-9,
		TDep:      6e-9,
		TCheck:    4e-9,
		TSpin:     120e-9,
		TPass:     15e-6,
		Scatter:   0.05,
	}
}

// procs returns the plan's processor count p (at least 1) and the
// effective parallelism eff: excess workers beyond the host's cores add
// coordination, not speedup, so parallel step counts are floored at the
// work bound N/eff.
func (m *CostModel) procs(f Features) (p, eff float64) {
	p = max(float64(f.P), 1)
	if m.Parallelism > 0 {
		return p, min(p, float64(m.Parallelism))
	}
	return p, p
}

// Predict estimates the wall time, in seconds, of one executor pass over
// a structure with features f under strategy kind: one of the three
// Select prices. Other kinds predict +Inf so Select can iterate
// candidates without special cases.
func (m *CostModel) Predict(f Features, kind executor.Kind) float64 {
	n, edges := float64(f.N), float64(f.Edges)
	p, eff := m.procs(f)
	steps := func(ideal int) float64 { return max(float64(ideal), n/eff) }
	row := m.TRow + m.TDep*f.AvgDeps
	switch kind {
	case executor.Sequential:
		return n * row
	case executor.Pooled:
		// Ideal wavefront-dealt makespan, inflated by the sort's locality
		// scatter, plus the per-edge ready checks one worker performs and
		// the fixed cost of waking the pool.
		return steps(f.LevelSum)*row*(1+m.Scatter) + edges/p*m.TCheck + m.TPass
	case executor.DoAcross:
		// Natural striped makespan (no sort, so no scatter), per-edge
		// checks, and a spin penalty for every edge short enough that the
		// producer shares the consumer's time slot.
		return steps(f.NatSteps)*row + edges/p*m.TCheck + float64(f.LateEdges)/p*m.TSpin + m.TPass
	default:
		return math.Inf(1)
	}
}

// PredictFused estimates the wall time, in seconds, of one supernodal
// executor pass: rows run inside fused units, so only the first row of
// each node pays the full per-unit cost (dispatch, ready checks) while
// trailing rows pay TRowFused, and the parallel makespan is measured in
// units over the compressed level structure. Features without fusion
// data — or kinds the fused kernels don't target — predict +Inf so
// Select can iterate candidates without special cases.
func (m *CostModel) PredictFused(f Features, kind executor.Kind) float64 {
	fu := f.Fusion
	if fu == nil || fu.Nodes <= 0 {
		return math.Inf(1)
	}
	nodes, n, edges := float64(fu.Nodes), float64(f.N), float64(f.Edges)
	p, eff := m.procs(f)
	// Per-pass compute: one full row cost per node, the discounted cost
	// for every fused trailing row, and the unchanged per-dependence
	// arithmetic (fusion removes checks and dispatch, not flops).
	compute := nodes*m.TRow + (n-nodes)*m.TRowFused + edges*m.TDep
	switch kind {
	case executor.Sequential:
		return compute
	case executor.Pooled:
		steps := max(float64(fu.UnitLevelSum), nodes/eff)
		unit := compute / nodes
		return steps*unit*(1+m.Scatter) + float64(fu.UnitEdges)/p*m.TCheck + m.TPass
	default:
		return math.Inf(1)
	}
}

// Validate rejects models whose constants are non-positive or non-finite
// — a failed calibration must fall back to defaults, not produce NaN
// predictions that compare false against everything.
func (m *CostModel) Validate() error {
	for _, c := range []struct {
		name string
		v    float64
	}{
		{"t_row", m.TRow}, {"t_dep", m.TDep}, {"t_check", m.TCheck},
		{"t_spin", m.TSpin}, {"t_pass", m.TPass}, {"t_row_fused", m.TRowFused},
	} {
		if !(c.v > 0) || math.IsInf(c.v, 0) {
			return fmt.Errorf("planner: cost model %s = %v, want finite > 0", c.name, c.v)
		}
	}
	if m.Scatter < 0 || m.Scatter > 10 || math.IsNaN(m.Scatter) {
		return fmt.Errorf("planner: cost model scatter = %v out of range", m.Scatter)
	}
	if m.Parallelism < 0 {
		return fmt.Errorf("planner: cost model parallelism = %d, want >= 0", m.Parallelism)
	}
	return nil
}
