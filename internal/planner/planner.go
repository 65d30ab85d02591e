// Package planner is the adaptive half of the inspector: given the
// dependence structure a plan was built from, it measures the DAG
// (level count, width distribution, critical-path fraction, dependence
// distances), consults a calibrated cost model, and decides which
// execution strategy to run — and whether a locality-improving
// reordering from internal/reorder pays for itself — instead of making
// the caller guess.
//
// The paper's inspector exists because the best execution of a
// runtime-dependent loop varies with the dependence structure; the
// runtime-scheduling follow-ups to BaxterMS89 moved from fixed to
// adaptive schedules on exactly that observation. This package makes the
// repository's one inspector adaptive: core.Inspect — behind core.New,
// trisolve.NewPlan and the plan caches — calls Select unless the caller
// pins an executor kind, so a tiny or chain-like DAG runs sequentially, a
// wide shallow DAG runs on the pooled executor, and structures whose
// natural order already respects the wavefronts run doacross.
//
// Decisions are deterministic for a fixed cost model. The host model is
// calibrated once per machine by microbenchmark and persisted (see
// Calibrate and ForHost); set DOCONSIDER_CALIBRATION=off to use the
// canonical default constants and DOCONSIDER_CALIBRATION=<path> to
// relocate the persisted file.
package planner

import (
	"fmt"

	"doconsider/internal/executor"
)

// Reorder names a reordering the planner may apply to improve a plan.
type Reorder int

const (
	// ReorderNone keeps the global schedule's (wavefront, index) order.
	ReorderNone Reorder = iota
	// ReorderRCM orders indices within each wavefront by their reverse
	// Cuthill-McKee rank. A symmetric permutation can never shorten the
	// dependence DAG (depth is invariant under relabeling), but RCM's
	// bandwidth reduction shortens dependence distances, so the busy-wait
	// reads of the self-executing executors land on recently produced —
	// still cache-resident — entries. Because only the within-level order
	// of the schedule changes, each row's arithmetic is untouched and
	// results stay bit-identical.
	ReorderRCM
)

// String returns the reorder name as recorded in decision stats.
func (r Reorder) String() string {
	switch r {
	case ReorderNone:
		return "none"
	case ReorderRCM:
		return "rcm"
	default:
		return fmt.Sprintf("Reorder(%d)", int(r))
	}
}

// Decision is the planner's output for one dependence structure: the
// strategy to execute with, the reordering to apply (advisory —
// core.Inspect realizes it only with a rank from a caller holding the
// matrix, and otherwise records none),
// the features the choice was based on, and the predicted cost of each
// candidate so a surprising choice can be audited after the fact.
type Decision struct {
	Strategy executor.Kind
	Reorder  Reorder
	Features Features
	// Predicted wall time per executor pass, seconds, by candidate.
	PredSequential float64
	PredPooled     float64
	PredDoAcross   float64
	// PredSupernodal is the best fused-execution prediction (sequential
	// or pooled over supernode units); 0 when the caller supplied no
	// fusion data and the candidate was not priced.
	PredSupernodal float64
	// Fused reports that the supernodal candidate won: the caller should
	// execute fused units (Strategy names the executor kind the units run
	// on). Like Reorder it is advisory — callers without fused kernels
	// never set Features.Fusion and never see it.
	Fused bool
}

// String renders the decision for logs and CLI output.
func (d Decision) String() string {
	fused := ""
	if d.Fused {
		fused = "+fused"
	}
	super := ""
	if d.Features.Fusion != nil {
		super = fmt.Sprintf(" super=%.1fµs", d.PredSupernodal*1e6)
	}
	return fmt.Sprintf("%s%s/%s [n=%d edges=%d levels=%d maxw=%d; seq=%.1fµs pool=%.1fµs doacross=%.1fµs%s]",
		d.Strategy, fused, d.Reorder,
		d.Features.N, d.Features.Edges, d.Features.Levels, d.Features.MaxWidth,
		d.PredSequential*1e6, d.PredPooled*1e6, d.PredDoAcross*1e6, super)
}

// Select picks the execution strategy and reordering for a dependence
// structure with features f under cost model m (nil means the
// host-calibrated model, see ForHost). The candidates are the trio the
// serving paths register by default — sequential (tiny or chain-like
// DAGs, where any coordination costs more than the work), pooled
// (persistent workers over the wavefront-sorted schedule — the general
// parallel case), and doacross (busy-wait execution in natural order,
// which wins when the original order already respects the wavefronts
// and the wavefront sort would only scatter locality) — plus, when the
// caller supplied fusion data (Features.Fusion), the supernodal executor:
// fused units on the sequential or pooled kind over the compressed level
// structure.
func Select(f Features, m *CostModel) Decision {
	if m == nil {
		m = ForHost()
	}
	d := Decision{
		Features:       f,
		PredSequential: m.Predict(f, executor.Sequential),
		PredPooled:     m.Predict(f, executor.Pooled),
		PredDoAcross:   m.Predict(f, executor.DoAcross),
	}
	fusedKind := executor.Sequential
	if f.Fusion != nil {
		d.PredSupernodal = m.PredictFused(f, executor.Sequential)
		if f.P > 1 {
			if fp := m.PredictFused(f, executor.Pooled); fp < d.PredSupernodal {
				d.PredSupernodal, fusedKind = fp, executor.Pooled
			}
		}
	}
	d.Strategy = executor.Sequential
	best := d.PredSequential
	if f.P > 1 {
		// Deterministic tie-break: a parallel strategy must strictly
		// beat the sequential prediction, and doacross must strictly
		// beat pooled, so equal-cost structures always resolve the
		// same way on every host.
		if d.PredPooled < best {
			d.Strategy, best = executor.Pooled, d.PredPooled
		}
		// Doacross executes the natural index order, which only makes
		// progress when every dependence points backward; on a general
		// DAG the candidate is structurally invalid, whatever its
		// predicted cost.
		if f.Backward && d.PredDoAcross < best {
			d.Strategy, best = executor.DoAcross, d.PredDoAcross
		}
	}
	// The supernodal candidate must strictly beat every row-wise
	// candidate, keeping the tie-break deterministic.
	if f.Fusion != nil && d.PredSupernodal < best {
		d.Strategy, d.Fused = fusedKind, true
	}
	// Reordering is worth a plan-time RCM pass only when the structure is
	// scattered (long mean dependence distance relative to the matrix
	// order), big enough for cache effects to matter, and actually going
	// to run in parallel. It is advisory: only callers holding the matrix
	// (trisolve) can rank rows. Fused plans schedule units, not rows, so
	// a within-level row rank has nothing to rank and fusion skips it.
	if d.Strategy != executor.Sequential && !d.Fused && f.N >= m.ReorderMinN && f.DistFrac > m.ReorderDistFrac {
		d.Reorder = ReorderRCM
	}
	return d
}
