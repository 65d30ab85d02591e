package tables

import (
	"fmt"
	"io"

	"doconsider/internal/machine"
	"doconsider/internal/problems"
	"doconsider/internal/schedule"
)

// SolveRow decomposes the time of one parallel triangular solve the way
// Tables 2 and 3 do: the measured (here: simulated) parallel time, the
// rotating-processor estimate, the single-processor parallel-code estimate
// and the pure sequential estimate, all divided by P×(symbolic efficiency)
// where applicable.
type SolveRow struct {
	Problem          string
	Phases           int
	SymbolicEff      float64
	ParallelTime     float64 // full-cost simulation
	RotatingEstimate float64 // rotating time / (P * symbolic eff), plus barrier for pre-scheduled
	OnePEParallel    float64 // 1-PE parallel time / (P * symbolic eff)
	OnePESeq         float64 // sequential time / (P * symbolic eff)
	DoacrossTime     float64 // Table 2 only: natural-order busy-wait loop
}

// TriSolveDecomposition reproduces Table 2 (self-executing) or Table 3
// (pre-scheduled) for the given problems on nproc processors under costs:
// machine.MultimaxCosts for the paper's machine, machine.Calibrate for
// this host.
func TriSolveDecomposition(names []string, nproc int, kind machine.Executor, costs machine.Costs) ([]SolveRow, error) {
	rows := make([]SolveRow, 0, len(names))
	for _, name := range names {
		p, err := problems.Get(name)
		if err != nil {
			return nil, err
		}
		gs := schedule.Global(p.Wf, nproc)
		symEff, err := machine.SymbolicEfficiency(kind, gs, p.Deps, p.Work)
		if err != nil {
			return nil, err
		}
		seq := problems.TotalWork(p.Work) * costs.Tflop
		denom := float64(nproc) * symEff

		var parallel float64
		switch kind {
		case machine.SelfExecutingSim:
			r, err := machine.SimulateSelfExecuting(gs, p.Deps, p.Work, costs)
			if err != nil {
				return nil, err
			}
			parallel = r.Makespan
		case machine.PreScheduledSim:
			parallel = machine.SimulatePreScheduled(gs, p.Work, costs).Makespan
		}

		onePEPar := machine.OneProcessorParallelTime(kind, p.Deps, p.Work, costs)
		rotating := onePEPar / denom
		if kind == machine.PreScheduledSim {
			rotating += float64(float64(gs.NumPhases) * costs.Tsynch) // rounded first: never fused
		}

		row := SolveRow{
			Problem:          name,
			Phases:           gs.NumPhases,
			SymbolicEff:      symEff,
			ParallelTime:     parallel,
			RotatingEstimate: rotating,
			OnePEParallel:    onePEPar / denom,
			OnePESeq:         seq / denom,
		}
		if kind == machine.SelfExecutingSim {
			// Doacross comparison (Table 2 text): natural order, busy waits.
			nat := schedule.Natural(p.L.N, nproc, schedule.Striped)
			r, err := machine.SimulateSelfExecuting(nat, p.Deps, p.Work, costs)
			if err != nil {
				return nil, err
			}
			row.DoacrossTime = r.Makespan
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FprintSolveRows renders Table 2/3 rows.
func FprintSolveRows(w io.Writer, rows []SolveRow, kind machine.Executor, nproc int) {
	which := "Table 3: Pre-Scheduled Triangular Solves"
	if kind == machine.SelfExecutingSim {
		which = "Table 2: Self-Executing Triangular Solves"
	}
	fmt.Fprintf(w, "%s (%d processors, work units)\n", which, nproc)
	fmt.Fprintf(w, "%-9s %7s %9s %10s %10s %8s %8s",
		"Problem", "Phases", "SymbEff", "Parallel", "Rotating", "1PE-Par", "1PE-Seq")
	if kind == machine.SelfExecutingSim {
		fmt.Fprintf(w, " %10s", "Doacross")
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%-9s %7d %9.2f %10.0f %10.0f %8.0f %8.0f",
			r.Problem, r.Phases, r.SymbolicEff, r.ParallelTime,
			r.RotatingEstimate, r.OnePEParallel, r.OnePESeq)
		if kind == machine.SelfExecutingSim {
			fmt.Fprintf(w, " %10.0f", r.DoacrossTime)
		}
		fmt.Fprintln(w)
	}
}
