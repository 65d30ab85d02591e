package tables

import (
	"fmt"
	"io"
	"time"

	"doconsider/internal/core"
	"doconsider/internal/machine"
	"doconsider/internal/problems"
	"doconsider/internal/schedule"
	"doconsider/internal/trisolve"
	"doconsider/internal/wavefront"
)

// Table5Row compares local and global index-set scheduling: the measured
// inspector costs (wall clock on the host) and the resulting run times
// (cost-model simulation at nproc processors).
type Table5Row struct {
	Problem      string
	SeqSolveWall time.Duration // one sequential triangular solve (measured)
	SeqSortWall  time.Duration // sequential wavefront sweep (measured)
	ParSortWall  time.Duration // parallel striped wavefront sweep (measured)
	GlobalWall   time.Duration // global schedule construction, incl. rearrangement (measured)
	LocalWall    time.Duration // local schedule construction (measured)
	GlobalRun    float64       // simulated 16-processor self-executing run, global schedule
	LocalRun     float64       // simulated 16-processor self-executing run, local schedule
}

// Table5 reproduces Table 5 for the given problems.
func Table5(names []string, nproc int) ([]Table5Row, error) {
	costs := machine.MultimaxCosts()
	rows := make([]Table5Row, 0, len(names))
	for _, name := range names {
		p, err := problems.Get(name)
		if err != nil {
			return nil, err
		}
		n := p.L.N
		b := make([]float64, n)
		x := make([]float64, n)
		for i := range b {
			b[i] = 1
		}
		t0 := time.Now()
		if err := trisolve.ForwardSeq(p.L, x, b); err != nil {
			return nil, err
		}
		seqSolve := time.Since(t0)

		t0 = time.Now()
		wf, err := wavefront.Compute(p.Deps)
		if err != nil {
			return nil, err
		}
		seqSort := time.Since(t0)

		t0 = time.Now()
		if _, err := core.ParallelSweep(p.Deps, nproc); err != nil {
			return nil, err
		}
		parSort := time.Since(t0)

		t0 = time.Now()
		gs := schedule.Global(wf, nproc)
		globalWall := time.Since(t0)

		t0 = time.Now()
		ls := schedule.Local(wf, nproc, schedule.Striped)
		localWall := time.Since(t0)

		gRun, err := machine.SimulateSelfExecuting(gs, p.Deps, p.Work, costs)
		if err != nil {
			return nil, err
		}
		lRun, err := machine.SimulateSelfExecuting(ls, p.Deps, p.Work, costs)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table5Row{
			Problem:      name,
			SeqSolveWall: seqSolve,
			SeqSortWall:  seqSort,
			ParSortWall:  parSort,
			GlobalWall:   globalWall,
			LocalWall:    localWall,
			GlobalRun:    gRun.Makespan,
			LocalRun:     lRun.Makespan,
		})
	}
	return rows, nil
}

// FprintTable5 renders Table 5 rows.
func FprintTable5(w io.Writer, rows []Table5Row, nproc int) {
	fmt.Fprintf(w, "Table 5: Local vs Global Index-Set Scheduling (%d processors)\n", nproc)
	fmt.Fprintf(w, "%-10s %10s %10s %10s %10s %10s %10s %10s\n",
		"Problem", "SeqSolve", "SeqSort", "ParSort", "GlobalSch", "LocalSch", "GlobRun", "LocRun")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %10s %10s %10s %10s %10s %10.0f %10.0f\n",
			r.Problem,
			r.SeqSolveWall.Round(time.Microsecond),
			r.SeqSortWall.Round(time.Microsecond),
			r.ParSortWall.Round(time.Microsecond),
			r.GlobalWall.Round(time.Microsecond),
			r.LocalWall.Round(time.Microsecond),
			r.GlobalRun, r.LocalRun)
	}
}
