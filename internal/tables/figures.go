package tables

import (
	"fmt"
	"io"
	"strings"

	"doconsider/internal/machine"
	"doconsider/internal/model"
	"doconsider/internal/problems"
	"doconsider/internal/schedule"
	"doconsider/internal/stencil"
	"doconsider/internal/wavefront"
)

// Fig12Point is one point of Figure 12: estimated efficiency of the same
// striped partition and local (wavefront-sorted) schedule under barrier
// synchronization vs self-executing synchronization.
type Fig12Point struct {
	Procs     int
	BarrierE  float64
	SelfExecE float64
}

// Figure12 sweeps processor counts on the 65×65 five-point mesh, indices
// assigned striped (i mod P), schedules produced by a topological sort with
// indices in each phase in increasing order — paper §5.1.4. The barrier
// efficiencies fluctuate wildly because whole wavefronts can land on a
// single processor; self-execution pipelines through.
func Figure12(maxProcs int) ([]Fig12Point, error) {
	p, err := problems.Get("65mesh")
	if err != nil {
		return nil, err
	}
	pts := make([]Fig12Point, 0, maxProcs)
	for np := 1; np <= maxProcs; np++ {
		ls := schedule.Local(p.Wf, np, schedule.Striped)
		barrier, err := machine.SymbolicEfficiency(machine.PreScheduledSim, ls, p.Deps, p.Work)
		if err != nil {
			return nil, err
		}
		self, err := machine.SymbolicEfficiency(machine.SelfExecutingSim, ls, p.Deps, p.Work)
		if err != nil {
			return nil, err
		}
		pts = append(pts, Fig12Point{Procs: np, BarrierE: barrier, SelfExecE: self})
	}
	return pts, nil
}

// FprintFigure12 renders the sweep as aligned series plus an ASCII chart.
func FprintFigure12(w io.Writer, pts []Fig12Point) {
	fmt.Fprintln(w, "Figure 12: Effect of local ordering (65x65 mesh, striped partition)")
	fmt.Fprintf(w, "%6s %10s %12s\n", "Procs", "Barrier", "SelfExec")
	for _, pt := range pts {
		fmt.Fprintf(w, "%6d %10.3f %12.3f  |%s\n", pt.Procs, pt.BarrierE, pt.SelfExecE,
			bar(pt.BarrierE, 'b')+"\n"+strings.Repeat(" ", 32)+"|"+bar(pt.SelfExecE, 's'))
	}
}

func bar(e float64, c byte) string {
	n := int(float64(e*40) + 0.5) // rounded first: never fused
	if n < 0 {
		n = 0
	}
	if n > 40 {
		n = 40
	}
	return strings.Repeat(string(c), n)
}

// Fig13Point is one point of the Figure 13 study: self-executing
// efficiency on the model problem versus processor count, with the
// equation-5 model prediction.
type Fig13Point struct {
	Procs      int
	SimulatedE float64
	ModelE     float64
}

// Figure13 runs the model problem (m×n five-point mesh, uniform work,
// global scheduling, self-execution) across processor counts and compares
// against the analytic E_opt of equation 5.
func Figure13(m, n, maxProcs int) ([]Fig13Point, error) {
	a := stencil.Laplace2D(m, n)
	deps := wavefront.FromLower(a)
	wf, err := wavefront.Compute(deps)
	if err != nil {
		return nil, err
	}
	work := make([]float64, deps.N)
	for i := range work {
		work[i] = 1
	}
	pts := make([]Fig13Point, 0, maxProcs)
	for np := 1; np <= maxProcs && np <= m && np <= n; np++ {
		gs := schedule.Global(wf, np)
		r, err := machine.SimulateSelfExecuting(gs, deps, work, machine.FlopOnly())
		if err != nil {
			return nil, err
		}
		pts = append(pts, Fig13Point{
			Procs:      np,
			SimulatedE: r.Efficiency,
			ModelE:     model.EoptSelfExecuting(m, n, np),
		})
	}
	return pts, nil
}

// FprintFigure13 renders the model-problem sweep.
func FprintFigure13(w io.Writer, pts []Fig13Point, m, n int) {
	fmt.Fprintf(w, "Figure 13: Self-executing pipelining on the %dx%d model problem\n", m, n)
	fmt.Fprintf(w, "%6s %10s %10s\n", "Procs", "Simulated", "Eq.5")
	for _, pt := range pts {
		fmt.Fprintf(w, "%6d %10.3f %10.3f\n", pt.Procs, pt.SimulatedE, pt.ModelE)
	}
}

// FprintFigure9 draws the paper's Figure 9/10 illustration: the wavefront
// number and the wrapped processor assignment of every point of an m×n
// five-point mesh.
func FprintFigure9(w io.Writer, m, n, nproc int) error {
	a := stencil.Laplace2D(m, n)
	deps := wavefront.FromLower(a)
	wf, err := wavefront.Compute(deps)
	if err != nil {
		return err
	}
	gs := schedule.Global(wf, nproc)
	owner := make([]int, len(wf))
	for p := 0; p < gs.P; p++ {
		for _, idx := range gs.Proc(p) {
			owner[idx] = p
		}
	}
	g := stencil.Grid2D{NX: m, NY: n}
	fmt.Fprintf(w, "Figure 9: wavefront number per mesh point (%dx%d, natural order)\n", m, n)
	for j := n - 1; j >= 0; j-- {
		for i := 0; i < m; i++ {
			fmt.Fprintf(w, "%3d", wf[g.Index(i, j)])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "\nFigure 10: wrapped processor assignment (%d processors)\n", nproc)
	for j := n - 1; j >= 0; j-- {
		for i := 0; i < m; i++ {
			fmt.Fprintf(w, "%3d", owner[g.Index(i, j)])
		}
		fmt.Fprintln(w)
	}
	return nil
}

// FprintSummary renders the Figure 1 quadrant of conclusions.
func FprintSummary(w io.Writer) {
	fmt.Fprint(w, `Figure 1: Performance of Scheduling and Sorting Strategies

             Pre-Scheduled                    Self-Executing
          +--------------------------------+---------------------------------+
  Local   | Performance can degrade        | Recommended: performance        |
  sort    | catastrophically               | reasonably robust, low          |
          |                                | overhead for setup              |
          +--------------------------------+---------------------------------+
  Global  | Performance robust but         | Most robust alternative,        |
  sort    | prescheduling limits           | relatively high setup time      |
          | exploitable concurrency        |                                 |
          +--------------------------------+---------------------------------+
`)
}
