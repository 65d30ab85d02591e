package tables

import (
	"fmt"
	"io"
	"time"

	"doconsider/internal/executor"
	"doconsider/internal/machine"
	"doconsider/internal/problems"
	"doconsider/internal/schedule"
	"doconsider/internal/trisolve"
)

// TimeGoRow is one row of the §5.1.2 accounting, with both the simulated
// decomposition (deterministic, Multimax-calibrated) and a measured
// goroutine run on the host.
type TimeGoRow struct {
	Executor     string
	SimBusyFrac  float64       // simulated mean busy fraction across processors
	SimIdleFrac  float64       // simulated mean idle fraction
	SimMakespan  float64       // simulated makespan, work units
	HostTotal    time.Duration // measured wall time of the goroutine run
	HostMaxWait  float64       // worst per-processor waiting share (measured)
	HostSpinHits int64         // dependences not ready on first check (self-exec)
}

// WhereDoesTheTimeGo decomposes one triangular solve on the named problem
// into busy and waiting time, per executor, reproducing the §5.1.2
// analysis with both the cost model and real goroutines.
func WhereDoesTheTimeGo(name string, nproc int) ([]TimeGoRow, error) {
	p, err := problems.Get(name)
	if err != nil {
		return nil, err
	}
	costs := machine.MultimaxCosts()
	gs := schedule.Global(p.Wf, nproc)

	rhs := make([]float64, p.L.N)
	for i := range rhs {
		rhs[i] = 1
	}
	x := make([]float64, p.L.N)

	var rows []TimeGoRow

	// Self-executing.
	simSelf, err := machine.SimulateSelfExecuting(gs, p.Deps, p.Work, costs)
	if err != nil {
		return nil, err
	}
	body := trisolve.RowBody(p.L, true, x, rhs)
	mSelf, bdSelf := executor.RunSelfExecutingTimed(gs, p.Deps, body)
	rows = append(rows, TimeGoRow{
		Executor:     "self-executing",
		SimBusyFrac:  meanFrac(simSelf.Busy, simSelf.Makespan),
		SimIdleFrac:  meanFrac(simSelf.Idle, simSelf.Makespan),
		SimMakespan:  simSelf.Makespan,
		HostTotal:    bdSelf.Total,
		HostMaxWait:  bdSelf.MaxWaiting(),
		HostSpinHits: mSelf.SpinWaits,
	})

	// Pre-scheduled.
	simPre := machine.SimulatePreScheduled(gs, p.Work, costs)
	_, bdPre := executor.RunPreScheduledTimed(gs, body)
	rows = append(rows, TimeGoRow{
		Executor:    "pre-scheduled",
		SimBusyFrac: meanFrac(simPre.Busy, simPre.Makespan),
		SimIdleFrac: meanFrac(simPre.Idle, simPre.Makespan),
		SimMakespan: simPre.Makespan,
		HostTotal:   bdPre.Total,
		HostMaxWait: bdPre.MaxWaiting(),
	})
	return rows, nil
}

func meanFrac(parts []float64, total float64) float64 {
	if total == 0 || len(parts) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range parts {
		s += v
	}
	return s / (float64(len(parts)) * total)
}

// FprintTimeGo renders the §5.1.2 decomposition.
func FprintTimeGo(w io.Writer, name string, nproc int, rows []TimeGoRow) {
	fmt.Fprintf(w, "Where does the time go: %s, %d processors\n", name, nproc)
	fmt.Fprintf(w, "%-16s %10s %10s %12s %12s %10s %10s\n",
		"Executor", "SimBusy", "SimIdle", "SimMakespan", "HostWall", "MaxWait", "SpinHits")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %9.1f%% %9.1f%% %12.0f %12s %9.1f%% %10d\n",
			r.Executor, 100*r.SimBusyFrac, 100*r.SimIdleFrac, r.SimMakespan,
			r.HostTotal.Round(time.Microsecond), 100*r.HostMaxWait, r.HostSpinHits)
	}
}
