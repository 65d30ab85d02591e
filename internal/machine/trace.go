package machine

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"doconsider/internal/schedule"
	"doconsider/internal/wavefront"
)

// Span records the simulated execution of one loop index.
type Span struct {
	Index  int32
	Proc   int32
	Start  float64
	Finish float64
}

// Trace is the full simulated timeline of a run.
type Trace struct {
	P        int
	Makespan float64
	Spans    []Span // sorted by start time
}

// TraceSelfExecuting runs the self-executing simulation and records every
// index's (processor, start, finish) span — the raw material for Gantt
// inspection of pipelining behaviour.
func TraceSelfExecuting(s *schedule.Schedule, deps *wavefront.Deps, work []float64, c Costs) (*Trace, error) {
	tr := &Trace{P: s.P, Spans: make([]Span, 0, s.N)}
	b := staticBusyWait(s, deps, work, c)
	b.spans = &tr.Spans
	res, err := b.run()
	if err != nil {
		return nil, err
	}
	tr.Makespan = res.Makespan
	tr.sortSpans()
	return tr, nil
}

// TracePreScheduled records the timeline of the pre-scheduled executor:
// within each phase a processor runs its indices back to back, then stalls
// at the barrier until the slowest processor (plus Tsynch) releases it.
func TracePreScheduled(s *schedule.Schedule, work []float64, c Costs) *Trace {
	tr := &Trace{P: s.P, Spans: make([]Span, 0, s.N)}
	_, tr.Makespan = barrierRun(s, work, c, &tr.Spans)
	tr.sortSpans()
	return tr
}

func (tr *Trace) sortSpans() {
	sort.Slice(tr.Spans, func(a, b int) bool { return tr.Spans[a].Start < tr.Spans[b].Start })
}

// Gantt renders an ASCII timeline, one row per processor, width columns
// wide. Busy cells show '#', idle '.', so the pre-scheduled end-of-phase
// stalls and the self-executing pipeline are visible at a glance.
func (tr *Trace) Gantt(w io.Writer, width int) error {
	if width < 10 {
		width = 10
	}
	if tr.Makespan <= 0 {
		_, err := fmt.Fprintln(w, "(empty trace)")
		return err
	}
	rows := make([][]byte, tr.P)
	for p := range rows {
		rows[p] = []byte(strings.Repeat(".", width))
	}
	scale := float64(width) / tr.Makespan
	for _, sp := range tr.Spans {
		lo := int(sp.Start * scale)
		hi := int(sp.Finish * scale)
		if hi >= width {
			hi = width - 1
		}
		for c := lo; c <= hi; c++ {
			rows[sp.Proc][c] = '#'
		}
	}
	for p, row := range rows {
		if _, err := fmt.Fprintf(w, "P%02d |%s|\n", p, row); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "      0%*s%.0f (work units)\n", width-len(fmt.Sprintf("%.0f", tr.Makespan)), "", tr.Makespan)
	return err
}

// Utilization returns the busy fraction of each processor in the trace.
func (tr *Trace) Utilization() []float64 {
	busy := make([]float64, tr.P)
	for _, sp := range tr.Spans {
		busy[sp.Proc] += sp.Finish - sp.Start
	}
	if tr.Makespan > 0 {
		for p := range busy {
			busy[p] /= tr.Makespan
		}
	}
	return busy
}
