package machine

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"doconsider/internal/schedule"
	"doconsider/internal/wavefront"
)

func TestTraceSelfExecutingConsistency(t *testing.T) {
	d, wf, work := meshProblem(8, 8)
	s := schedule.Global(wf, 4)
	c := MultimaxCosts()
	tr, err := TraceSelfExecuting(s, d, work, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Spans) != 64 {
		t.Fatalf("spans = %d, want 64", len(tr.Spans))
	}
	// Trace makespan must agree with the plain simulation.
	r, err := SimulateSelfExecuting(s, d, work, c)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tr.Makespan-r.Makespan) > 1e-9 {
		t.Errorf("trace makespan %v, simulation %v", tr.Makespan, r.Makespan)
	}
	// Spans on the same processor must not overlap; dependences must be
	// honoured.
	finish := make(map[int32]float64)
	procEnd := make([]float64, tr.P)
	for _, sp := range tr.Spans {
		if sp.Start < procEnd[sp.Proc]-1e-9 {
			t.Fatalf("processor %d spans overlap", sp.Proc)
		}
		procEnd[sp.Proc] = sp.Finish
		finish[sp.Index] = sp.Finish
	}
	for i := 0; i < d.N; i++ {
		for _, dep := range d.On(i) {
			// Start of i must be at or after finish of dep; find i's span.
			var si Span
			for _, sp := range tr.Spans {
				if sp.Index == int32(i) {
					si = sp
					break
				}
			}
			if si.Start < finish[dep]-1e-9 {
				t.Fatalf("index %d started before dependence %d finished", i, dep)
			}
		}
	}
}

func TestTraceOutputs(t *testing.T) {
	d, wf, work := meshProblem(5, 5)
	s := schedule.Global(wf, 3)
	tr, err := TraceSelfExecuting(s, d, work, FlopOnly())
	if err != nil {
		t.Fatal(err)
	}
	var gantt bytes.Buffer
	if err := tr.Gantt(&gantt, 40); err != nil {
		t.Fatal(err)
	}
	out := gantt.String()
	if !strings.Contains(out, "P00 |") || !strings.Contains(out, "#") {
		t.Errorf("gantt malformed:\n%s", out)
	}
	util := tr.Utilization()
	for p, u := range util {
		if u <= 0 || u > 1 {
			t.Errorf("proc %d utilization %v", p, u)
		}
	}
}

func TestTracePreScheduledConsistency(t *testing.T) {
	_, wf, work := meshProblem(7, 7)
	s := schedule.Global(wf, 3)
	c := MultimaxCosts()
	tr := TracePreScheduled(s, work, c)
	if len(tr.Spans) != 49 {
		t.Fatalf("spans = %d, want 49", len(tr.Spans))
	}
	// Makespan must match the plain pre-scheduled simulation.
	r := SimulatePreScheduled(s, work, c)
	if math.Abs(tr.Makespan-r.Makespan) > 1e-9 {
		t.Errorf("trace makespan %v, simulation %v", tr.Makespan, r.Makespan)
	}
	// Spans of phase k+1 must start at or after every span of phase k ends
	// plus the barrier.
	endOfPhase := make(map[int32]float64)
	for _, sp := range tr.Spans {
		w := wf[sp.Index]
		if sp.Finish > endOfPhase[w] {
			endOfPhase[w] = sp.Finish
		}
	}
	for _, sp := range tr.Spans {
		w := wf[sp.Index]
		if w > 0 && sp.Start < endOfPhase[w-1]+c.Tsynch-1e-9 {
			t.Fatalf("index %d (phase %d) started before barrier release", sp.Index, w)
		}
	}
}

func TestTraceEmpty(t *testing.T) {
	s := schedule.Natural(0, 2, schedule.Striped)
	d := wavefront.FromAdjacency(nil)
	tr, err := TraceSelfExecuting(s, d, nil, FlopOnly())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Gantt(&buf, 20); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "empty") {
		t.Error("empty trace not reported")
	}
}
