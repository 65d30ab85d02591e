package machine

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"doconsider/internal/problems"
	"doconsider/internal/schedule"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/simulator.golden from current simulator output")

// goldenCosts are the cost sets of the golden grid. MultimaxCosts and
// FlopOnly hold exact binary fractions, so a changed summation order
// leaves their sums untouched; "odd" is built from non-dyadic constants
// so that any re-association of the simulator's arithmetic shows up in
// the low bits.
var goldenCosts = []struct {
	name string
	c    Costs
}{
	{"multimax", MultimaxCosts()},
	{"flop", FlopOnly()},
	{"odd", Costs{Tflop: 1.1, Tsynch: 2.7, Tcheck: 0.3, Tinc: 0.7, Overhead: 0.45}},
}

var goldenSchedules = []struct {
	name string
	make func(wf []int32, p int) *schedule.Schedule
}{
	{"global", schedule.Global},
	{"striped", func(wf []int32, p int) *schedule.Schedule { return schedule.Local(wf, p, schedule.Striped) }},
	{"blocked", func(wf []int32, p int) *schedule.Schedule { return schedule.Local(wf, p, schedule.Blocked) }},
}

var goldenProcs = []int{1, 3, 16}

// goldenSim renders every simulator entry point over the problem suite,
// one line per case. Floats are written as their exact bits; vectors,
// spans and Gantt text as a SHA-256 each, which keeps the file small.
func goldenSim(t *testing.T) string {
	var sb strings.Builder
	line := func(key string, fields ...string) {
		sb.WriteString(key)
		for _, f := range fields {
			sb.WriteByte(' ')
			sb.WriteString(f)
		}
		sb.WriteByte('\n')
	}
	names := append(problems.TriSolveNames(), problems.SyntheticNames()...)
	for _, name := range names {
		p, err := problems.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		order := schedule.Global(p.Wf, 1).Proc(0)
		for _, cs := range goldenCosts {
			key := name + "/" + cs.name
			line(key+"/onepe-pre", bitsField("value", OneProcessorParallelTime(PreScheduledSim, p.Deps, p.Work, cs.c)))
			line(key+"/onepe-self", bitsField("value", OneProcessorParallelTime(SelfExecutingSim, p.Deps, p.Work, cs.c)))
		}
		for _, np := range goldenProcs {
			for _, cs := range goldenCosts {
				key := fmt.Sprintf("%s/P%d/%s", name, np, cs.name)
				for _, claimCost := range []float64{0, 2} {
					for _, pol := range []struct {
						name string
						pol  ChunkPolicy
					}{
						{"fixed1", FixedChunk(1)}, {"fixed8", FixedChunk(8)},
						{"fixed32", FixedChunk(32)}, {"guided", GuidedChunk(1)},
					} {
						r, err := SimulateSelfScheduled(order, p.Deps, p.Work, np, pol.pol, claimCost, cs.c)
						line(fmt.Sprintf("%s/selfsched-%s-claim%g", key, pol.name, claimCost), resultFields(r, err)...)
					}
				}
			}
			for _, sc := range goldenSchedules {
				s := sc.make(p.Wf, np)
				key := fmt.Sprintf("%s/%s/P%d", name, sc.name, np)
				effPre, err := SymbolicEfficiency(PreScheduledSim, s, p.Deps, p.Work)
				line(key+"/symbolic-pre", bitsField("value", effPre), errField(err))
				effSelf, err := SymbolicEfficiency(SelfExecutingSim, s, p.Deps, p.Work)
				line(key+"/symbolic-self", bitsField("value", effSelf), errField(err))
				line(key+"/remote", bitsField("value", RemoteFraction(s, p.Deps)))
				numa := DefaultNUMACosts()
				r, err := SimulateSelfExecutingNUMA(s, p.Deps, p.Work, numa)
				line(key+"/numa-default-self", resultFields(r, err)...)
				line(key+"/numa-default-pre", resultFields(SimulatePreScheduledNUMA(s, p.Work, numa), nil)...)
				for _, cs := range goldenCosts {
					c := cs.c
					ckey := key + "/" + cs.name
					line(ckey+"/pre", resultFields(SimulatePreScheduled(s, p.Work, c), nil)...)
					line(ckey+"/pretrace", traceFields(TracePreScheduled(s, p.Work, c), nil)...)
					r, err := SimulateSelfExecuting(s, p.Deps, p.Work, c)
					line(ckey+"/self", resultFields(r, err)...)
					tr, err := TraceSelfExecuting(s, p.Deps, p.Work, c)
					line(ckey+"/selftrace", traceFields(tr, err)...)
					equal := NUMACosts{Tflop: c.Tflop, TcheckLocal: c.Tcheck, TcheckRemote: c.Tcheck,
						Tinc: c.Tinc, Overhead: c.Overhead, TsynchBase: c.Tsynch}
					r, err = SimulateSelfExecutingNUMA(s, p.Deps, p.Work, equal)
					line(ckey+"/numa-equal-self", resultFields(r, err)...)
					line(ckey+"/numa-equal-pre", resultFields(SimulatePreScheduledNUMA(s, p.Work, equal), nil)...)
					line(ckey+"/rotating-pre", bitsField("value", RotatingEstimate(PreScheduledSim, s, p.Deps, p.Work, c)))
					line(ckey+"/rotating-self", bitsField("value", RotatingEstimate(SelfExecutingSim, s, p.Deps, p.Work, c)))
				}
			}
		}
	}
	return sb.String()
}

func bitsField(name string, v float64) string {
	return fmt.Sprintf("%s=%016x", name, math.Float64bits(v))
}

func errField(err error) string {
	switch {
	case err == nil:
		return "err=nil"
	case errors.Is(err, ErrStuck):
		return "err=stuck"
	default:
		return "err=" + strings.ReplaceAll(err.Error(), " ", "_")
	}
}

func floatsHash(vs ...[]float64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(len(v)))
		h.Write(b[:])
		for _, x := range v {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func resultFields(r Result, err error) []string {
	return []string{
		bitsField("makespan", r.Makespan), bitsField("seq", r.SeqTime),
		bitsField("eff", r.Efficiency), "busyidle=" + floatsHash(r.Busy, r.Idle), errField(err),
	}
}

func traceFields(tr *Trace, err error) []string {
	if tr == nil {
		return []string{errField(err)}
	}
	h := sha256.New()
	var b [8]byte
	for _, sp := range tr.Spans {
		binary.LittleEndian.PutUint32(b[:4], uint32(sp.Index))
		binary.LittleEndian.PutUint32(b[4:], uint32(sp.Proc))
		h.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(sp.Start))
		h.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(sp.Finish))
		h.Write(b[:])
	}
	var g bytes.Buffer
	tr.Gantt(&g, 100) // a bytes.Buffer write does not fail
	return []string{
		bitsField("makespan", tr.Makespan), fmt.Sprintf("nspans=%d", len(tr.Spans)),
		fmt.Sprintf("spans=%x", h.Sum(nil)), fmt.Sprintf("gantt=%x", sha256.Sum256(g.Bytes())),
		"util=" + floatsHash(tr.Utilization()), errField(err),
	}
}

// TestGoldenSimulator pins, bit for bit, what every simulator entry point
// returns over the problem suite (TriSolveNames and SyntheticNames) under
// three schedules, P in {1, 3, 16} and three cost sets. The golden was
// generated once and is meant to stay as it is: a refactor of the
// simulator must reproduce it exactly. Regenerate only for an intended
// change of the model, with
//
//	go test ./internal/machine -run TestGoldenSimulator -update
func TestGoldenSimulator(t *testing.T) {
	got := goldenSim(t)
	path := filepath.Join("testdata", "simulator.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	want := strings.Split(string(raw), "\n")
	have := strings.Split(got, "\n")
	if len(want) != len(have) {
		t.Errorf("golden has %d lines, simulator produced %d", len(want), len(have))
	}
	bad := 0
	for i := 0; i < len(want) && i < len(have); i++ {
		if want[i] != have[i] {
			if bad < 10 {
				t.Errorf("line %d:\n want %s\n  got %s", i+1, want[i], have[i])
			}
			bad++
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d golden cases differ", bad, len(want)-1)
	}
}
