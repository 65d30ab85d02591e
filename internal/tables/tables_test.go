package tables

import (
	"bytes"
	"strings"
	"testing"

	"doconsider/internal/machine"
)

// Smaller problem sets keep the test suite fast; the full paper sets run
// from cmd/loops and the benchmarks.
var quickSet = []string{"SPE4", "5-PT"}

func TestTable1ShapesAndFormat(t *testing.T) {
	rows, err := Table1([]string{"SPE2", "SPE4", "5-PT"}, 16, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.SelfTime <= 0 || r.PreTime <= 0 {
			t.Errorf("%s: nonpositive times", r.Problem)
		}
		if r.SelfEff <= 0 || r.SelfEff > 1 || r.PreEff <= 0 || r.PreEff > 1 {
			t.Errorf("%s: efficiencies out of range: %+v", r.Problem, r)
		}
		// Headline result: self-execution beats pre-scheduling on the
		// narrow many-phase problems (SPE and 5-PT all qualify at 16 procs).
		if r.SelfTime >= r.PreTime {
			t.Errorf("%s: self-executing (%v) did not beat pre-scheduled (%v)",
				r.Problem, r.SelfTime, r.PreTime)
		}
	}
	var buf bytes.Buffer
	FprintTable1(&buf, rows, 16)
	if !strings.Contains(buf.String(), "Table 1") || !strings.Contains(buf.String(), "SPE4") {
		t.Error("Table 1 formatting broken")
	}
}

func TestTriSolveDecomposition(t *testing.T) {
	for _, kind := range []machine.Executor{machine.SelfExecutingSim, machine.PreScheduledSim} {
		rows, err := TriSolveDecomposition(quickSet, 16, kind, machine.MultimaxCosts())
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if r.Phases < 2 {
				t.Errorf("%s: phases = %d", r.Problem, r.Phases)
			}
			if r.SymbolicEff <= 0 || r.SymbolicEff > 1 {
				t.Errorf("%s: symbolic eff %v", r.Problem, r.SymbolicEff)
			}
			// The decomposition chain must be ordered as in the paper:
			// 1PE-Seq <= 1PE-Par <= Rotating (pre adds barrier) and the
			// parallel time is at least the 1PE-Seq estimate.
			if r.OnePESeq > r.OnePEParallel+1e-9 {
				t.Errorf("%s: 1PE-Seq %v > 1PE-Par %v", r.Problem, r.OnePESeq, r.OnePEParallel)
			}
			if r.RotatingEstimate < r.OnePEParallel-1e-9 {
				t.Errorf("%s: rotating %v < 1PE-Par %v", r.Problem, r.RotatingEstimate, r.OnePEParallel)
			}
			if r.ParallelTime < r.OnePESeq-1e-9 {
				t.Errorf("%s: parallel %v < 1PE-Seq %v", r.Problem, r.ParallelTime, r.OnePESeq)
			}
		}
		if kind == machine.SelfExecutingSim {
			for _, r := range rows {
				// Doacross is consistently worse than the reordered loop.
				if r.DoacrossTime < r.ParallelTime {
					t.Errorf("%s: doacross %v beat self-executing %v",
						r.Problem, r.DoacrossTime, r.ParallelTime)
				}
			}
		}
		var buf bytes.Buffer
		FprintSolveRows(&buf, rows, kind, 16)
		if !strings.Contains(buf.String(), "Phases") {
			t.Error("solve rows formatting broken")
		}
	}
}

func TestTable2BeatsTable3(t *testing.T) {
	self, err := TriSolveDecomposition(quickSet, 16, machine.SelfExecutingSim, machine.MultimaxCosts())
	if err != nil {
		t.Fatal(err)
	}
	pre, err := TriSolveDecomposition(quickSet, 16, machine.PreScheduledSim, machine.MultimaxCosts())
	if err != nil {
		t.Fatal(err)
	}
	for k := range self {
		if self[k].SymbolicEff < pre[k].SymbolicEff {
			t.Errorf("%s: self symbolic eff %v < pre %v",
				self[k].Problem, self[k].SymbolicEff, pre[k].SymbolicEff)
		}
	}
}

func TestTable4Projections(t *testing.T) {
	rows, err := Table4(quickSet, []int{16, 32, 64})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if len(r.SelfEff) != 3 || len(r.PreEff) != 3 {
			t.Fatalf("%s: wrong series lengths", r.Problem)
		}
		// The paper's projection: pre-scheduled efficiency deteriorates
		// faster with processor count than self-executing, in relative
		// terms (it is already much lower at 16 processors).
		decaySelf := r.SelfEff[2] / r.SelfEff[0]
		decayPre := r.PreEff[2] / r.PreEff[0]
		if decayPre > decaySelf {
			t.Errorf("%s: pre-scheduled retained %v of its efficiency, self %v — wrong ordering",
				r.Problem, decayPre, decaySelf)
		}
		// Both series decline with processor count.
		for k := 1; k < 3; k++ {
			if r.SelfEff[k] > r.SelfEff[k-1]+1e-9 || r.PreEff[k] > r.PreEff[k-1]+1e-9 {
				t.Errorf("%s: efficiency not declining with P: %+v", r.Problem, r)
			}
		}
		for k := range r.SelfEff {
			if r.SelfEff[k] < r.PreEff[k] {
				t.Errorf("%s: projected SE %v < PS %v at index %d",
					r.Problem, r.SelfEff[k], r.PreEff[k], k)
			}
		}
	}
	var buf bytes.Buffer
	FprintTable4(&buf, rows, []int{16, 32, 64})
	if !strings.Contains(buf.String(), "Table 4") {
		t.Error("Table 4 formatting broken")
	}
}

func TestTable5(t *testing.T) {
	rows, err := Table5([]string{"SPE4", "20-3-2"}, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.GlobalRun <= 0 || r.LocalRun <= 0 {
			t.Errorf("%s: nonpositive run times", r.Problem)
		}
		// Local and global run times are comparable under self-execution
		// (the paper's conclusion): within a factor of two either way.
		ratio := r.LocalRun / r.GlobalRun
		if ratio < 0.4 || ratio > 2.5 {
			t.Errorf("%s: local/global run ratio %v outside comparable band", r.Problem, ratio)
		}
	}
	var buf bytes.Buffer
	FprintTable5(&buf, rows, 16)
	if !strings.Contains(buf.String(), "Table 5") {
		t.Error("Table 5 formatting broken")
	}
}

func TestFigure12Shape(t *testing.T) {
	pts, err := Figure12(16)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 16 {
		t.Fatalf("points = %d", len(pts))
	}
	// Self-executing efficiency stays high and smooth; barrier efficiency
	// collapses at power-of-two processor counts on the 65×65 mesh
	// (64j ≡ 0 mod P puts whole wavefronts on one processor).
	for _, pt := range pts {
		if pt.SelfExecE < pt.BarrierE-1e-9 {
			t.Errorf("P=%d: self %v below barrier %v", pt.Procs, pt.SelfExecE, pt.BarrierE)
		}
	}
	collapse := pts[15].BarrierE // P=16
	if collapse > 0.2 {
		t.Errorf("barrier efficiency at P=16 should collapse, got %v", collapse)
	}
	if pts[15].SelfExecE < 0.5 {
		t.Errorf("self-executing efficiency at P=16 should stay high, got %v", pts[15].SelfExecE)
	}
	// Wild fluctuation: the swing across P=13..16 exceeds what self-exec shows.
	var barMin, barMax = 1.0, 0.0
	var selfMin, selfMax = 1.0, 0.0
	for _, pt := range pts[12:] {
		barMin = min(barMin, pt.BarrierE)
		barMax = max(barMax, pt.BarrierE)
		selfMin = min(selfMin, pt.SelfExecE)
		selfMax = max(selfMax, pt.SelfExecE)
	}
	if barMax-barMin < 2*(selfMax-selfMin) {
		t.Errorf("barrier swing %v not dominating self swing %v", barMax-barMin, selfMax-selfMin)
	}
	var buf bytes.Buffer
	FprintFigure12(&buf, pts)
	if !strings.Contains(buf.String(), "Figure 12") {
		t.Error("Figure 12 formatting broken")
	}
}

func TestFigure13MatchesModel(t *testing.T) {
	pts, err := Figure13(16, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range pts {
		if diff := pt.SimulatedE - pt.ModelE; diff > 0.05 || diff < -0.05 {
			t.Errorf("P=%d: simulated %v vs model %v", pt.Procs, pt.SimulatedE, pt.ModelE)
		}
	}
	var buf bytes.Buffer
	FprintFigure13(&buf, pts, 16, 64)
	if !strings.Contains(buf.String(), "Figure 13") {
		t.Error("Figure 13 formatting broken")
	}
}

func TestFigure9Rendering(t *testing.T) {
	var buf bytes.Buffer
	if err := FprintFigure9(&buf, 5, 7, 3); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Figure 9") || !strings.Contains(out, "Figure 10") {
		t.Error("Figure 9/10 rendering broken")
	}
	// The top-right point of a 5×7 mesh is in wavefront 10.
	if !strings.Contains(out, "10") {
		t.Error("expected wavefront 10 in output")
	}
}

func TestSummary(t *testing.T) {
	var buf bytes.Buffer
	FprintSummary(&buf)
	if !strings.Contains(buf.String(), "Recommended") {
		t.Error("summary missing recommendation quadrant")
	}
}
