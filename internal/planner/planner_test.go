package planner

import (
	"math"
	"testing"

	"doconsider/internal/executor"
	"doconsider/internal/wavefront"
)

// chainDeps builds a pure dependence chain: i depends on i-1.
func chainDeps(n int) *wavefront.Deps {
	adj := make([][]int32, n)
	for i := 1; i < n; i++ {
		adj[i] = []int32{int32(i - 1)}
	}
	return wavefront.FromAdjacency(adj)
}

// flatDeps builds an embarrassingly parallel structure: no edges at all.
func flatDeps(n int) *wavefront.Deps {
	return wavefront.FromAdjacency(make([][]int32, n))
}

func analyzed(t *testing.T, d *wavefront.Deps, p int) Features {
	t.Helper()
	wf, err := wavefront.Compute(d)
	if err != nil {
		t.Fatal(err)
	}
	return Analyze(d, wf, p)
}

func TestAnalyzeChain(t *testing.T) {
	f := analyzed(t, chainDeps(100), 4)
	if f.N != 100 || f.Edges != 99 || f.Levels != 100 || f.MaxWidth != 1 {
		t.Fatalf("chain features wrong: %+v", f)
	}
	if f.LevelSum != 100 {
		t.Fatalf("chain LevelSum = %d, want 100", f.LevelSum)
	}
	if f.NatSteps != 100 {
		t.Fatalf("chain NatSteps = %d, want 100", f.NatSteps)
	}
	if !f.Backward {
		t.Fatal("chain should be backward")
	}
	if f.LateEdges != 99 {
		t.Fatalf("chain LateEdges = %d, want 99", f.LateEdges)
	}
}

func TestAnalyzeFlat(t *testing.T) {
	f := analyzed(t, flatDeps(64), 4)
	if f.Levels != 1 || f.MaxWidth != 64 || f.Edges != 0 {
		t.Fatalf("flat features wrong: %+v", f)
	}
	if f.LevelSum != 16 {
		t.Fatalf("flat LevelSum = %d, want 16", f.LevelSum)
	}
	// Natural striped order of an edge-free structure is 64/4 slots.
	if f.NatSteps != 16 {
		t.Fatalf("flat NatSteps = %d, want 16", f.NatSteps)
	}
}

// TestAnalyzeBounds pins the structural invariants the cost model leans
// on: LevelSum and NatSteps are both at least max(ceil(N/P), Levels) —
// no schedule beats the work bound or the critical path. (NatSteps may
// legitimately undercut LevelSum: the natural-order sweep pipelines
// across wavefronts, while LevelSum accounts level by level.)
func TestAnalyzeBounds(t *testing.T) {
	for _, d := range []*wavefront.Deps{chainDeps(50), flatDeps(50),
		wavefront.FromAdjacency([][]int32{nil, {0}, {0}, {1, 2}, {0}, {3}, {3, 4}, {5}})} {
		for _, p := range []int{1, 2, 4, 7} {
			f := analyzed(t, d, p)
			lower := (f.N + p - 1) / p
			if f.Levels > lower {
				lower = f.Levels
			}
			if f.LevelSum < lower {
				t.Errorf("P=%d LevelSum %d below lower bound %d", p, f.LevelSum, lower)
			}
			if f.NatSteps < lower {
				t.Errorf("P=%d NatSteps %d below lower bound %d", p, f.NatSteps, lower)
			}
		}
	}
}

func TestAnalyzeGeneralDAGNotBackward(t *testing.T) {
	// Edge 0 -> 2 points forward: a general DAG.
	d := wavefront.FromAdjacency([][]int32{{2}, nil, nil})
	wf, err := wavefront.ComputeDAG(d)
	if err != nil {
		t.Fatal(err)
	}
	f := Analyze(d, wf, 4)
	if f.Backward {
		t.Fatal("forward edge not detected")
	}
	if got := Select(f, Default()); got.Strategy == executor.DoAcross {
		t.Fatal("doacross selected for a non-backward DAG")
	}
}

func TestSelectRegimes(t *testing.T) {
	m := Default()
	// Tiny structure: any parallel pass overhead dwarfs the work.
	if d := Select(analyzed(t, flatDeps(16), 4), m); d.Strategy != executor.Sequential {
		t.Errorf("tiny flat: got %v, want sequential (%s)", d.Strategy, d)
	}
	// Deep chain: no parallelism to exploit at any size.
	if d := Select(analyzed(t, chainDeps(20000), 4), m); d.Strategy != executor.Sequential {
		t.Errorf("chain: got %v, want sequential (%s)", d.Strategy, d)
	}
	// Wide flat structure: pooled wins once the work amortizes the pass.
	if d := Select(analyzed(t, flatDeps(1<<17), 4), m); d.Strategy == executor.Sequential {
		t.Errorf("wide flat: got sequential, want a parallel strategy (%s)", d)
	}
	// One processor: parallel candidates are never selected.
	if d := Select(analyzed(t, flatDeps(1<<17), 1), m); d.Strategy != executor.Sequential {
		t.Errorf("P=1: got %v, want sequential", d.Strategy)
	}
}

func TestSelectDeterministic(t *testing.T) {
	f := analyzed(t, flatDeps(1<<15), 4)
	first := Select(f, Default())
	for i := 0; i < 10; i++ {
		if got := Select(f, Default()); got != first {
			t.Fatalf("decision not deterministic: %v vs %v", got, first)
		}
	}
}

func TestPredictFiniteAndPositive(t *testing.T) {
	m := Default()
	for _, d := range []*wavefront.Deps{chainDeps(3), flatDeps(1), flatDeps(1000)} {
		f := analyzed(t, d, 4)
		for _, k := range []executor.Kind{executor.Sequential, executor.DoAcross, executor.Pooled} {
			v := m.Predict(f, k)
			if !(v > 0) || math.IsInf(v, 0) || math.IsNaN(v) {
				t.Errorf("Predict(%v) = %v, want finite > 0", k, v)
			}
		}
	}
	for _, k := range []executor.Kind{executor.PreScheduled, executor.SelfExecuting, executor.Kind(99)} {
		if !math.IsInf(m.Predict(Features{N: 1, P: 1}, k), 1) {
			t.Errorf("Predict(%v) should be +Inf: Select never prices it", k)
		}
	}
}

func TestModelValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default model invalid: %v", err)
	}
	bad := Default()
	bad.TRow = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero TRow accepted")
	}
	bad = Default()
	bad.TPass = math.NaN()
	if err := bad.Validate(); err == nil {
		t.Error("NaN TPass accepted")
	}
}

func TestCalibrateProducesValidModel(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration microbenchmarks in -short mode")
	}
	m := Calibrate()
	if err := m.Validate(); err != nil {
		t.Fatalf("calibrated model invalid: %v", err)
	}
	if !m.Calibrated && *m != *Default() {
		t.Fatal("fallback model is neither calibrated nor the default")
	}
}
