package trisolve

import (
	"math"
	"math/rand"
	"testing"

	"doconsider/internal/executor"
	"doconsider/internal/schedule"
	"doconsider/internal/sparse"
	"doconsider/internal/stencil"
	"doconsider/internal/vec"
)

// randomLower builds a random nonsingular lower triangular matrix.
func randomLower(rng *rand.Rand, n int, extraPerRow int) *sparse.CSR {
	ts := []sparse.Triplet{}
	for i := 0; i < n; i++ {
		ts = append(ts, sparse.Triplet{Row: i, Col: i, Val: 2 + rng.Float64()})
		for k := 0; k < extraPerRow && i > 0; k++ {
			ts = append(ts, sparse.Triplet{Row: i, Col: rng.Intn(i), Val: rng.NormFloat64() * 0.3})
		}
	}
	return sparse.MustAssemble(n, n, ts)
}

func residual(a *sparse.CSR, x, b []float64) float64 {
	r := make([]float64, a.N)
	if err := a.MatVec(r, x); err != nil {
		panic(err)
	}
	m := 0.0
	for i := range r {
		if d := math.Abs(r[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestForwardSeq(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := randomLower(rng, 100, 3)
	b := make([]float64, 100)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x := make([]float64, 100)
	if err := ForwardSeq(l, x, b); err != nil {
		t.Fatal(err)
	}
	if r := residual(l, x, b); r > 1e-10 {
		t.Errorf("residual %v", r)
	}
}

func TestBackwardSeq(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	u := randomLower(rng, 80, 2).Transpose()
	b := make([]float64, 80)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x := make([]float64, 80)
	if err := BackwardSeq(u, x, b); err != nil {
		t.Fatal(err)
	}
	if r := residual(u, x, b); r > 1e-10 {
		t.Errorf("residual %v", r)
	}
}

func TestForwardSeqErrors(t *testing.T) {
	// Upper entry in forward solve.
	bad := sparse.MustAssemble(2, 2, []sparse.Triplet{
		{Row: 0, Col: 0, Val: 1}, {Row: 0, Col: 1, Val: 1}, {Row: 1, Col: 1, Val: 1},
	})
	x := make([]float64, 2)
	if err := ForwardSeq(bad, x, []float64{1, 1}); err == nil {
		t.Error("ForwardSeq accepted upper entry")
	}
	// Zero diagonal.
	zd := sparse.MustAssemble(2, 2, []sparse.Triplet{
		{Row: 0, Col: 0, Val: 1}, {Row: 1, Col: 0, Val: 1},
	})
	if err := ForwardSeq(zd, x, []float64{1, 1}); err == nil {
		t.Error("ForwardSeq accepted missing diagonal")
	}
	if err := ForwardSeq(zd, x, []float64{1}); err != sparse.ErrShape {
		t.Error("ForwardSeq missed shape error")
	}
	if err := BackwardSeq(zd, x, []float64{1, 1}); err == nil {
		t.Error("BackwardSeq accepted lower entry")
	}
}

func TestPlanSolversMatchSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := randomLower(rng, 300, 4)
	b := make([]float64, 300)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	want := make([]float64, 300)
	if err := ForwardSeq(l, want, b); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []executor.Kind{executor.Sequential, executor.PreScheduled, executor.SelfExecuting, executor.DoAcross} {
		for _, sched := range []SchedulerKind{GlobalSched, LocalSched} {
			for _, p := range []int{1, 3, 8} {
				plan, err := NewPlan(l, true,
					WithProcs(p), WithKind(kind), WithScheduler(sched))
				if err != nil {
					t.Fatal(err)
				}
				x := make([]float64, 300)
				plan.Solve(x, b)
				if d := vec.MaxAbsDiff(x, want); d > 1e-12 {
					t.Errorf("kind=%v sched=%v p=%d: max diff %v", kind, sched, p, d)
				}
			}
		}
	}
}

func TestBackwardPlanMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	u := randomLower(rng, 250, 3).Transpose()
	b := make([]float64, 250)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	want := make([]float64, 250)
	if err := BackwardSeq(u, want, b); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []executor.Kind{executor.PreScheduled, executor.SelfExecuting} {
		plan, err := NewPlan(u, false, WithProcs(4), WithKind(kind))
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, 250)
		plan.Solve(x, b)
		if d := vec.MaxAbsDiff(x, want); d > 1e-12 {
			t.Errorf("kind=%v: max diff %v", kind, d)
		}
	}
}

func TestPlanPhasesMeshModel(t *testing.T) {
	// The zero-fill lower factor of a 5-point m×n mesh has m+n-1 wavefronts.
	a := stencil.Laplace2D(9, 6)
	l := a.LowerWithDiag()
	plan, err := NewPlan(l, true, WithProcs(4))
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.Phases(); got != 9+6-1 {
		t.Errorf("phases = %d, want 14", got)
	}
}

func TestNaturalSchedulerDoAcross(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	l := randomLower(rng, 150, 2)
	b := make([]float64, 150)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	want := make([]float64, 150)
	if err := ForwardSeq(l, want, b); err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(l, true,
		WithProcs(4), WithKind(executor.SelfExecuting), WithScheduler(NaturalSched),
		WithPartition(schedule.Striped))
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 150)
	plan.Solve(x, b)
	if d := vec.MaxAbsDiff(x, want); d > 1e-12 {
		t.Errorf("natural-order self-executing diff %v", d)
	}
}

func TestPlanRepeatedSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	l := randomLower(rng, 100, 2)
	plan, err := NewPlan(l, true, WithProcs(3), WithKind(executor.SelfExecuting))
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5; trial++ {
		b := make([]float64, 100)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		want := make([]float64, 100)
		if err := ForwardSeq(l, want, b); err != nil {
			t.Fatal(err)
		}
		x := make([]float64, 100)
		plan.Solve(x, b)
		if d := vec.MaxAbsDiff(x, want); d > 1e-12 {
			t.Fatalf("trial %d: diff %v", trial, d)
		}
	}
}
