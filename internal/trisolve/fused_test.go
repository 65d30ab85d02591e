package trisolve

import (
	"context"
	"math/rand"
	"testing"

	"doconsider/internal/executor"
	"doconsider/internal/planner"
	"doconsider/internal/sparse"
	"doconsider/internal/stencil"
	"doconsider/internal/supernode"
	"doconsider/internal/wavefront"
)

// fusedKindsUnderTest is every executor kind the forced-fusion
// differential tests run: the executors are index-space generic, so all
// of them must execute a unit-level (supernodal) schedule correctly.
var fusedKindsUnderTest = []executor.Kind{
	executor.Sequential,
	executor.PreScheduled,
	executor.SelfExecuting,
	executor.DoAcross,
	executor.Pooled,
}

// fusedTestFactors builds the differential corpus: mesh factors (chain
// fusion, exercising the width cap at grid-row boundaries), random
// factors (mixed uniform/singleton partitions, non-unit diagonals) and a
// pure dependence chain.
func fusedTestFactors(t *testing.T, lower bool) map[string]*sparse.CSR {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	out := map[string]*sparse.CSR{
		"mesh9x6":  stencil.Laplace2D(9, 6).LowerWithDiag(),
		"mesh12":   stencil.Laplace2D(12, 12).LowerWithDiag(),
		"random80": randomTriangular(rng, 80, 3, true),
		"chain":    randomTriangular(rng, 33, 1, true),
	}
	if !lower {
		for name, l := range out {
			out[name] = l.Transpose()
		}
	}
	return out
}

func TestFusedSolveDifferential(t *testing.T) {
	for _, lower := range []bool{true, false} {
		for name, l := range fusedTestFactors(t, lower) {
			rng := rand.New(rand.NewSource(int64(l.N)))
			bs := randomRHS(rng, l.N, 3)
			want := make([][]float64, len(bs))
			for j := range bs {
				want[j] = refSolve(t, l, lower, bs[j])
			}
			for _, kind := range fusedKindsUnderTest {
				plan, err := NewPlan(l, lower, WithKind(kind), WithFusion(FuseForce), WithProcs(2))
				if err != nil {
					t.Fatalf("%s/%v/%v: NewPlan: %v", name, lower, kind, err)
				}
				if plan.Fusion() == nil {
					t.Fatalf("%s/%v/%v: forced plan is not fused", name, lower, kind)
				}
				x := make([]float64, l.N)
				for j := range bs {
					plan.Solve(x, bs[j])
					assertBitIdentical(t, x, want[j], "fused Solve")
				}
				xs := randomRHS(rng, l.N, len(bs))
				if _, err := plan.Bind().Solve(context.Background(), xs, bs); err != nil {
					t.Fatalf("%s/%v/%v: Bind().Solve: %v", name, lower, kind, err)
				}
				for j := range xs {
					assertBitIdentical(t, xs[j], want[j], "fused Bind().Solve")
				}
				plan.Close()
			}
		}
	}
}

// TestFusedAdaptiveMesh checks that the planner's supernodal candidate
// actually wins on the mesh-structured problems the fusion targets: under
// the machine-independent default model on one processor, fused compute
// strictly undercuts row-wise whenever any rows fused.
func TestFusedAdaptiveMesh(t *testing.T) {
	l := stencil.Laplace2D(12, 12).LowerWithDiag()
	plan, err := NewPlan(l, true, WithProcs(1), WithModel(planner.Default()))
	if err != nil {
		t.Fatal(err)
	}
	defer plan.Close()
	d := plan.Decision
	if d == nil || !d.Fused {
		t.Fatalf("mesh plan decision = %+v, want fused", d)
	}
	st := plan.Fusion()
	if st == nil {
		t.Fatal("fused plan has no supernode stats")
	}
	// 12 grid rows of 12 chained columns each, width-capped at 8: two
	// nodes per grid row.
	if st.Nodes != 24 || st.MaxWidth != 8 || st.Rows != 144 {
		t.Fatalf("mesh partition = %+v, want 24 nodes, max width 8 over 144 rows", st)
	}
	if d.PredSupernodal <= 0 || d.PredSupernodal >= d.PredSequential {
		t.Fatalf("pred supernodal %v, want in (0, %v)", d.PredSupernodal, d.PredSequential)
	}
	// The compressed schedule runs fewer phases than the factor has
	// wavefronts, while Phases() keeps reporting the row-level depth.
	if plan.Sched.NumPhases >= plan.Phases() {
		t.Fatalf("compressed phases %d, want < row-level %d", plan.Sched.NumPhases, plan.Phases())
	}
}

// TestFusedOffAndPinned checks the opt-outs: FuseOff plans never fuse,
// and a WithKind-pinned plan under FuseAuto skips detection entirely.
func TestFusedOffAndPinned(t *testing.T) {
	l := stencil.Laplace2D(8, 8).LowerWithDiag()
	off, err := NewPlan(l, true, WithFusion(FuseOff), WithModel(planner.Default()))
	if err != nil {
		t.Fatal(err)
	}
	defer off.Close()
	if off.Fusion() != nil || (off.Decision != nil && off.Decision.Fused) {
		t.Fatal("FuseOff plan fused")
	}
	pinned, err := NewPlan(l, true, WithKind(executor.Sequential))
	if err != nil {
		t.Fatal(err)
	}
	defer pinned.Close()
	if pinned.Fusion() != nil {
		t.Fatal("pinned FuseAuto plan fused")
	}
}

// TestFusedPlanCacheIdentity checks that fused and unfused plans for one
// structure never share a cache entry: the fusion mode is part of the
// plan key.
func TestFusedPlanCacheIdentity(t *testing.T) {
	pc := NewPlanCache(0)
	defer pc.Close()
	l := stencil.Laplace2D(8, 8).LowerWithDiag()
	forced, err := pc.Get(l, true, WithKind(executor.Sequential), WithFusion(FuseForce))
	if err != nil {
		t.Fatal(err)
	}
	defer forced.Close()
	plain, err := pc.Get(l, true, WithKind(executor.Sequential), WithFusion(FuseOff))
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if forced.Fusion() == nil || plain.Fusion() != nil {
		t.Fatalf("fusion identity leaked across cache entries: forced=%v plain=%v",
			forced.Fusion(), plain.Fusion())
	}
	if pc.Len() != 2 {
		t.Fatalf("cache holds %d skeletons, want 2 (fused and unfused)", pc.Len())
	}
	st := pc.SupernodeStats()
	if st.FusedPlans != 1 || st.Rows != 64 || st.MaxWidth < 2 {
		t.Fatalf("supernode stats = %+v, want one fused plan over 64 rows", st)
	}
	b := make([]float64, l.N)
	for i := range b {
		b[i] = float64(i%5) - 2
	}
	x1 := make([]float64, l.N)
	x2 := make([]float64, l.N)
	forced.Solve(x1, b)
	plain.Solve(x2, b)
	assertBitIdentical(t, x1, x2, "fused vs plain cache plans")
}

// TestFusedPlanCacheRepair drives the fused near-miss path: a resident
// fused plan, a small structural drift, and the expectation that the
// repaired skeleton stays fused — with a partition identical to fresh
// detection on the drifted structure and solves bit-identical to an
// uncached plan.
func TestFusedPlanCacheRepair(t *testing.T) {
	base := stencil.Laplace2D(10, 10).LowerWithDiag()
	pc := NewPlanCache(8)
	defer pc.Close()

	sight(t, pc, base, true, WithProcs(1), WithModel(planner.Default()))
	p1, err := pc.Get(base, true, WithProcs(1), WithModel(planner.Default()))
	if err != nil {
		t.Fatal(err)
	}
	defer p1.Close()
	if p1.Fusion() == nil {
		t.Fatal("resident mesh plan is not fused")
	}

	// A late-row pattern edit keeps the releveling cone tiny, so the
	// planner prices repair below rebuild.
	edited, err := base.ApplyRowEdits([]sparse.RowEdit{
		{Row: 97, Insert: []sparse.EditEntry{{Col: 90, Val: -0.5}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	sight(t, pc, edited, true, WithProcs(1), WithModel(planner.Default()))
	p2, err := pc.Get(edited, true, WithProcs(1), WithModel(planner.Default()))
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if st := pc.DeltaStats(); st.Repairs != 1 {
		t.Fatalf("expected 1 repair, got %+v", st)
	}
	if p2.Fusion() == nil {
		t.Fatal("repaired plan lost fusion")
	}

	// The re-spliced partition matches fresh detection on the drifted
	// structure exactly.
	freshPart := supernode.Detect(wavefront.FromLower(edited), supernode.Config{})
	gotPart := p2.in.Part
	if len(gotPart.RowPtr) != len(freshPart.RowPtr) {
		t.Fatalf("respliced partition has %d nodes, fresh detection %d",
			gotPart.NumNodes(), freshPart.NumNodes())
	}
	for u := range freshPart.RowPtr {
		if gotPart.RowPtr[u] != freshPart.RowPtr[u] {
			t.Fatalf("RowPtr[%d] = %d, want %d", u, gotPart.RowPtr[u], freshPart.RowPtr[u])
		}
	}
	for u := range freshPart.Uniform {
		if gotPart.Uniform[u] != freshPart.Uniform[u] {
			t.Fatalf("Uniform[%d] = %v, want %v", u, gotPart.Uniform[u], freshPart.Uniform[u])
		}
	}

	// Solves over the repaired fused skeleton are bit-identical to an
	// uncached plan of the drifted factor.
	ref, err := NewPlan(edited, true, WithProcs(1), WithModel(planner.Default()))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	rng := rand.New(rand.NewSource(23))
	b := make([]float64, edited.N)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	want := make([]float64, edited.N)
	got := make([]float64, edited.N)
	ref.Solve(want, b)
	p2.Solve(got, b)
	assertBitIdentical(t, got, want, "repaired fused Solve")
}
