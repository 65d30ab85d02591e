package trisolve

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"doconsider/internal/planner"
	"doconsider/internal/reorder"
	"doconsider/internal/sparse"
	"doconsider/internal/wavefront"
)

// randomTriangular builds a random n x n triangular factor with a full
// nonzero diagonal and up to extra off-diagonal entries per row, well
// conditioned by construction (diagonal dominance) so solution
// comparisons are numerically meaningful.
func randomTriangular(rng *rand.Rand, n, extra int, lower bool) *sparse.CSR {
	ts := make([]sparse.Triplet, 0, n*(extra+1))
	for i := 0; i < n; i++ {
		ts = append(ts, sparse.Triplet{Row: i, Col: i, Val: 2 + rng.Float64()})
		seen := map[int]bool{i: true}
		for k := 0; k < extra; k++ {
			var j int
			if lower {
				if i == 0 {
					break
				}
				j = rng.Intn(i)
			} else {
				if i == n-1 {
					break
				}
				j = i + 1 + rng.Intn(n-1-i)
			}
			if seen[j] {
				continue
			}
			seen[j] = true
			ts = append(ts, sparse.Triplet{Row: i, Col: j, Val: rng.Float64() - 0.5})
		}
	}
	m, err := sparse.Assemble(n, n, ts)
	if err != nil {
		panic(err)
	}
	return m
}

func randomRHS(rng *rand.Rand, n, k int) [][]float64 {
	bs := make([][]float64, k)
	for j := range bs {
		bs[j] = make([]float64, n)
		for i := range bs[j] {
			bs[j][i] = rng.NormFloat64()
		}
	}
	return bs
}

// refSolve is the bit-identity oracle: the plain sequential substitution
// loop (ForwardSeq/BackwardSeq). Any planner-chosen execution must
// reproduce it exactly, because schedule, executor kind, fusion and
// batching never change row arithmetic.
func refSolve(t *testing.T, l *sparse.CSR, lower bool, b []float64) []float64 {
	t.Helper()
	x := make([]float64, l.N)
	var err error
	if lower {
		err = ForwardSeq(l, x, b)
	} else {
		err = BackwardSeq(l, x, b)
	}
	if err != nil {
		t.Fatalf("reference solve: %v", err)
	}
	return x
}

// assertClose compares to a 1e-9 relative tolerance.
func assertClose(t *testing.T, got, want []float64, what string) {
	t.Helper()
	for i := range want {
		diff := got[i] - want[i]
		if diff < 0 {
			diff = -diff
		}
		scale := 1.0
		if s := want[i]; s > 1 || s < -1 {
			if s < 0 {
				s = -s
			}
			scale = s
		}
		if diff > 1e-9*scale {
			t.Fatalf("%s: index %d differs: got %v want %v", what, i, got[i], want[i])
		}
	}
}

// levelPerm builds a wavefront-respecting permutation of the factor's
// rows with a shuffled order inside each level: topological for the
// factor's dependence DAG, so the permuted matrix is again triangular in
// the same direction. For upper factors levels descend (a row's
// dependences — larger indices — carry smaller row levels and must land
// at larger new indices).
func levelPerm(t *testing.T, l *sparse.CSR, lower bool, rng *rand.Rand) *reorder.Permutation {
	t.Helper()
	var deps *wavefront.Deps
	if lower {
		deps = wavefront.FromLower(l)
	} else {
		deps = wavefront.FromUpper(l)
	}
	wf, err := wavefront.Compute(deps)
	if err != nil {
		t.Fatal(err)
	}
	n := l.N
	rowLevel := make([]int32, n)
	for i := 0; i < n; i++ {
		if lower {
			rowLevel[i] = wf[i]
		} else {
			rowLevel[i] = wf[n-1-i] // reflected iteration numbering
		}
	}
	order := make([]int32, n)
	shuffle := rng.Perm(n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(a, b int) bool {
		la, lb := rowLevel[order[a]], rowLevel[order[b]]
		if la != lb {
			if lower {
				return la < lb
			}
			return la > lb
		}
		return shuffle[order[a]] < shuffle[order[b]]
	})
	p, err := reorder.NewPermutation(order)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func assertBitIdentical(t *testing.T, got, want []float64, what string) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: index %d differs: got %v want %v", what, i, got[i], want[i])
		}
	}
}

// FuzzAdaptiveSolve is the planner correctness property: for random
// lower/upper triangular factors and right-hand-side batches, the
// planner-chosen execution (adaptive NewPlan, no pinned kind) is
// bit-identical to the sequential reference solve — per solve and per
// batch — and stays so under wavefront-respecting permutation round
// trips built from internal/reorder.
//
// The seeds below are the checked-in deterministic corpus; `go test
// -fuzz=FuzzAdaptiveSolve` explores beyond them in CI's fuzz smoke job.
func FuzzAdaptiveSolve(f *testing.F) {
	f.Add(int64(1), uint16(1), uint8(0), uint8(1), true, uint8(1))
	f.Add(int64(2), uint16(17), uint8(2), uint8(3), true, uint8(4))
	f.Add(int64(3), uint16(64), uint8(5), uint8(2), false, uint8(4))
	f.Add(int64(4), uint16(96), uint8(1), uint8(4), true, uint8(2))
	f.Add(int64(1989), uint16(40), uint8(7), uint8(1), false, uint8(3))
	f.Add(int64(88), uint16(80), uint8(3), uint8(2), true, uint8(8))
	f.Fuzz(func(t *testing.T, seed int64, n16 uint16, extra, batch uint8, lower bool, procs uint8) {
		n := int(n16)%96 + 1
		nExtra := int(extra) % 8
		k := int(batch)%4 + 1
		np := int(procs)%8 + 1
		rng := rand.New(rand.NewSource(seed))
		l := randomTriangular(rng, n, nExtra, lower)
		bs := randomRHS(rng, n, k)

		// The machine-independent default model keeps failures
		// reproducible across hosts; every strategy it can pick must
		// produce bit-identical solutions anyway.
		plan, err := NewPlan(l, lower, WithProcs(np), WithModel(planner.Default()))
		if err != nil {
			t.Fatalf("NewPlan: %v", err)
		}
		defer plan.Close()
		if plan.Decision == nil {
			t.Fatal("adaptive plan carries no decision")
		}

		want := make([][]float64, k)
		for j := range bs {
			want[j] = refSolve(t, l, lower, bs[j])
		}
		x := make([]float64, n)
		for j := range bs {
			plan.Solve(x, bs[j])
			assertBitIdentical(t, x, want[j], "Solve")
		}
		xs := randomRHS(rng, n, k) // scratch, overwritten
		if _, err := plan.Bind().Solve(context.Background(), xs, bs); err != nil {
			t.Fatalf("Bind().Solve: %v", err)
		}
		for j := range xs {
			assertBitIdentical(t, xs[j], want[j], "Bind().Solve")
		}

		// The supernodal executor is one of the planner's candidates;
		// whether or not it won above, a forced-fusion plan must stay on
		// the same oracle (fusion changes scheduling units, never row
		// arithmetic).
		fplan, err := NewPlan(l, lower, WithProcs(np), WithModel(planner.Default()), WithFusion(FuseForce))
		if err != nil {
			t.Fatalf("NewPlan(fused): %v", err)
		}
		defer fplan.Close()
		if fplan.Fusion() == nil {
			t.Fatal("forced plan is not fused")
		}
		for j := range bs {
			fplan.Solve(x, bs[j])
			assertBitIdentical(t, x, want[j], "fused Solve")
		}

		// Permutation round trip: permute the system with a random
		// wavefront-respecting (hence triangularity-preserving)
		// permutation, solve the permuted system adaptively, and compare
		// bit-identically against the sequential reference of the
		// permuted system; the unpermuted solution must match the
		// original solve to rounding (row accumulation order changes
		// under column reordering, so exact equality is not required
		// across the permutation itself).
		perm := levelPerm(t, l, lower, rng)
		lp, err := perm.Apply(l)
		if err != nil {
			t.Fatalf("permute factor: %v", err)
		}
		pplan, err := NewPlan(lp, lower, WithProcs(np), WithModel(planner.Default()))
		if err != nil {
			t.Fatalf("NewPlan(permuted): %v", err)
		}
		defer pplan.Close()
		pb := make([]float64, n)
		px := make([]float64, n)
		back := make([]float64, n)
		for j := range bs {
			perm.PermuteVector(pb, bs[j])
			pplan.Solve(px, pb)
			assertBitIdentical(t, px, refSolve(t, lp, lower, pb), "permuted Solve")
			perm.UnpermuteVector(back, px)
			assertClose(t, back, want[j], "permutation round trip")
		}
	})
}

// FuzzFusedSolve is the supernodal correctness property: for random
// triangular factors, forced-fusion plans on every executor kind are
// bit-identical to the sequential loop — per solve, per batch and
// through the bound solver — whatever mix
// of uniform, chained and singleton nodes the detector finds, since the
// kernel swept over a node's rows is the row-wise kernel. The seeds are
// the checked-in deterministic corpus;
// `go test -fuzz=FuzzFusedSolve` explores beyond them in CI's fuzz
// smoke job.
func FuzzFusedSolve(f *testing.F) {
	f.Add(int64(1), uint16(1), uint8(0), uint8(1), true, uint8(1), uint8(0))
	f.Add(int64(2), uint16(17), uint8(2), uint8(3), true, uint8(4), uint8(1))
	f.Add(int64(3), uint16(64), uint8(5), uint8(2), false, uint8(4), uint8(2))
	f.Add(int64(4), uint16(96), uint8(1), uint8(4), true, uint8(2), uint8(3))
	f.Add(int64(55), uint16(48), uint8(0), uint8(2), false, uint8(2), uint8(4))
	f.Add(int64(88), uint16(80), uint8(3), uint8(2), true, uint8(8), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, n16 uint16, extra, batch uint8, lower bool, procs, kindSel uint8) {
		n := int(n16)%96 + 1
		nExtra := int(extra) % 8
		k := int(batch)%4 + 1
		np := int(procs)%8 + 1
		kind := fusedKindsUnderTest[int(kindSel)%len(fusedKindsUnderTest)]
		rng := rand.New(rand.NewSource(seed))
		l := randomTriangular(rng, n, nExtra, lower)
		bs := randomRHS(rng, n, k)

		plan, err := NewPlan(l, lower, WithKind(kind), WithFusion(FuseForce), WithProcs(np))
		if err != nil {
			t.Fatalf("NewPlan: %v", err)
		}
		defer plan.Close()
		st := plan.Fusion()
		if st == nil {
			t.Fatal("forced plan is not fused")
		}
		if st.Rows != n || st.FusedRows != n-st.Singletons {
			t.Fatalf("inconsistent partition stats: %+v over %d rows", st, n)
		}

		want := make([][]float64, k)
		x := make([]float64, n)
		for j := range bs {
			want[j] = refSolve(t, l, lower, bs[j])
			plan.Solve(x, bs[j])
			assertBitIdentical(t, x, want[j], "fused Solve")
		}
		xs := randomRHS(rng, n, k) // scratch, overwritten
		if _, err := plan.Bind().Solve(context.Background(), xs, bs); err != nil {
			t.Fatalf("Bind().Solve: %v", err)
		}
		for j := range xs {
			assertBitIdentical(t, xs[j], want[j], "fused Bind().Solve")
		}
		xs = randomRHS(rng, n, k)
		if _, err := plan.Bind().Solve(context.Background(), xs, bs); err != nil {
			t.Fatalf("bound Solve: %v", err)
		}
		for j := range xs {
			assertBitIdentical(t, xs[j], want[j], "fused bound Solve")
		}
	})
}
