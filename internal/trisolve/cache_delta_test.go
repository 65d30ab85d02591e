package trisolve

import (
	"context"
	"math/rand"
	"testing"

	"doconsider/internal/sparse"
	"doconsider/internal/synthetic"
	"doconsider/internal/wavefront"
)

// driftTestFactor builds a random lower factor with full diagonal.
func driftTestFactor(rng *rand.Rand, n, deg int) *sparse.CSR {
	var ts []sparse.Triplet
	for i := 0; i < n; i++ {
		ts = append(ts, sparse.Triplet{Row: i, Col: i, Val: 2 + rng.Float64()})
		for j := 0; j < rng.Intn(deg+1) && i > 0; j++ {
			ts = append(ts, sparse.Triplet{Row: i, Col: rng.Intn(i), Val: rng.NormFloat64()})
		}
	}
	return sparse.MustAssemble(n, n, ts)
}

// TestPlanCacheNearMissRepair drives the full near-miss path: a resident
// plan, a drifted factor, and the expectation that the drifted lookup is
// served by delta repair — with levels identical to a fresh inspection
// and solves bit-identical to an uncached plan.
func TestPlanCacheNearMissRepair(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	base := driftTestFactor(rng, 400, 3)
	pc := NewPlanCache(8)
	defer pc.Close()

	sight(t, pc, base, true, WithProcs(2))
	p1, err := pc.Get(base, true, WithProcs(2))
	if err != nil {
		t.Fatal(err)
	}
	defer p1.Close()
	if st := pc.DeltaStats(); st.Repairs != 0 {
		t.Fatalf("cold build counted as repair: %+v", st)
	}

	// Drift and look up without a hint: the similarity scan must find
	// the resident ancestor.
	edits := synthetic.DriftLower(rng, base, nil, 8, 0.3)
	if len(edits) == 0 {
		t.Fatal("drift generator produced no edits")
	}
	edited, err := base.ApplyRowEdits(edits)
	if err != nil {
		t.Fatal(err)
	}
	sight(t, pc, edited, true, WithProcs(2))
	p2, err := pc.Get(edited, true, WithProcs(2))
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if st := pc.DeltaStats(); st.Repairs != 1 {
		t.Fatalf("expected 1 repair, got %+v", st)
	}

	// Repaired levels are identical to a fresh inspection.
	refDeps := wavefront.FromLower(edited)
	refWf, err := wavefront.Compute(refDeps)
	if err != nil {
		t.Fatal(err)
	}
	for i := range refWf {
		if p2.Wf[i] != refWf[i] {
			t.Fatalf("wf[%d] = %d, want %d", i, p2.Wf[i], refWf[i])
		}
	}

	// Solves (values bound at Get, as usual) are bit-identical to an
	// uncached plan over the same factor.
	ref, err := NewPlan(edited, true, WithProcs(2))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	n := edited.N
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	want := make([]float64, n)
	got := make([]float64, n)
	ref.Solve(want, b)
	p2.Solve(got, b)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("x[%d] = %v, want %v (repair not bit-identical)", i, got[i], want[i])
		}
	}
	// Batch path too.
	bs := [][]float64{b, b}
	xsWant := [][]float64{make([]float64, n), make([]float64, n)}
	xsGot := [][]float64{make([]float64, n), make([]float64, n)}
	if _, err := ref.Bind().Solve(context.Background(), xsWant, bs); err != nil {
		t.Fatal(err)
	}
	if _, err := p2.Bind().Solve(context.Background(), xsGot, bs); err != nil {
		t.Fatal(err)
	}
	for j := range xsWant {
		for i := range xsWant[j] {
			if xsWant[j][i] != xsGot[j][i] {
				t.Fatalf("batch x[%d][%d] differs", j, i)
			}
		}
	}

	// Hinted drift: the caller names the base fingerprint and edited
	// rows, as the server's base_fp+edits form does.
	edits2 := synthetic.DriftLower(rng, edited, nil, 6, 0.3)
	edited2, err := edited.ApplyRowEdits(edits2)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]int32, 0, len(edits2))
	for _, e := range edits2 {
		rows = append(rows, e.Row)
	}
	hint := WithDriftHint(edited.StructureFingerprint(), rows)
	sight(t, pc, edited2, true, WithProcs(2), hint)
	p3, err := pc.Get(edited2, true, WithProcs(2), hint)
	if err != nil {
		t.Fatal(err)
	}
	defer p3.Close()
	if st := pc.DeltaStats(); st.Repairs != 2 {
		t.Fatalf("expected 2 repairs after hinted lookup, got %+v", st)
	}
	refDeps2 := wavefront.FromLower(edited2)
	refWf2, err := wavefront.Compute(refDeps2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range refWf2 {
		if p3.Wf[i] != refWf2[i] {
			t.Fatalf("hinted wf[%d] = %d, want %d", i, p3.Wf[i], refWf2[i])
		}
	}

	// The decision log marks repaired skeletons.
	repaired := 0
	for _, rec := range pc.Decisions() {
		if rec.Repaired {
			repaired++
		}
	}
	if repaired != 2 {
		t.Fatalf("decision log has %d repaired entries, want 2", repaired)
	}

	// A lookup under a different plan shape must not repair across
	// shapes.
	sight(t, pc, edited2, true, WithProcs(3))
	p4, err := pc.Get(edited2, true, WithProcs(3))
	if err != nil {
		t.Fatal(err)
	}
	defer p4.Close()
	if st := pc.DeltaStats(); st.Repairs != 2 {
		t.Fatalf("cross-shape lookup repaired: %+v", st)
	}
}

// TestSimIndexSurvivesDeferredEviction pins the eviction/rebuild race:
// a skeleton evicted while leased runs its Close (and similarity-index
// cleanup) only after the last lease drops — by which time the same
// structure may have been rebuilt and re-registered. The stale cleanup
// must not remove the replacement's index entry, or every later drift
// of that structure silently loses its repair ancestor.
func TestSimIndexSurvivesDeferredEviction(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	base := driftTestFactor(rng, 300, 3)
	other := driftTestFactor(rng, 200, 3)
	pc := NewPlanCache(1)
	defer pc.Close()

	sight(t, pc, base, true, WithProcs(2))
	p1, err := pc.Get(base, true, WithProcs(2)) // skeleton A, leased
	if err != nil {
		t.Fatal(err)
	}
	sight(t, pc, other, true, WithProcs(2))
	p2, err := pc.Get(other, true, WithProcs(2)) // capacity 1: evicts A while leased
	if err != nil {
		t.Fatal(err)
	}
	p2.Close()
	sight(t, pc, base, true, WithProcs(2))      // evicted: base starts over
	p3, err := pc.Get(base, true, WithProcs(2)) // rebuilds A' and re-registers it
	if err != nil {
		t.Fatal(err)
	}
	defer p3.Close()
	p1.Close() // A's deferred Close runs its stale cleanup now

	edits := synthetic.DriftLower(rng, base, nil, 6, 0.3)
	edited, err := base.ApplyRowEdits(edits)
	if err != nil {
		t.Fatal(err)
	}
	sight(t, pc, edited, true, WithProcs(2))
	p4, err := pc.Get(edited, true, WithProcs(2))
	if err != nil {
		t.Fatal(err)
	}
	defer p4.Close()
	if st := pc.DeltaStats(); st.Repairs != 1 {
		t.Fatalf("drift after deferred eviction was not repaired: %+v (stale cleanup removed the rebuilt ancestor?)", st)
	}
}

// TestPlanCacheRepairFallback pins the cone-bound fallback: an edit that
// releveles far more rows than the planner's break-even cone must be
// answered by a full rebuild (correct plan, Fallbacks counted).
func TestPlanCacheRepairFallback(t *testing.T) {
	// A chain 0 <- 1 <- ... with row 1 initially independent; inserting
	// 1 -> 0 raises every downstream level.
	n := 600
	var ts []sparse.Triplet
	for i := 0; i < n; i++ {
		ts = append(ts, sparse.Triplet{Row: i, Col: i, Val: 2})
		if i >= 2 {
			ts = append(ts, sparse.Triplet{Row: i, Col: i - 1, Val: -1})
		}
	}
	base := sparse.MustAssemble(n, n, ts)
	pc := NewPlanCache(8)
	defer pc.Close()
	sight(t, pc, base, true, WithProcs(2))
	p1, err := pc.Get(base, true, WithProcs(2))
	if err != nil {
		t.Fatal(err)
	}
	defer p1.Close()

	edited, err := base.ApplyRowEdits([]sparse.RowEdit{
		{Row: 1, Insert: []sparse.EditEntry{{Col: 0, Val: -1}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	sight(t, pc, edited, true, WithProcs(2))
	p2, err := pc.Get(edited, true, WithProcs(2))
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	st := pc.DeltaStats()
	if st.Repairs != 0 || st.Fallbacks != 1 {
		t.Fatalf("expected a fallback, got %+v", st)
	}
	// The rebuilt plan is still exact.
	refWf, err := wavefront.Compute(wavefront.FromLower(edited))
	if err != nil {
		t.Fatal(err)
	}
	for i := range refWf {
		if p2.Wf[i] != refWf[i] {
			t.Fatalf("wf[%d] = %d, want %d", i, p2.Wf[i], refWf[i])
		}
	}
}
