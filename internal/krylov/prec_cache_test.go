package krylov

import (
	"math/rand"
	"testing"

	"doconsider/internal/executor"
	"doconsider/internal/stencil"
	"doconsider/internal/trisolve"
)

// TestILUPrecSharedPlanCache builds two preconditioners over matrices
// with identical sparsity through one PlanCache and checks the inspector
// ran once per triangular factor, while each preconditioner applies its
// own values.
func TestILUPrecSharedPlanCache(t *testing.T) {
	pc := trisolve.NewPlanCache(8)
	defer pc.Close()
	a1 := stencil.FivePoint(20)
	a2 := stencil.FivePoint(20) // same structure, same values — and a
	for i := range a2.Val {     // perturbation keeps the values distinct
		a2.Val[i] *= 1.5
	}
	opts := ILUPrecOptions{Procs: 2, Kind: executor.SelfExecuting, Plans: pc}
	p1, err := NewILUPrec(a1, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer p1.Close()
	p2, err := NewILUPrec(a2, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	s := pc.Stats()
	if s.Misses != 2 { // one forward + one backward skeleton
		t.Fatalf("misses = %d, want 2 (forward + backward, shared across preconditioners)", s.Misses)
	}
	if s.Hits != 2 {
		t.Fatalf("hits = %d, want 2", s.Hits)
	}
	// The two preconditioners must produce different outputs (different
	// values) even though they share schedules.
	n := a1.N
	r := make([]float64, n)
	rng := rand.New(rand.NewSource(9))
	for i := range r {
		r[i] = rng.NormFloat64()
	}
	z1 := make([]float64, n)
	z2 := make([]float64, n)
	p1.Apply(z1, r)
	p2.Apply(z2, r)
	same := true
	for i := range z1 {
		if z1[i] != z2[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("distinct-valued preconditioners produced identical output — values leaked through the cache")
	}
}

// TestWarmApplyAllocatesNothing checks the plans bind their solve state
// on the first solve, so a warm application allocates nothing (the
// sequential kind, so that no executor goroutine spawn is counted).
func TestWarmApplyAllocatesNothing(t *testing.T) {
	a := stencil.FivePoint(15)
	seq, err := NewILUPrec(a, ILUPrecOptions{Kind: executor.Sequential})
	if err != nil {
		t.Fatal(err)
	}
	defer seq.Close()
	r := make([]float64, a.N)
	for i := range r {
		r[i] = float64(i%7) - 3
	}
	z := make([]float64, a.N)
	seq.Apply(z, r) // warm: binds both plans
	if allocs := testing.AllocsPerRun(20, func() { seq.Apply(z, r) }); allocs != 0 {
		t.Errorf("warm Apply = %v allocs/op, want 0", allocs)
	}
}
