package core

import (
	"context"
	"math/rand"
	"testing"

	"doconsider/internal/delta"
	"doconsider/internal/executor"
	"doconsider/internal/wavefront"
)

// patchBody is the paper's simple loop over an indirection array:
// x[i] += b[i] * x[ia[i]], the workload a patched runtime keeps running.
func patchBody(x, b []float64, ia []int32) executor.Body {
	return func(i int32) {
		if int(ia[i]) >= 0 {
			x[i] += b[i] * x[ia[i]]
		}
	}
}

func TestPatchMatchesFreshRuntime(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 200
	ia := randomIndirection(rng, n) // shared helper in pooled_test.go
	deps := wavefront.FromIndirection(ia)
	rt, err := New(deps, WithProcs(2), WithExecutor(executor.Sequential))
	if err != nil {
		t.Fatal(err)
	}

	// Drift: a few iterations gain or lose a dependence.
	edits := delta.EditSet{}
	for _, row := range []int32{50, 120, 199} {
		if deps.Count(int(row)) > 0 {
			edits = append(edits, delta.RowEdit{Row: row, Delete: []int32{deps.On(int(row))[0]}})
		} else {
			edits = append(edits, delta.RowEdit{Row: row, Insert: []int32{row / 2}})
		}
	}
	newDeps, _, err := delta.Apply(deps, edits)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := rt.PatchCtx(context.Background(), edits)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Changed != len(edits) {
		t.Fatalf("changed = %d, want %d", stats.Changed, len(edits))
	}

	// Levels match a fresh inspection of the edited structure.
	fresh, err := New(newDeps, WithProcs(2), WithExecutor(executor.Sequential))
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range fresh.Wavefronts() {
		if rt.Wavefronts()[i] != w {
			t.Fatalf("wf[%d] = %d, want %d", i, rt.Wavefronts()[i], w)
		}
	}

	// And running the loop gives bit-identical results. The patched
	// runtime must execute under an edited ia consistent with the new
	// dependence structure; since the body only reads ia, reuse the old
	// one — both runtimes run the same arithmetic in wavefront order.
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x1 := make([]float64, n)
	x2 := make([]float64, n)
	for i := range x1 {
		x1[i] = float64(i)
		x2[i] = float64(i)
	}
	rt.Run(patchBody(x1, b, ia))
	fresh.Run(patchBody(x2, b, ia))
	for i := range x1 {
		if x1[i] != x2[i] {
			t.Fatalf("x[%d] = %v, want %v", i, x1[i], x2[i])
		}
	}
}

func TestPatchChain(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := 150
	ia := randomIndirection(rng, n)
	deps := wavefront.FromIndirection(ia)
	rt, err := New(deps, WithProcs(2), WithExecutor(executor.Sequential))
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 8; step++ {
		row := int32(rng.Intn(n-1) + 1)
		var e delta.RowEdit
		if rt.Deps().Count(int(row)) > 0 {
			e = delta.RowEdit{Row: row, Delete: []int32{rt.Deps().On(int(row))[0]}}
		} else {
			e = delta.RowEdit{Row: row, Insert: []int32{int32(rng.Intn(int(row)))}}
		}
		if _, err := rt.Patch(delta.EditSet{e}); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		ref, err := wavefront.Compute(rt.Deps())
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range ref {
			if rt.Wavefronts()[i] != w {
				t.Fatalf("step %d: wf[%d] = %d, want %d", step, i, rt.Wavefronts()[i], w)
			}
		}
	}
}

func TestPatchFallbackPaths(t *testing.T) {
	// A long chain with an independent head: inserting the head edge
	// releveles everything, so the cone bound forces a full rebuild.
	n := 800
	adj := make([][]int32, n)
	for i := 2; i < n; i++ {
		adj[i] = []int32{int32(i - 1)}
	}
	rt, err := New(wavefront.FromAdjacency(adj), WithProcs(2), WithExecutor(executor.Sequential))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := rt.Patch(delta.EditSet{{Row: 1, Insert: []int32{0}}})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Fallback {
		t.Fatalf("expected fallback for a whole-chain relevel, got %+v", stats)
	}
	ref, _ := wavefront.Compute(rt.Deps())
	for i, w := range ref {
		if rt.Wavefronts()[i] != w {
			t.Fatalf("wf[%d] = %d, want %d", i, rt.Wavefronts()[i], w)
		}
	}

	// Non-global schedules repair via full reinspection too.
	rtl, err := New(wavefront.FromAdjacency([][]int32{nil, {0}, {1}}),
		WithProcs(2), WithScheduler(LocalScheduler), WithExecutor(executor.Sequential))
	if err != nil {
		t.Fatal(err)
	}
	stats, err = rtl.Patch(delta.EditSet{{Row: 2, Delete: []int32{1}}})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Fallback {
		t.Fatalf("local scheduler must take the rebuild path, got %+v", stats)
	}
	if got := rtl.NumWavefronts(); got != 2 {
		t.Fatalf("wavefronts = %d, want 2", got)
	}

	// A cancelled context stops the patch.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := rtl.PatchCtx(ctx, delta.EditSet{{Row: 2, Insert: []int32{1}}}); err == nil {
		t.Fatal("cancelled PatchCtx returned nil error")
	}

	// Empty edit sets are a no-op.
	if stats, err := rtl.Patch(nil); err != nil || stats.Changed != 0 {
		t.Fatalf("empty patch: %+v, %v", stats, err)
	}
}
