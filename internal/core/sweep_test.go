package core

import (
	"math/rand"
	"reflect"
	"testing"

	"doconsider/internal/problems"
	"doconsider/internal/stencil"
	"doconsider/internal/wavefront"
)

// TestParallelSweepMatchesSequential: the executor's sweep gives
// wavefront.Compute's numbers on random backward DAGs and on every
// problem factor, at every processor count.
func TestParallelSweepMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	deps := map[string]*wavefront.Deps{
		"empty": wavefront.FromAdjacency(nil),
		"one":   wavefront.FromAdjacency([][]int32{nil}),
	}
	for trial := 0; trial < 20; trial++ {
		adj := make([][]int32, 300)
		for i := 1; i < len(adj); i++ {
			for k := rng.Intn(5); k > 0; k-- {
				adj[i] = append(adj[i], int32(rng.Intn(i)))
			}
		}
		deps["random-"+string(rune('a'+trial))] = wavefront.FromAdjacency(adj)
	}
	for _, name := range problems.AllNames() {
		deps[name] = problems.MustGet(name).Deps
	}
	for name, d := range deps {
		seq, err := wavefront.Compute(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{1, 2, 3, 4, 16} {
			par, err := ParallelSweep(d, p)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(seq, par) {
				t.Fatalf("%s P=%d: parallel sweep disagrees with wavefront.Compute", name, p)
			}
		}
	}
}

func TestParallelSweepRejectsForwardDeps(t *testing.T) {
	if _, err := ParallelSweep(wavefront.FromAdjacency([][]int32{{1}, {}}), 2); err == nil {
		t.Error("ParallelSweep accepted a forward dependence")
	}
}

func BenchmarkParallelSweep(b *testing.B) {
	d := wavefront.FromLower(stencil.Laplace2D(200, 200))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParallelSweep(d, 8); err != nil {
			b.Fatal(err)
		}
	}
}
