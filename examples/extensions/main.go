// Extensions demonstrates the repository's features beyond the paper's
// core executors: barrier-phase merging (reference [13]), dynamic
// self-scheduling over the wavefront-sorted list (related work of
// Polychronopoulos/Kuck and Tang/Yew) — the runner's claim discipline —
// and reorderings (reverse Cuthill-McKee vs natural order) that reshape
// the wavefront population.
package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"

	"doconsider/internal/core"
	"doconsider/internal/executor"
	"doconsider/internal/reorder"
	"doconsider/internal/schedule"
	"doconsider/internal/sparse"
	"doconsider/internal/stencil"
	"doconsider/internal/vec"
	"doconsider/internal/wavefront"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "extensions:", err)
		os.Exit(1)
	}
}

func run() error {
	procs := runtime.GOMAXPROCS(0)
	rng := rand.New(rand.NewSource(11))

	// --- 1. Barrier-phase merging (ref [13]) -----------------------------
	// Simulated processors are goroutines; use 8 regardless of host CPUs.
	const simProcs = 8
	n := 4096
	ia := make([]int32, n)
	for i := range ia {
		// Chains of 16 iterations; chain heads have no dependence.
		if i%16 != 0 {
			ia[i] = int32(i - 1)
		} else {
			ia[i] = int32(i)
		}
	}
	plain, err := core.NewSimpleLoop(ia, core.WithProcs(simProcs),
		core.WithExecutor(executor.PreScheduled), core.WithScheduler(core.LocalScheduler),
		core.WithPartition(schedule.Blocked))
	if err != nil {
		return err
	}
	merged, err := core.NewSimpleLoop(ia, core.WithProcs(simProcs),
		core.WithExecutor(executor.PreScheduled), core.WithScheduler(core.LocalScheduler),
		core.WithPartition(schedule.Blocked), core.WithMergedPhases())
	if err != nil {
		return err
	}
	mergedStriped, err := core.NewSimpleLoop(ia, core.WithProcs(simProcs),
		core.WithExecutor(executor.PreScheduled), core.WithScheduler(core.LocalScheduler),
		core.WithPartition(schedule.Striped), core.WithMergedPhases())
	if err != nil {
		return err
	}
	fmt.Printf("phase merging (blocked partition): %d barrier phases -> %d\n",
		plain.Runtime().Schedule().NumPhases, merged.Runtime().Schedule().NumPhases)
	fmt.Printf("phase merging (striped partition): stays at %d (chains cross processors)\n",
		mergedStriped.Runtime().Schedule().NumPhases)
	b := make([]float64, n)
	x1 := make([]float64, n)
	x2 := make([]float64, n)
	for i := range b {
		b[i] = 0.2 * rng.NormFloat64()
		x1[i] = rng.NormFloat64()
	}
	copy(x2, x1)
	plain.Run(x1, b)
	merged.Run(x2, b)
	if vec.MaxAbsDiff(x1, x2) != 0 {
		return fmt.Errorf("merged execution diverged")
	}
	fmt.Println("merged execution matches the unmerged pre-scheduled run")

	// --- 2. Dynamic self-scheduling over the sorted list -----------------
	deps := wavefront.FromIndirection(ia)
	wf, err := wavefront.Compute(deps)
	if err != nil {
		return err
	}
	order := executor.SortedOrder(wf)
	m := executor.RunSelfScheduled(order, deps, procs, 32, func(i int32) {
		// trivial body; the dynamic chunk claiming is the point
	})
	fmt.Printf("self-scheduled executor: %d iterations in dynamic chunks of 32 (%d waits)\n",
		m.Executed, m.SpinWaits)

	// --- 3. Reordering interacts with wavefront structure ----------------
	// Shuffle a mesh operator (simulating an unstructured input numbering),
	// then recover locality with RCM; the wavefront population — what the
	// schedulers consume — changes with the ordering.
	a := stencil.Laplace2D(40, 40)
	shufPerm := make([]int32, a.N)
	for i, v := range rng.Perm(a.N) {
		shufPerm[i] = int32(v)
	}
	shuffle, err := reorder.NewPermutation(shufPerm)
	if err != nil {
		return err
	}
	shuffled, err := shuffle.Apply(a)
	if err != nil {
		return err
	}
	rcm, err := reorder.RCM(shuffled)
	if err != nil {
		return err
	}
	restored, err := rcm.Apply(shuffled)
	if err != nil {
		return err
	}
	for _, c := range []struct {
		name string
		m    *sparse.CSR
	}{{"natural", a}, {"shuffled", shuffled}, {"RCM", restored}} {
		phases, width, err := reorder.WavefrontProfile(c.m)
		if err != nil {
			return err
		}
		fmt.Printf("ordering %-9s bandwidth %4d, %3d wavefronts (max width %d)\n",
			c.name, reorder.Bandwidth(c.m), phases, width)
	}
	return nil
}
