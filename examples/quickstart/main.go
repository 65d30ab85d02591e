// Quickstart: run-time parallelization of the paper's motivating loop,
//
//	do i = 1, n
//	    x(i) = x(i) + b(i)*x(ia(i))
//	end do
//
// whose cross-iteration dependences are known only once the indirection
// array ia has its run-time values. The doconsider runtime inspects ia,
// sorts iterations into wavefronts, and executes the loop with busy-wait
// (self-executing) synchronization — then we verify against the
// sequential semantics.
package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"

	"doconsider/internal/core"
	"doconsider/internal/executor"
	"doconsider/internal/vec"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	const n = 100000
	rng := rand.New(rand.NewSource(42))

	// Run-time data: the indirection array and coefficients.
	ia := make([]int32, n)
	b := make([]float64, n)
	x0 := make([]float64, n)
	for i := range ia {
		ia[i] = int32(rng.Intn(n))
		b[i] = 0.25 * rng.NormFloat64()
		x0[i] = rng.NormFloat64()
	}

	procs := runtime.GOMAXPROCS(0)
	// The inspector: dependence extraction + wavefront sort + schedule.
	loop, err := core.NewSimpleLoop(ia,
		core.WithProcs(procs),
		core.WithExecutor(executor.SelfExecuting),
		core.WithScheduler(core.GlobalScheduler),
	)
	if err != nil {
		return err
	}
	fmt.Printf("n=%d, %d processors, %d wavefronts found by the inspector\n",
		n, procs, loop.Runtime().NumWavefronts())

	// The executor: repeated sweeps reuse the schedule (the inspector cost
	// is amortized, exactly the paper's use case).
	xPar := append([]float64(nil), x0...)
	xSeq := append([]float64(nil), x0...)
	for sweep := 0; sweep < 3; sweep++ {
		m := loop.Run(xPar, b)
		loop.RunSequential(xSeq, b)
		fmt.Printf("sweep %d: executed %d iterations, %d dependence checks, %d busy waits\n",
			sweep, m.Executed, m.SpinChecks, m.SpinWaits)
	}

	if d := vec.MaxAbsDiff(xPar, xSeq); d != 0 {
		return fmt.Errorf("parallel result differs from sequential by %g", d)
	}
	fmt.Println("parallel result matches sequential execution exactly")

	// The pooled executor takes the amortization one step further: its
	// sweeps run on the calling goroutine plus the process's shared helper
	// goroutines, started once (zero goroutine spawns and zero
	// allocations per Run after warm-up, and nothing to close).
	pooled, err := core.NewSimpleLoop(ia,
		core.WithProcs(procs),
		core.WithExecutor(executor.Pooled),
		core.WithScheduler(core.GlobalScheduler),
	)
	if err != nil {
		return err
	}
	xPool := append([]float64(nil), x0...)
	xSeq = append(xSeq[:0], x0...)
	for sweep := 0; sweep < 3; sweep++ {
		pooled.Run(xPool, b)
		pooled.RunSequential(xSeq, b)
	}
	if d := vec.MaxAbsDiff(xPool, xSeq); d != 0 {
		return fmt.Errorf("pooled result differs from sequential by %g", d)
	}
	fmt.Println("pooled executor (shared worker set) matches as well")
	return nil
}
