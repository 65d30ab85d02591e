package machine

import (
	"sync"
	"sync/atomic"
	"time"

	"doconsider/internal/barrier"
)

// Calibrate measures the host's per-operation costs with microbenchmarks
// and returns them normalized so Tflop = 1 (the cost of one dependent
// multiply-add): shared-array check (atomic load), increment (atomic
// store), and a global synchronization across nproc goroutines. Use the
// result in place of MultimaxCosts to simulate "this host, if it had
// nproc real processors".
//
// The measurement is best-effort: on a loaded machine the constants
// wobble, so tests should only rely on positivity and coarse ordering.
func Calibrate(nproc int) Costs {
	if nproc < 2 {
		nproc = 2
	}
	const iters = 1 << 16

	// Dependent multiply-add chain: one flop-pair per iteration.
	x := 1.0
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		x = float64(x*0.999999) + 1e-9
	}
	tflop := time.Since(t0).Seconds() / iters
	sink = x

	// Shared-array check: atomic load + compare.
	var flag int32 = 1
	acc := int32(0)
	t0 = time.Now()
	for i := 0; i < iters; i++ {
		if atomic.LoadInt32(&flag) == 1 {
			acc++
		}
	}
	tcheck := time.Since(t0).Seconds() / iters
	sinkI = acc

	// Shared-array increment: atomic store.
	t0 = time.Now()
	for i := 0; i < iters; i++ {
		atomic.StoreInt32(&flag, int32(i))
	}
	tinc := time.Since(t0).Seconds() / iters

	// Global synchronization: barrier rounds across nproc goroutines.
	const rounds = 256
	bar := barrier.NewSenseReversing(nproc)
	var wg sync.WaitGroup
	t0 = time.Now()
	for p := 0; p < nproc; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				bar.Wait()
			}
		}()
	}
	wg.Wait()
	tsynch := time.Since(t0).Seconds() / rounds

	if tflop <= 0 {
		return MultimaxCosts() // timer too coarse; fall back
	}
	return Costs{
		Tflop:    1,
		Tsynch:   tsynch / tflop,
		Tcheck:   tcheck / tflop,
		Tinc:     tinc / tflop,
		Overhead: 0.5, // schedule-array access; keep the Multimax default
	}
}

// sinks prevent the calibration loops from being optimized away.
var (
	sink  float64
	sinkI int32
)
