package core

import (
	"context"

	"doconsider/internal/executor"
	"doconsider/internal/schedule"
	"doconsider/internal/wavefront"
)

// ParallelSweep is the parallelized topological sort of paper Section 2.3,
// run as one self-executing pass on the executor over the natural index
// order, striped across nproc processor lists. The executor runs such a
// one-phase schedule as a doacross loop: participants take indices in
// increasing order, and a busy wait assures that a dependence's wavefront
// number has been produced before it is read. It returns what
// wavefront.Compute does. All dependences must point backward
// (CheckBackward), so a forward one is an error rather than a pass that
// never ends.
func ParallelSweep(d *wavefront.Deps, nproc int) ([]int32, error) {
	if err := d.CheckBackward(); err != nil {
		return nil, err
	}
	wf := make([]int32, d.N)
	s := schedule.Natural(d.N, nproc, schedule.Striped)
	_, err := executor.RunCtx(context.Background(), executor.SelfExecuting, s, d, func(i int32) {
		mywf := int32(-1)
		for _, t := range d.On(int(i)) {
			mywf = max(mywf, wf[t])
		}
		wf[i] = mywf + 1
	})
	return wf, err
}
