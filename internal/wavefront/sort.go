package wavefront

import "fmt"

// Compute performs the sequential wavefront sweep of paper Figure 7.
// The wavefront number of each index is one plus the maximum of the
// wavefront numbers of the indices on which it depends; indices with no
// dependences form wavefront 0. All dependences must point backward
// (CheckBackward); otherwise an error is returned.
func Compute(d *Deps) ([]int32, error) {
	if err := d.CheckBackward(); err != nil {
		return nil, err
	}
	wf := make([]int32, d.N)
	for i := 0; i < d.N; i++ {
		mywf := int32(-1)
		for _, t := range d.On(i) {
			if wf[t] > mywf {
				mywf = wf[t]
			}
		}
		wf[i] = mywf + 1
	}
	return wf, nil
}

// ComputeDAG computes wavefront numbers for a general dependence DAG whose
// edges may point in either index direction, using Kahn's algorithm with
// longest-path levels. It returns an error naming a member of a dependence
// cycle if the graph is not acyclic — the failure mode a malformed
// doconsider annotation would otherwise turn into an executor deadlock.
func ComputeDAG(d *Deps) ([]int32, error) {
	indeg := make([]int32, d.N)
	for i := 0; i < d.N; i++ {
		for _, t := range d.On(i) {
			if t < 0 || int(t) >= d.N {
				return nil, fmt.Errorf("wavefront: iteration %d has out-of-range dependence %d", i, t)
			}
		}
		indeg[i] = int32(d.Count(i))
	}
	rev := d.Reverse()
	wf := make([]int32, d.N)
	queue := make([]int32, 0, d.N)
	for i := 0; i < d.N; i++ {
		if indeg[i] == 0 {
			queue = append(queue, int32(i))
		}
	}
	done := 0
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		done++
		for _, c := range rev.On(int(i)) {
			if wf[i]+1 > wf[c] {
				wf[c] = wf[i] + 1
			}
			indeg[c]--
			if indeg[c] == 0 {
				queue = append(queue, c)
			}
		}
	}
	if done != d.N {
		for i := 0; i < d.N; i++ {
			if indeg[i] > 0 {
				return nil, fmt.Errorf("wavefront: dependence cycle involving iteration %d", i)
			}
		}
	}
	return wf, nil
}

// NumWavefronts returns the number of distinct wavefronts (phases), i.e.
// one plus the maximum wavefront number, or 0 for an empty index set.
func NumWavefronts(wf []int32) int {
	max := int32(-1)
	for _, v := range wf {
		if v > max {
			max = v
		}
	}
	return int(max + 1)
}

// Histogram returns the number of indices in each wavefront.
func Histogram(wf []int32) []int {
	h := make([]int, NumWavefronts(wf))
	for _, v := range wf {
		h[v]++
	}
	return h
}

// Validate checks that wf is a valid wavefront assignment for d: every
// index has a strictly larger wavefront number than each of its
// dependences.
func Validate(wf []int32, d *Deps) error {
	if len(wf) != d.N {
		return fmt.Errorf("wavefront: assignment length %d, want %d", len(wf), d.N)
	}
	for i := 0; i < d.N; i++ {
		for _, t := range d.On(i) {
			if wf[i] <= wf[t] {
				return fmt.Errorf("wavefront: wf[%d]=%d not after dependence wf[%d]=%d",
					i, wf[i], t, wf[t])
			}
		}
	}
	return nil
}

// CriticalPathWork returns, for a per-index cost vector, the total cost
// along the heaviest dependence chain — a lower bound on any executor's
// completion time with unbounded processors.
func CriticalPathWork(d *Deps, cost []float64) (float64, error) {
	if err := d.CheckBackward(); err != nil {
		return 0, err
	}
	finish := make([]float64, d.N)
	maxFinish := 0.0
	for i := 0; i < d.N; i++ {
		start := 0.0
		for _, t := range d.On(i) {
			if finish[t] > start {
				start = finish[t]
			}
		}
		finish[i] = start + cost[i]
		if finish[i] > maxFinish {
			maxFinish = finish[i]
		}
	}
	return maxFinish, nil
}
