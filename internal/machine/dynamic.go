package machine

import "doconsider/internal/wavefront"

// ChunkPolicy determines the number of indices a worker claims, given the
// number of unclaimed indices and the processor count.
type ChunkPolicy func(remaining, nproc int) int

// FixedChunk returns a policy claiming exactly k indices (k >= 1).
func FixedChunk(k int) ChunkPolicy {
	if k < 1 {
		k = 1
	}
	return func(remaining, nproc int) int { return k }
}

// GuidedChunk returns the guided self-scheduling policy of the paper's
// reference [16]: claim ceil(remaining/P), bounded below by minChunk.
func GuidedChunk(minChunk int) ChunkPolicy {
	if minChunk < 1 {
		minChunk = 1
	}
	return func(remaining, nproc int) int {
		c := (remaining + nproc - 1) / nproc
		if c < minChunk {
			c = minChunk
		}
		return c
	}
}

// SimulateSelfScheduled simulates dynamic self-scheduling over a sorted
// (topological) index list in the cost model: a free worker claims the
// next chunk of the list at the instant it finishes its previous chunk,
// then executes the chunk's indices in order with busy-wait dependence
// stalls. Each claim costs claimCost (the shared-counter fetch-and-add the
// paper notes is missing on the Multimax, §2.3). Determinism: simultaneous
// claims are ordered by worker id.
//
// This lets chunk-size and guided-scheduling studies run at any simulated
// processor count, independent of host CPUs.
func SimulateSelfScheduled(order []int32, deps *wavefront.Deps, work []float64, nproc int, policy ChunkPolicy, claimCost float64, c Costs) (Result, error) {
	nproc = max(nproc, 1)
	b := newBusyWait(nproc, deps, work, c, order)
	n, cursor := len(order), 0
	b.claim = func(w int) bool {
		if cursor >= n {
			return false
		}
		k := max(policy(n-cursor, nproc), 1)
		b.pos[w], b.end[w] = cursor, min(cursor+k, n)
		cursor = b.end[w]
		b.clock[w] += claimCost
		b.res.Busy[w] += claimCost
		return true
	}
	// First claims go eagerly in worker order (all clocks zero); later
	// ones happen as the sweep reaches an exhausted worker, which revisits
	// workers until quiescent. Because execution only ever advances
	// clocks, the fixed ordering keeps the simulation deterministic.
	for w := 0; w < nproc; w++ {
		b.claim(w)
	}
	return b.run()
}
