package machine

import (
	"doconsider/internal/schedule"
	"doconsider/internal/wavefront"
)

// NUMACosts extends Costs with distinct local and remote shared-array
// access costs, modelling the distributed-memory and hierarchical
// shared-memory machines the paper's §5.1.3 defers to its reference [12]:
// "It is clearly easier to assure performance characteristics that scale
// ... if one designs machines with distributed memory or a hierarchical
// shared memory. We are currently extending such projections to those
// types of machines."
//
// A dependence check is local (cheap) when the producing index is owned by
// the same processor as the consumer, remote (expensive) otherwise; the
// ready-array increment is always local to the producer. Barrier cost
// grows logarithmically with the processor count, as a tree barrier on a
// scalable network would.
type NUMACosts struct {
	Tflop        float64 // per unit of work
	TcheckLocal  float64 // check a ready flag this processor produced
	TcheckRemote float64 // check a ready flag another processor produced
	Tinc         float64 // publish own ready flag
	Overhead     float64 // fixed per-index overhead
	TsynchBase   float64 // barrier cost per log2(P) stage
}

// DefaultNUMACosts returns constants shaped like a late-80s
// distributed-shared-memory design: remote checks an order of magnitude
// more expensive than local ones.
func DefaultNUMACosts() NUMACosts {
	return NUMACosts{
		Tflop:        1.0,
		TcheckLocal:  0.25,
		TcheckRemote: 2.5,
		Tinc:         0.35,
		Overhead:     0.5,
		TsynchBase:   1.0,
	}
}

// barrierCost returns the tree-barrier cost for p processors.
func (c NUMACosts) barrierCost(p int) float64 {
	stages := 0
	for n := 1; n < p; n *= 2 {
		stages++
	}
	if stages == 0 {
		stages = 1
	}
	return c.TsynchBase * float64(stages)
}

// SimulateSelfExecutingNUMA is SimulateSelfExecuting under the NUMA cost
// model: check costs depend on whether the producer of each dependence is
// local to the consuming processor.
func SimulateSelfExecutingNUMA(s *schedule.Schedule, deps *wavefront.Deps, work []float64, c NUMACosts) (Result, error) {
	owner := owners(s)
	b := staticBusyWait(s, deps, work, Costs{Tflop: c.Tflop, Tinc: c.Tinc, Overhead: c.Overhead})
	b.check = func(p int, i int32) float64 {
		cost := 0.0
		for _, t := range deps.On(int(i)) {
			if owner[t] == int32(p) {
				cost += c.TcheckLocal
			} else {
				cost += c.TcheckRemote
			}
		}
		return cost
	}
	return b.run()
}

// SimulatePreScheduledNUMA is SimulatePreScheduled with the tree-barrier
// cost of the NUMA model (per-index costs do not depend on ownership for
// the barrier executor, which never reads remote ready flags).
func SimulatePreScheduledNUMA(s *schedule.Schedule, work []float64, c NUMACosts) Result {
	flat := Costs{
		Tflop:    c.Tflop,
		Tsynch:   c.barrierCost(s.P),
		Overhead: c.Overhead,
	}
	return SimulatePreScheduled(s, work, flat)
}

// RemoteFraction reports the fraction of dependence checks that cross
// processors under a schedule — the locality metric that determines how
// hard the NUMA model punishes self-execution.
func RemoteFraction(s *schedule.Schedule, deps *wavefront.Deps) float64 {
	owner := owners(s)
	total, remote := 0, 0
	for i := 0; i < s.N; i++ {
		for _, t := range deps.On(i) {
			total++
			if owner[t] != owner[i] {
				remote++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(remote) / float64(total)
}

// owners maps every index to the processor that runs it.
func owners(s *schedule.Schedule) []int32 {
	owner := make([]int32, s.N)
	for p := 0; p < s.P; p++ {
		for _, idx := range s.Proc(p) {
			owner[idx] = int32(p)
		}
	}
	return owner
}
