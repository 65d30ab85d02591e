// Package machine is a deterministic cost-model simulator of a
// shared-memory multiprocessor executing a scheduled loop. It substitutes
// for the paper's 16-processor Encore Multimax/320: given a schedule, the
// dependence structure, a per-index work vector and per-operation costs, it
// computes the makespan of pre-scheduled and self-executing runs.
//
// The model is exactly the accounting the paper itself validates in
// §5.1.2 ("Where Does the Time Go"): observed multiprocessor time is
// explained by the floating-point work distribution plus a fixed overhead
// per operation, barrier costs for pre-scheduled loops, and shared-array
// check/increment costs for self-executing loops. Because the paper shows
// this model predicts Multimax timings "rather accurately", reproducing
// the model reproduces the machine for scheduling purposes.
package machine

import (
	"errors"
	"fmt"

	"doconsider/internal/schedule"
	"doconsider/internal/wavefront"
)

// Costs holds the per-operation costs in arbitrary consistent time units.
// The paper's ratios are Rsynch = Tsynch/Tp, Rinc = Tinc/Tp and
// Rcheck = Tcheck/Tp where Tp is the per-index computation time.
type Costs struct {
	Tflop    float64 // time per unit of per-index work (e.g. one multiply-add)
	Tsynch   float64 // time per global synchronization (barrier)
	Tcheck   float64 // time to check one shared ready-array element
	Tinc     float64 // time to increment one shared ready-array element
	Overhead float64 // fixed extra time per index in the parallel code
}

// MultimaxCosts returns calibration constants shaped to the Encore
// Multimax/320 behaviour reported in the paper: shared-memory check and
// increment costs are small fractions of a multiply-add, and a
// 16-processor global synchronization costs about two multiply-adds.
// (The APC/02's floating point was slow enough that a barrier amounts to
// only a couple of flop-times; in the paper's Table 3 the barrier term is
// under ten percent of the pre-scheduled solve time.) Absolute units are
// arbitrary; only the ratios matter, and these reproduce the paper's
// executor crossovers: barrier losses stay small on few-phase balanced
// problems (7-PT) while check/increment overheads stay small relative to
// row work everywhere.
func MultimaxCosts() Costs {
	return Costs{
		Tflop:    1.0,
		Tsynch:   2.0,
		Tcheck:   0.25,
		Tinc:     0.35,
		Overhead: 0.5,
	}
}

// FlopOnly zeroes every overhead, leaving only the work distribution —
// simulating with FlopOnly costs yields the paper's "symbolically
// estimated efficiency".
func FlopOnly() Costs { return Costs{Tflop: 1} }

// Result reports a simulated run.
type Result struct {
	Makespan   float64   // completion time of the last processor
	Busy       []float64 // per-processor busy time (work + overheads)
	Idle       []float64 // per-processor idle time (waits + barrier slack)
	SeqTime    float64   // total work on one processor, no overheads
	Efficiency float64   // SeqTime / (P * Makespan)
}

// ErrStuck reports that the simulated self-executing run cannot make
// progress — the schedule orders some processor's indices inconsistently
// with the dependence structure (or the dependences are cyclic).
var ErrStuck = errors.New("machine: self-executing simulation deadlocked")

// Every product that feeds a sum in this package is wrapped in an
// explicit float64 conversion, which rounds it before the addition: the
// Go spec then forbids a fused multiply-add, so arm64 returns the same
// bits as amd64 and the simulator golden holds on both
// (TestNoFusedMultiplyAdd in internal/trisolve checks the assembly).
func seqTime(work []float64, c Costs) float64 {
	s := 0.0
	for _, w := range work {
		s += float64(w * c.Tflop)
	}
	return s
}

// account derives the sequential time and the efficiency from the
// makespan, the same for every discipline.
func (r *Result) account(work []float64, c Costs) {
	r.SeqTime = seqTime(work, c)
	if r.Makespan > 0 {
		r.Efficiency = r.SeqTime / (float64(len(r.Busy)) * r.Makespan)
	}
}

// barrierRun is the pre-scheduled discipline's one loop: within a phase
// each processor runs its indices back to back, and the phase costs the
// slowest processor's work plus one global synchronization, which the
// others spend idle at the barrier. spans, when non-nil, receives every
// index's span on the run's clock, and end is that clock's final value:
// it adds each phase onto the running clock rather than summing the
// phase first, so it may differ from Makespan in the last bits.
func barrierRun(s *schedule.Schedule, work []float64, c Costs, spans *[]Span) (res Result, end float64) {
	res = Result{
		Busy: make([]float64, s.P),
		Idle: make([]float64, s.P),
	}
	phaseWork := make([]float64, s.P)
	for k := 0; k < s.NumPhases; k++ {
		phaseMax, phaseEnd := 0.0, end
		for p := 0; p < s.P; p++ {
			t, at := 0.0, end
			for _, i := range s.Phase(p, k) {
				exec := float64(work[i]*c.Tflop) + c.Overhead
				t += exec
				if spans != nil {
					*spans = append(*spans, Span{Index: i, Proc: int32(p), Start: at, Finish: at + exec})
				}
				at += exec
			}
			phaseWork[p] = t
			phaseMax, phaseEnd = max(phaseMax, t), max(phaseEnd, at)
		}
		for p, t := range phaseWork {
			res.Busy[p] += t
			res.Idle[p] += phaseMax - t
		}
		res.Makespan += phaseMax + c.Tsynch
		end = phaseEnd + c.Tsynch
	}
	res.account(work, c)
	return res, end
}

// SimulatePreScheduled computes the makespan of the pre-scheduled executor:
// each phase costs the maximum per-processor work in that phase, and every
// phase boundary costs one global synchronization.
func SimulatePreScheduled(s *schedule.Schedule, work []float64, c Costs) Result {
	res, _ := barrierRun(s, work, c, nil)
	return res
}

// busyWait is the state of the self-executing discipline's one event
// loop. Processor p runs order[pos[p]:end[p]] in order; an index starts
// when its processor is free and all its dependences have completed, and
// costs check(p, i) for its dependence checks plus its work, one
// ready-array increment and the per-index overhead. Two hooks vary the
// loop: claim, when set, hands a processor whose range ran out its next
// one and reports whether there was any; spans, when set, receives every
// index's span.
type busyWait struct {
	deps     *wavefront.Deps
	work     []float64
	c        Costs
	check    func(p int, i int32) float64
	claim    func(p int) bool
	spans    *[]Span
	order    []int32
	pos, end []int
	clock    []float64
	res      Result
}

func newBusyWait(nproc int, deps *wavefront.Deps, work []float64, c Costs, order []int32) *busyWait {
	return &busyWait{
		deps: deps, work: work, c: c, order: order,
		check: func(_ int, i int32) float64 { return float64(deps.Count(int(i))) * c.Tcheck },
		pos:   make([]int, nproc),
		end:   make([]int, nproc),
		clock: make([]float64, nproc),
		res:   Result{Busy: make([]float64, nproc), Idle: make([]float64, nproc)},
	}
}

// staticBusyWait sets up the loop over a static schedule: processor p
// runs s.Proc(p) and nothing more.
func staticBusyWait(s *schedule.Schedule, deps *wavefront.Deps, work []float64, c Costs) *busyWait {
	b := newBusyWait(s.P, deps, work, c, s.Idx)
	for p := range b.pos {
		b.pos[p], b.end[p] = int(s.ProcPtr[p]), int(s.ProcPtr[p+1])
	}
	return b
}

// run sweeps the processors in order, each as far as its dependences
// allow, until every index has executed; a sweep that moves nothing
// means the schedule deadlocks.
func (b *busyWait) run() (Result, error) {
	done := make([]float64, b.deps.N)
	computed := make([]bool, b.deps.N)
	remaining := len(b.order)
	for remaining > 0 {
		progressed := false
		for p := range b.pos {
			for {
				if b.pos[p] >= b.end[p] {
					if b.claim == nil || !b.claim(p) {
						break
					}
					progressed = true
					continue
				}
				i := b.order[b.pos[p]]
				start := b.clock[p]
				ok := true
				for _, t := range b.deps.On(int(i)) {
					if !computed[t] {
						ok = false
						break
					}
					if done[t] > start {
						start = done[t]
					}
				}
				if !ok {
					break
				}
				exec := b.check(p, i) + float64(b.work[i]*b.c.Tflop) + b.c.Tinc + b.c.Overhead
				b.res.Idle[p] += start - b.clock[p]
				b.res.Busy[p] += exec
				done[i] = start + exec
				computed[i] = true
				b.clock[p] = done[i]
				if b.spans != nil {
					*b.spans = append(*b.spans, Span{Index: i, Proc: int32(p), Start: start, Finish: done[i]})
				}
				b.pos[p]++
				remaining--
				progressed = true
			}
		}
		if !progressed {
			return b.res, fmt.Errorf("%w: %d indices unexecuted", ErrStuck, remaining)
		}
	}
	for _, t := range b.clock {
		b.res.Makespan = max(b.res.Makespan, t)
	}
	for p, t := range b.clock {
		b.res.Idle[p] += b.res.Makespan - t
	}
	b.res.account(b.work, b.c)
	return b.res, nil
}

// SimulateSelfExecuting computes the makespan of the self-executing
// executor by discrete-event simulation: each processor runs its schedule
// in order; an index starts when its processor is free and all its
// dependences have completed; each dependence costs a shared-array check
// and each completion costs a shared-array increment.
func SimulateSelfExecuting(s *schedule.Schedule, deps *wavefront.Deps, work []float64, c Costs) (Result, error) {
	return staticBusyWait(s, deps, work, c).run()
}

// SymbolicEfficiency is the paper's operation-count based efficiency
// estimate: the efficiency of the given executor with all overheads zeroed,
// so that only the distribution and scheduling of the floating point
// operations matters.
func SymbolicEfficiency(kind Executor, s *schedule.Schedule, deps *wavefront.Deps, work []float64) (float64, error) {
	c := FlopOnly()
	switch kind {
	case PreScheduledSim:
		return SimulatePreScheduled(s, work, c).Efficiency, nil
	case SelfExecutingSim:
		r, err := SimulateSelfExecuting(s, deps, work, c)
		return r.Efficiency, err
	default:
		return 0, fmt.Errorf("machine: unknown executor %d", kind)
	}
}

// Executor names the simulated execution mechanism.
type Executor int

const (
	// PreScheduledSim simulates barriers between phases.
	PreScheduledSim Executor = iota
	// SelfExecutingSim simulates busy-wait synchronization.
	SelfExecutingSim
)

// String returns the executor name.
func (e Executor) String() string {
	switch e {
	case PreScheduledSim:
		return "pre-scheduled"
	case SelfExecutingSim:
		return "self-executing"
	default:
		return fmt.Sprintf("Executor(%d)", int(e))
	}
}

// RotatingEstimate reproduces the paper's rotating-processor experiment in
// the cost model: perfect load balance with all per-operation overheads but
// no waiting. It returns the estimated parallel time
// (total work + overheads)/P, plus the barrier term for pre-scheduled runs.
func RotatingEstimate(kind Executor, s *schedule.Schedule, deps *wavefront.Deps, work []float64, c Costs) float64 {
	t := OneProcessorParallelTime(kind, deps, work, c) / float64(s.P)
	if kind == PreScheduledSim {
		t += float64(float64(s.NumPhases) * c.Tsynch)
	}
	return t
}

// OneProcessorParallelTime is the single-processor execution time of the
// parallel code: all work plus per-index overheads (and check/increment
// costs for the self-executing version), with no waiting and no barriers.
// This is the paper's "1 PE Par." estimate input.
func OneProcessorParallelTime(kind Executor, deps *wavefront.Deps, work []float64, c Costs) float64 {
	total := 0.0
	for i := range work {
		total += float64(work[i]*c.Tflop) + c.Overhead
		if kind == SelfExecutingSim {
			total += float64(float64(deps.Count(i))*c.Tcheck) + c.Tinc
		}
	}
	return total
}
