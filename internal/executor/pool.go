package executor

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"doconsider/internal/schedule"
	"doconsider/internal/wavefront"
)

// ErrPoolClosed reports a Run attempted on a closed pool.
var ErrPoolClosed = errors.New("executor: pool is closed")

// Pool is a persistent worker pool executing prepared schedules with the
// self-executing (busy-wait) synchronization of paper Figure 4. The P
// workers are spawned once in NewPool and reused for every Run, and the
// shared ready array is epoch-stamped instead of cleared, so on the hot
// path a Run performs zero goroutine spawns and zero heap allocations —
// the executor-side counterpart of amortizing the inspector (§5.1.1).
//
// A Pool is bound to its processor count: Run requires a schedule built
// for exactly Procs processors. Close releases the workers; a Pool must
// not be used after Close.
type Pool struct {
	procs int

	runMu sync.Mutex // serializes Run/Close; workers never take it

	mu     sync.Mutex // guards seq/closed and the per-run fields below
	cond   *sync.Cond
	seq    uint64
	closed bool

	// Per-run state, written under mu before the seq bump that publishes
	// it to the workers.
	sched *schedule.Schedule
	deps  *wavefront.Deps
	body  Body
	epoch uint32

	// done[i] == epoch marks index i complete in the current run; stale
	// epochs from previous runs read as not-ready, so the array never
	// needs clearing (except on the ~never epoch wraparound).
	done []uint32

	ctl   runControl
	wg    sync.WaitGroup
	tally tally
}

// NewPool spawns a pool of procs persistent workers (procs >= 1).
func NewPool(procs int) *Pool {
	if procs < 1 {
		procs = 1
	}
	p := &Pool{procs: procs}
	p.cond = sync.NewCond(&p.mu)
	for w := 0; w < procs; w++ {
		go p.worker(w, 0)
	}
	return p
}

// Procs returns the number of persistent workers.
func (p *Pool) Procs() int { return p.procs }

// worker is the persistent loop of one pool worker: sleep until a run
// newer than last is published, execute this worker's processor list,
// signal completion, repeat until the pool closes.
func (p *Pool) worker(id int, last uint64) {
	for {
		p.mu.Lock()
		for p.seq == last && !p.closed {
			p.cond.Wait()
		}
		if p.closed {
			p.mu.Unlock()
			return
		}
		last = p.seq
		s, deps, body, epoch := p.sched, p.deps, p.body, p.epoch
		p.mu.Unlock()
		p.runGuarded(id, last, s, deps, body, epoch)
	}
}

// runGuarded wraps one worker's share of one run with the cleanup that
// must happen no matter how the body returns control: a panic is recorded
// as the run's abort cause, and a body that kills the goroutine outright
// (runtime.Goexit, e.g. t.FailNow in a test body) is recorded as
// ErrWorkerExited, a replacement worker is spawned for future runs, and
// the WaitGroup is still released — so neither this Run nor the next one
// deadlocks.
func (p *Pool) runGuarded(id int, seq uint64, s *schedule.Schedule, deps *wavefront.Deps, body Body, epoch uint32) {
	defer p.wg.Done()
	completed := false
	defer func() {
		if r := recover(); r != nil {
			p.ctl.recordPanic(r)
			return
		}
		if !completed {
			// runtime.Goexit is terminating this goroutine: release the
			// peers and replace the dying worker. The replacement starts
			// at this run's seq so it does not re-execute it.
			p.ctl.recordPanic(ErrWorkerExited)
			go p.worker(id, seq)
		}
	}()
	ran, checks, waits, _ := runList(&p.ctl, s.Proc(id), deps, p.done, epoch, body)
	p.tally.add(ran, checks, waits)
	completed = true
}

// Run executes body under the pool's workers. The schedule must be built
// for exactly Procs processors and its per-processor lists must be
// dependence-consistent (wavefront-sorted or natural order). Run blocks
// until all workers finish; concurrent Run calls are serialized. On a
// cancelled context every busy-waiting worker is released and ctx.Err()
// is returned; on a body panic a *PanicError is returned. After a warm-up
// call, Run allocates nothing and spawns no goroutines.
func (p *Pool) Run(ctx context.Context, s *schedule.Schedule, deps *wavefront.Deps, body Body) (Metrics, error) {
	p.runMu.Lock()
	defer p.runMu.Unlock()
	if s.P != p.procs {
		return Metrics{}, fmt.Errorf("executor: pool has %d workers, schedule wants %d", p.procs, s.P)
	}
	if len(p.done) < s.N {
		p.done = make([]uint32, s.N)
	}
	p.ctl.reset(ctx)
	p.tally = tally{}
	p.wg.Add(p.procs)
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Add(-p.procs)
		return Metrics{}, ErrPoolClosed
	}
	p.epoch++
	if p.epoch == 0 { // wraparound: stale stamps could alias, so clear
		clear(p.done)
		p.epoch = 1
	}
	p.sched, p.deps, p.body = s, deps, body
	p.seq++
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
	return p.tally.metrics(p.procs), p.ctl.err(ctx)
}

// Close releases the pool's workers. It waits for no one: any in-flight
// Run (serialized by runMu) has already completed or holds runMu. Close
// is idempotent.
func (p *Pool) Close() error {
	p.runMu.Lock()
	defer p.runMu.Unlock()
	p.mu.Lock()
	p.closed = true
	p.sched, p.deps, p.body = nil, nil, nil
	p.mu.Unlock()
	p.cond.Broadcast()
	return nil
}
