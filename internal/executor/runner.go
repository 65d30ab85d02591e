package executor

import (
	"context"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"doconsider/internal/barrier"
	"doconsider/internal/schedule"
	"doconsider/internal/wavefront"
)

// helper is one goroutine of the process's shared worker set. A pass that
// claims it fills its slot — the pass and the participant number — and
// wakes it; nothing is allocated per dispatch.
type helper struct {
	wake chan struct{} // buffered: a claimed helper's one pending dispatch
	x    *pass
	part int
}

// helpers is the process's one worker set: GOMAXPROCS(0)-1 goroutines
// started when the package is initialized (so any goroutine baseline a
// program takes already counts them) and alive for the process, the idle
// ones stacked under mu. Every pass draws on it, whatever the number of
// executors, so the set bounds the parked goroutines.
var helpers struct {
	mu   sync.Mutex
	idle []*helper
	size int
}

// crewCap caps the helpers one pass claims, so its width. Only the
// package's tests lower it, to run the bit-identity and failure grids at
// each width.
var crewCap atomic.Int32

func init() {
	crewCap.Store(math.MaxInt32)
	helpers.size = runtime.GOMAXPROCS(0) - 1
	helpers.idle = make([]*helper, helpers.size)
	for i := range helpers.idle {
		h := &helper{wake: make(chan struct{}, 1)}
		helpers.idle[i] = h
		go h.loop()
	}
}

// isHelper reports whether stack, one goroutine's record in a
// runtime.Stack(buf, true) dump, belongs to the shared worker set: it
// carries the helper loop's frame.
func isHelper(stack string) bool {
	return strings.Contains(stack, "doconsider/internal/executor.(*helper).loop(")
}

// Goroutines counts the live goroutines except two kinds that live as
// long as the process: the shared worker set's helpers and the os/signal
// loop, which the fuzzing engine starts after a fuzz target's setup has
// taken its baseline. It counts one runtime.Stack snapshot, so a helper
// still dying after its replacement started is a helper in it, not a
// leak. Goroutine-leak checks compare it before and after.
func Goroutines() int {
	buf := make([]byte, 1<<20)
	n := 0
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if !isHelper(g) && !strings.Contains(g, "os/signal.signal_recv") {
			n++
		}
	}
	return n
}

// loop is a helper's life: sleep until claimed, run the share, repeat.
func (h *helper) loop() {
	for range h.wake {
		h.run()
	}
}

// run executes the helper's share of the pass it was woken for and
// returns the helper to the idle set before the pass's caller is told it
// finished. A panicking body aborts the pass; a body that kills the
// goroutine outright (runtime.Goexit, e.g. t.FailNow in a test body)
// aborts it with ErrWorkerExited and hands the slot to a fresh goroutine,
// so the set keeps its size.
func (h *helper) run() {
	x, completed := h.x, false
	defer func() {
		if r := recover(); r != nil {
			x.rc.recordPanic(r)
		} else if !completed {
			x.rc.recordPanic(ErrWorkerExited)
			go h.loop()
		}
		h.x = nil
		helpers.mu.Lock()
		helpers.idle = append(helpers.idle, h)
		helpers.mu.Unlock()
		x.wg.Done()
	}()
	x.share(h.part)
	completed = true
}

// discipline is how a pass's participants synchronize.
type discipline uint8

const (
	// byFlags: each participant runs its processor lists phase-major and
	// busy-waits on the ready array (Figure 4).
	byFlags discipline = iota
	// byBarrier: each participant runs its lists' segments of a phase and
	// then meets the others at the pass's barrier (Figure 5).
	byBarrier
	// byClaim: participants take chunks of the claim order from an atomic
	// counter and busy-wait on the ready array; a column pass's spans,
	// claimed the same way, wait on nothing.
	byClaim
)

// Span runs columns lo..hi-1 of a column pass, returning early once stop
// reports the pass aborted (a cancelled context or a peer's panic).
type Span func(lo, hi int, stop func() bool)

// job is what one pass runs.
type job struct {
	disc discipline
	s    *schedule.Schedule // byFlags, byBarrier
	deps *wavefront.Deps    // byFlags, byClaim
	// order is byClaim's index order, nil for 0..n-1; n is its length.
	order []int32
	n     int
	chunk int
	width int // the most participants the pass may use
	body  Body
	span  Span           // a column pass's body: byClaim over n columns, no deps
	bd    *TimeBreakdown // per-participant timing; nil when untimed
}

// pass is the state of one run: the epoch-stamped ready array, the crew
// of helpers the run claimed, the claim counter and the barrier. Each
// Executor keeps a free list of them, so a warm pass allocates nothing
// and concurrent passes on one Executor never share one.
type pass struct {
	job
	w     int // participants: the caller plus len(crew)
	epoch uint32
	// done[i] == epoch marks index i complete in the current run; stale
	// epochs from previous runs read as not-ready, so the array never
	// needs clearing (except on the ~never epoch wraparound).
	done []uint32
	seq  []int32 // 0, 1, 2, …: byClaim's order when job.order is nil
	crew []*helper
	next atomic.Int64 // byClaim: the first unclaimed position
	bar  barrier.SenseReversing

	rc    runControl
	stop  func() bool // rc.stop, bound once for spans
	tally tally
	wg    sync.WaitGroup
}

// run executes j on a pass state from the free list and returns the
// state to it.
func (e *Executor) run(ctx context.Context, j job) (Metrics, error) {
	e.free.mu.Lock()
	var x *pass
	if n := len(e.free.passes); n > 0 {
		x = e.free.passes[n-1]
		e.free.passes = e.free.passes[:n-1]
	} else {
		x = &pass{crew: make([]*helper, 0, helpers.size)}
		x.stop = x.rc.stop
	}
	e.free.mu.Unlock()
	m, err := x.run(ctx, j)
	x.job = job{} // drop the body and its captures
	e.free.mu.Lock()
	e.free.passes = append(e.free.passes, x)
	e.free.mu.Unlock()
	return m, err
}

// run executes the job on the caller plus every helper idle at dispatch,
// up to j.width participants; it never waits for a helper to come free.
// After a warm-up call it allocates nothing and spawns no goroutines. The
// caller's own share runs under a guard: a panic there aborts the run
// like a helper's, and a runtime.Goexit — the caller's own exit, as under
// Sequential — still aborts the run and waits for the crew to return to
// the set before the goroutine dies.
func (x *pass) run(ctx context.Context, j job) (m Metrics, err error) {
	x.job = j
	if j.deps != nil {
		if len(x.done) < j.deps.N {
			x.done = make([]uint32, j.deps.N)
		}
		if x.epoch++; x.epoch == 0 { // wraparound: stale stamps could alias, so clear
			clear(x.done)
			x.epoch = 1
		}
	}
	if j.disc == byClaim {
		x.next.Store(0)
		x.chunk = max(j.chunk, 1)
		if x.order == nil {
			for i := len(x.seq); i < j.n; i++ {
				x.seq = append(x.seq, int32(i))
			}
			x.order = x.seq[:j.n]
		}
	}
	x.rc.reset(ctx)
	x.tally = tally{}
	helpers.mu.Lock()
	keep := len(helpers.idle) - max(min(j.width-1, int(crewCap.Load()), len(helpers.idle)), 0)
	x.crew = append(x.crew[:0], helpers.idle[keep:]...)
	helpers.idle = helpers.idle[:keep]
	helpers.mu.Unlock()
	x.w = len(x.crew) + 1
	if j.disc == byBarrier {
		x.bar.Reset(x.w)
	}
	if j.span != nil {
		x.chunk = (j.n + x.w - 1) / x.w // one span per participant
	}
	x.wg.Add(len(x.crew))
	for p, h := range x.crew {
		h.x, h.part = x, p+1
		h.wake <- struct{}{}
	}
	completed := false
	defer func() {
		if r := recover(); r != nil {
			x.rc.recordPanic(r)
		} else if !completed {
			x.rc.aborted.Store(1)
		}
		x.wg.Wait()
		m, err = x.tally.metrics(x.w), x.rc.err(ctx)
	}()
	x.share(0)
	completed = true
	return
}

// share runs participant p's part of the pass. Under byFlags and
// byBarrier that is processor lists p, p+w, p+2w, … phase-major: every
// list's phase-k segment before any list's phase k+1. Every dependence
// between two lists crosses a phase boundary (wavefront phases, and
// merged phases by construction), so whatever the width, the lowest
// unfinished phase always progresses; at w = 1 the caller runs the whole
// schedule in wavefront order. Under byClaim a claimed index waits only on
// indices claimed before it, by participants that are running, so no
// width can deadlock either; a column pass's spans wait on nothing.
func (x *pass) share(p int) {
	body := x.body
	if x.bd != nil {
		var stop func()
		body, stop = x.bd.proc(p, body)
		defer stop()
	}
	var ran, checks, waits int64
	switch x.disc {
	case byFlags:
		for k := 0; k < x.s.NumPhases; k++ {
			for l := p; l < x.s.P; l += x.w {
				// After an abort every later call returns at its first index.
				r, c, w, _ := runList(&x.rc, x.s.Phase(l, k), x.deps, x.done, x.epoch, body)
				ran, checks, waits = ran+r, checks+c, waits+w
			}
		}
	case byBarrier:
		// A participant that observes an abort stops running bodies but
		// keeps arriving at every remaining barrier, so the phase
		// structure unwinds without deadlock.
		g := barrierGuard{rc: &x.rc, bar: &x.bar, phases: x.s.NumPhases}
		defer g.check()
		for k := 0; k < x.s.NumPhases; k++ {
			for l := p; l < x.s.P && !x.rc.isAborted(); l += x.w {
				ran += runPhase(&x.rc, x.s.Phase(l, k), body)
			}
			x.bar.Wait()
			g.attended++
		}
		g.completed = true
	case byClaim:
		for chunk := int64(x.chunk); ; {
			lo := int(x.next.Add(chunk) - chunk)
			if lo >= x.n {
				break
			}
			if x.span != nil { // a span cut short by an abort does not count
				hi := min(lo+x.chunk, x.n)
				if x.span(lo, hi, x.stop); !x.rc.isAborted() {
					ran += int64(hi - lo)
				}
				continue
			}
			r, c, w, ok := runList(&x.rc, x.order[lo:min(lo+x.chunk, x.n)], x.deps, x.done, x.epoch, body)
			ran, checks, waits = ran+r, checks+c, waits+w
			if !ok {
				break
			}
		}
	}
	x.tally.add(ran, checks, waits)
}
