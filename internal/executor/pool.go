package executor

import (
	"context"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

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
// ones stacked under mu. Every pooled pass draws on it, whatever the
// number of pooled executors, so the set bounds the parked goroutines.
var helpers struct {
	mu   sync.Mutex
	idle []*helper
	size int
}

// crewCap caps the helpers one pooled pass claims, so its width. Only the
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

// IsHelper reports whether stack, one goroutine's record in a
// runtime.Stack(buf, true) dump, belongs to the shared worker set: it
// carries the helper loop's frame. The helpers live as long as the
// process, so goroutine-leak checks count every goroutine but these.
func IsHelper(stack string) bool {
	return strings.Contains(stack, "doconsider/internal/executor.(*helper).loop(")
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

// pass is a pooled executor's run state, reused by every run: the
// epoch-stamped ready array and the crew of helpers the run claimed.
// Runs on one executor serialize, so one pass is enough.
type pass struct {
	s     *schedule.Schedule
	deps  *wavefront.Deps
	body  Body
	w     int // participants: the caller plus len(crew)
	epoch uint32
	// done[i] == epoch marks index i complete in the current run; stale
	// epochs from previous runs read as not-ready, so the array never
	// needs clearing (except on the ~never epoch wraparound).
	done []uint32
	crew []*helper

	rc    runControl
	tally tally
	wg    sync.WaitGroup
}

// run executes body over s (paper Figure 4's busy waits) on the caller
// plus every helper idle at dispatch, up to one participant per processor
// list; it never waits for a helper to come free. After a warm-up call it
// allocates nothing and spawns no goroutines. The caller's own share runs
// under a guard: a panic there aborts the run like a helper's, and a
// runtime.Goexit — the caller's own exit, as under Sequential — still
// aborts the run and waits for the crew to return to the set before the
// goroutine dies.
func (x *pass) run(ctx context.Context, s *schedule.Schedule, deps *wavefront.Deps, body Body) (m Metrics, err error) {
	if len(x.done) < s.N {
		x.done = make([]uint32, s.N)
	}
	if x.epoch++; x.epoch == 0 { // wraparound: stale stamps could alias, so clear
		clear(x.done)
		x.epoch = 1
	}
	x.s, x.deps, x.body = s, deps, body
	x.rc.reset(ctx)
	x.tally = tally{}
	helpers.mu.Lock()
	keep := len(helpers.idle) - min(s.P-1, int(crewCap.Load()), len(helpers.idle))
	x.crew = append(x.crew[:0], helpers.idle[keep:]...)
	helpers.idle = helpers.idle[:keep]
	helpers.mu.Unlock()
	x.w = len(x.crew) + 1
	x.wg.Add(len(x.crew))
	for j, h := range x.crew {
		h.x, h.part = x, j+1
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

// share runs participant j's processor lists — j, j+w, j+2w, … —
// phase-major: every list's phase-k segment before any list's phase k+1.
// Every dependence between two lists crosses a phase boundary (wavefront
// phases, and merged phases by construction), so whatever the width, the
// lowest unfinished phase always progresses; at w = 1 the caller runs the
// whole schedule in wavefront order.
func (x *pass) share(j int) {
	var ran, checks, waits int64
	for k := 0; k < x.s.NumPhases; k++ {
		for p := j; p < x.s.P; p += x.w {
			// After an abort every later call returns at its first index.
			r, c, w, _ := runList(&x.rc, x.s.Phase(p, k), x.deps, x.done, x.epoch, x.body)
			ran, checks, waits = ran+r, checks+c, waits+w
		}
	}
	x.tally.add(ran, checks, waits)
}
