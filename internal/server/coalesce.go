package server

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"doconsider/internal/arena"
	"doconsider/internal/executor"
	"doconsider/internal/sparse"
	"doconsider/internal/trisolve"
)

// The coalescer is the cross-request analogue of PR 2's per-request
// batching: requests whose factors share a structural fingerprint and
// arrive within a configurable window (or until a width cap fills) are
// fused into one trisolve.SolveGroup pass, so concurrent clients share
// both the inspector run (via the plan cache) and the executor pass.
// This is where the paper's amortization argument meets multi-tenant
// load — the more clients recur on one structure, the closer the
// per-request cost gets to pure arithmetic.

// coalesceKey groups requests that can share an executor pass: same
// sparsity fingerprint, same dimension, same solve direction, same
// priority class — a latency-class request is never parked in (or
// sealed behind) a batch window. (The plan configuration — procs,
// executor kind — is server-global.)
type coalesceKey struct {
	fp    uint64
	n     int
	lower bool
	class Class
}

// SolveInfo describes how one request was executed.
type SolveInfo struct {
	Fused    int    // requests that shared the executor pass (>= 1)
	Width    int    // total right-hand sides in the pass
	Strategy string // executor strategy the pass ran under (planner-chosen for "auto")
	Metrics  executor.Metrics
	// PlanNs/ExecNs are the pass's own latency split, measured on the
	// pass goroutine: plan resolution (the factor's bound plan and, on
	// its first solve, the build) and the executor run itself. A traced
	// request subtracts them from its submit round-trip to expose pure
	// coalescing wait.
	PlanNs int64
	ExecNs int64
}

// coReq is one request waiting in (or executed by) the coalescer.
type coReq struct {
	// pin is the request's one hold on its resident factor (and, through
	// it, on the plan the pass solves with); Submit takes it over.
	pin      factorPin
	class    Class // priority class; part of the coalescing key
	xs, bs   [][]float64
	deadline time.Time // caller ctx deadline; zero = none
	group    *coGroup  // the pending group this request joined, if any
	// held is the request arena's pass reference (xs lives in it). It and
	// pin are released exactly once, when the pass wakes the request or
	// the request withdraws — whichever happens — so a detached fused pass
	// can keep solving into xs after the submitting handler has returned.
	held *arena.Arena
	done chan struct{}
	err  error
	info SolveInfo
	solo [1]*coReq // member-slice scratch for the solo path
	// Observability (optional, both nil-safe): lc receives per-level
	// executor timing when this request was chosen for level sampling
	// (honored on the single-member fast path — the warm shape level
	// timing exists for; group passes run unclocked); bstats
	// receives the plan build-cost breakdown when this request's pass
	// triggers a build.
	lc     trisolve.LevelClock
	bstats *trisolve.BuildStats
}

// soloScratch returns a one-member slice over the request's own scratch
// array, so the solo path builds its member list without allocating.
func (r *coReq) soloScratch() []*coReq {
	r.solo[0] = r
	return r.solo[:]
}

// factor returns the pinned factor; valid until release.
func (r *coReq) factor() *residentFactor { return r.pin.Value() }

// release drops the factor pin and the arena's pass reference, once.
func (r *coReq) release() {
	_ = r.pin.Release()
	if r.held != nil {
		a := r.held
		r.held = nil
		a.Release()
	}
}

// coGroup is a window of requests accumulating toward one fused pass.
type coGroup struct {
	key     coalesceKey
	members []*coReq
	width   int // total RHS across members
	timer   *time.Timer
	sealed  bool // removed from pending; execution is scheduled
}

// CoalesceStats is a point-in-time snapshot of coalescer effectiveness.
type CoalesceStats struct {
	Requests uint64  `json:"requests"`  // requests submitted
	Passes   uint64  `json:"passes"`    // executor passes run
	Fused    uint64  `json:"fused"`     // requests that shared a pass with another
	Solo     uint64  `json:"solo"`      // requests that ran alone
	Rate     float64 `json:"rate"`      // Fused / Requests
	MaxFused uint64  `json:"max_fused"` // largest request count in one pass
}

// Coalescer fuses structurally identical solve requests into shared
// executor passes. A window of zero disables fusion: every request runs
// solo, synchronously, under its own context.
//
// The window is an upper bound, not a tax: when an inflight hook is
// installed (see NewCoalescer) and every admitted request is already
// parked in a window or blocked on a sealed pass, no request remains
// that could still join — so all pending windows seal immediately
// instead of stalling closed-loop clients for the full window.
type Coalescer struct {
	// windows holds the per-class base batching windows (batch, latency).
	// They are upper bounds: windowFor shrinks a class's effective window
	// toward zero when its observed arrival rate could not fill a pass.
	windows  [numClasses]time.Duration
	arrival  [numClasses]arrivalRate
	maxWidth int // cap on total RHS per fused pass
	procs    int
	kind     string // executor kind registry name, or KindAuto for planner choice
	cache    *trisolve.PlanCache
	baseCtx  context.Context // bounds fused passes; solo passes use the request context
	inflight func() int64    // admitted solve requests (nil disables early sealing)

	mu       sync.Mutex
	pending  map[coalesceKey]*coGroup
	running  map[coalesceKey]int // executor passes in flight, by key
	parked   int                 // requests waiting in unsealed windows
	blocked  int                 // requests waiting on sealed passes
	draining bool
	wg       sync.WaitGroup // outstanding fused-pass goroutines

	// planHits counts passes that found their factor's plan already
	// bound — plan lookups answered without the plan cache, which the
	// server adds to the cache's own hits.
	planHits atomic.Uint64

	requests *Counter
	passes   *Counter
	fusedC   *Counter
	soloC    *Counter
	widthH   *Histogram
	maxFused *Gauge
}

// NewCoalescer returns a coalescer executing over cache with the given
// plan shape; kind is an executor registry name, or KindAuto to let the
// planner choose per structure. Metrics are registered on reg under the
// loops_coalesce_* families; reg may not be nil. inflight, when non-nil,
// reports the solve requests currently admitted by the caller and
// enables quiescence-based early sealing.
// latencyWindow is the batching window for latency-class requests
// (usually a small fraction of window; <= 0 disables latency-class
// coalescing entirely).
func NewCoalescer(baseCtx context.Context, cache *trisolve.PlanCache, reg *Registry,
	window, latencyWindow time.Duration, maxWidth, procs int, kind string, inflight func() int64) *Coalescer {
	if maxWidth < 1 {
		maxWidth = 1
	}
	c := &Coalescer{
		windows:  [numClasses]time.Duration{ClassBatch: window, ClassLatency: latencyWindow},
		maxWidth: maxWidth,
		procs:    procs,
		kind:     kind,
		cache:    cache,
		baseCtx:  baseCtx,
		inflight: inflight,
		pending:  make(map[coalesceKey]*coGroup),
		running:  make(map[coalesceKey]int),
		requests: reg.Counter("loops_coalesce_requests_total", "solve requests submitted to the coalescer", nil),
		passes:   reg.Counter("loops_coalesce_passes_total", "fused executor passes run", nil),
		fusedC:   reg.Counter("loops_coalesce_fused_requests_total", "requests that shared an executor pass", nil),
		soloC:    reg.Counter("loops_coalesce_solo_requests_total", "requests that ran alone", nil),
		widthH:   reg.Histogram("loops_coalesce_pass_width", "right-hand sides per executor pass", nil, WidthBuckets),
		maxFused: reg.Gauge("loops_coalesce_max_fused", "largest request count fused into one pass", nil),
	}
	for cl := 0; cl < numClasses; cl++ {
		cl := Class(cl)
		reg.GaugeFunc("loops_coalesce_window_ns", "effective load-adaptive coalescing window by class",
			Labels{{"class", cl.String()}}, func() float64 { return float64(c.windowFor(cl)) })
	}
	return c
}

// arrivalRate tracks one class's inter-arrival interval as a lock-free
// EWMA (0.75 old / 0.25 new). Racing stores lose an update, never
// corrupt the estimate — it is an adaptation signal, not accounting.
type arrivalRate struct {
	lastNs atomic.Int64 // UnixNano of the previous arrival; 0 = none yet
	ivNs   atomic.Int64 // EWMA inter-arrival nanoseconds; 0 = no signal
}

func (r *arrivalRate) note(nowNs int64) {
	last := r.lastNs.Swap(nowNs)
	if last == 0 {
		return
	}
	iv := nowNs - last
	if iv < 0 {
		return
	}
	old := r.ivNs.Load()
	if old == 0 {
		r.ivNs.Store(iv)
		return
	}
	r.ivNs.Store(old - old/4 + iv/4)
}

// windowFor returns class's effective batching window: the configured
// base, shrunk when the observed arrival rate could not fill a pass
// within it. expected = base/interval estimates the arrivals one full
// window would collect; at >= 2 the full window pays for itself, at
// <= 0.5 waiting buys nothing (run solo), and the ramp between is
// linear. Before any arrival signal exists the base applies — a burst
// after idle still coalesces.
func (c *Coalescer) windowFor(class Class) time.Duration {
	base := c.windows[class]
	if base <= 0 {
		return 0
	}
	iv := c.arrival[class].ivNs.Load()
	if iv <= 0 {
		return base
	}
	expected := float64(base) / float64(iv)
	switch {
	case expected >= 2:
		return base
	case expected <= 0.5:
		return 0
	}
	return time.Duration(float64(base) * (expected - 0.5) / 1.5)
}

// planOpts returns the plan-cache options the coalescer's passes use:
// the configured processor count, plus a pinned executor kind unless the
// coalescer runs in KindAuto mode (then the planner decides per
// structure and the decision is recorded in the plan cache's stats). An
// unresolvable kind name is an error — Server.New validates its config
// up front, but a directly constructed Coalescer must not silently fall
// back to adaptive planning on a typo.
func (c *Coalescer) planOpts() ([]trisolve.Option, error) {
	opts := []trisolve.Option{trisolve.WithProcs(c.procs)}
	if c.kind == KindAuto {
		return opts, nil
	}
	k, err := executor.KindByName(c.kind)
	if err != nil {
		return nil, err
	}
	return append(opts, trisolve.WithKind(k)), nil
}

// Submit solves req's pinned factor against the right-hand sides req.bs,
// possibly fused with concurrent structurally identical requests of the
// same class, and lands the solutions in req.xs — the caller owns req and
// both row sets (the server points xs into the response body so the
// solver writes results in place). Submit takes over req.pin and, when
// set, req.held (the request arena's pass reference) — see coReq. ctx
// cancellation while the request is still waiting in its window
// withdraws it without disturbing the other waiters; once the fused pass
// has started the pass runs to completion (under the coalescer's base
// context) but the caller still returns promptly with ctx.Err(). On the
// warm solo path this performs no heap allocations.
func (c *Coalescer) Submit(ctx context.Context, req *coReq) (SolveInfo, error) {
	c.requests.Add(uint64(1))
	f := req.factor()
	key := coalesceKey{fp: f.l.StructureFingerprint(), n: f.l.N, lower: f.lower, class: req.class}
	if d, ok := ctx.Deadline(); ok {
		req.deadline = d
	}
	c.arrival[req.class].note(time.Now().UnixNano())
	window := c.windowFor(req.class)

	if window <= 0 || c.maxWidth <= 1 || len(req.bs) >= c.maxWidth {
		// Fusion disabled for this class (configured off, or the arrival
		// rate says waiting buys nothing) or the request alone fills a
		// pass: run solo, synchronously, with the request's own deadline
		// driving RunCtx.
		return c.submitSolo(ctx, key, req)
	}

	c.mu.Lock()
	if c.draining {
		c.mu.Unlock()
		return c.submitSolo(ctx, key, req)
	}
	// Window path: the request parks and may be woken by a detached
	// pass goroutine, which needs a wake channel.
	req.done = make(chan struct{})
	g := c.pending[key]
	if g != nil && g.width+len(req.bs) > c.maxWidth {
		// Width-cap overflow: seal the full window now (it executes as
		// its own pass) and start a fresh one for this request.
		c.sealLocked(g)
		g = nil
	}
	if g == nil {
		g = &coGroup{key: key}
		c.pending[key] = g
		// The window in force at group creation rules the whole group:
		// later arrivals shorten future groups, not this one.
		g.timer = time.AfterFunc(window, func() { c.flushGroup(g) })
	}
	g.members = append(g.members, req)
	g.width += len(req.bs)
	req.group = g
	c.parked++
	if g.width >= c.maxWidth {
		c.sealLocked(g)
	} else {
		c.sealIfQuiescentLocked()
	}
	c.mu.Unlock()

	select {
	case <-req.done:
		return req.info, req.err
	case <-ctx.Done():
		c.withdraw(req)
		select {
		case <-req.done:
			// The pass had already started (or finished) when the context
			// fired; the results are valid, so return them.
			return req.info, req.err
		default:
			return SolveInfo{}, ctx.Err()
		}
	}
}

// submitSolo runs req as its own synchronous pass, counted as blocked so
// quiescence detection knows it can no longer join a window.
func (c *Coalescer) submitSolo(ctx context.Context, key coalesceKey, req *coReq) (SolveInfo, error) {
	c.mu.Lock()
	c.blocked++
	c.running[key]++
	c.sealIfQuiescentLocked()
	c.mu.Unlock()
	c.execute(ctx, req.soloScratch())
	c.passDone(key, 1)
	return req.info, req.err
}

// passDone retires one finished pass for key: its waiters are no
// longer blocked, and — the group-commit chain — a window that filled up
// behind the pass seals now, fusing everything that accumulated while
// the key was busy.
func (c *Coalescer) passDone(key coalesceKey, members int) {
	c.mu.Lock()
	c.blocked -= members
	c.running[key]--
	if c.running[key] <= 0 {
		delete(c.running, key)
		if g, ok := c.pending[key]; ok {
			c.sealLocked(g)
		}
	}
	c.sealIfQuiescentLocked()
	c.mu.Unlock()
}

// withdraw removes req from its pending group if the group has not been
// sealed yet; the remaining waiters are untouched (an emptied group is
// dissolved so its timer does not fire a zero-member pass).
func (c *Coalescer) withdraw(req *coReq) {
	c.mu.Lock()
	g := req.group
	if g == nil || g.sealed {
		c.mu.Unlock()
		return
	}
	for i, m := range g.members {
		if m == req {
			g.members = append(g.members[:i], g.members[i+1:]...)
			g.width -= len(req.bs)
			c.parked--
			break
		}
	}
	if len(g.members) == 0 {
		g.sealed = true
		g.timer.Stop()
		delete(c.pending, g.key)
	}
	c.mu.Unlock()
	// Unlinked under c.mu before any seal, so the pass will never see this
	// request: its pin and arena reference are dropped here instead.
	req.release()
}

// sealIfQuiescentLocked seals pending windows once no admitted request
// remains outside one: with the caller's inflight count fully accounted
// for by parked and pass-blocked requests, nobody is left who could
// still join, and waiting out the timers would only add latency. Windows
// whose key has a pass in flight are held back — arrivals keep
// accumulating behind the running pass (a scheduled pass would only
// serialize on the bound plan anyway) and seal together when it
// completes, the group-commit chain in passDone. This pairing is what makes the window
// an upper bound for open traffic without stalling closed-loop clients.
// Callers hold c.mu.
func (c *Coalescer) sealIfQuiescentLocked() {
	if c.inflight == nil || c.parked == 0 {
		return
	}
	if int64(c.parked+c.blocked) < c.inflight() {
		return
	}
	groups := make([]*coGroup, 0, len(c.pending))
	for _, g := range c.pending {
		if c.running[g.key] == 0 {
			groups = append(groups, g)
		}
	}
	for _, g := range groups {
		c.sealLocked(g)
	}
}

// Nudge re-evaluates the quiescence condition. The server calls it as
// admitted requests leave, so parked windows never outlive the traffic
// that could have joined them.
func (c *Coalescer) Nudge() {
	c.mu.Lock()
	c.sealIfQuiescentLocked()
	c.mu.Unlock()
}

// flushGroup seals g when its window timer fires.
func (c *Coalescer) flushGroup(g *coGroup) {
	c.mu.Lock()
	if !g.sealed {
		c.sealLocked(g)
	}
	c.mu.Unlock()
}

// sealLocked removes g from the pending set and schedules its pass; its
// members move from parked to pass-blocked until the pass completes.
// Callers hold c.mu.
func (c *Coalescer) sealLocked(g *coGroup) {
	g.sealed = true
	g.timer.Stop()
	delete(c.pending, g.key)
	members := g.members
	c.parked -= len(members)
	c.blocked += len(members)
	c.running[g.key]++
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		ctx, cancel := c.passCtx(members)
		defer cancel()
		c.execute(ctx, members)
		c.passDone(g.key, len(members))
	}()
}

// passCtx bounds a fused pass by the slackest member deadline (every
// member will have returned by then, so running longer only holds the
// shared worker set); a member with no deadline leaves the pass unbounded.
func (c *Coalescer) passCtx(members []*coReq) (context.Context, context.CancelFunc) {
	var latest time.Time
	for _, m := range members {
		if m.deadline.IsZero() {
			return c.baseCtx, func() {}
		}
		if m.deadline.After(latest) {
			latest = m.deadline
		}
	}
	return context.WithDeadline(c.baseCtx, latest)
}

// execute runs one fused (or solo) pass for members through the first
// member's factor plan — every member holds a pin on a factor of that
// structure, so the plan's skeleton cannot close under the pass; at the
// structure's first sight the plan is uninspected and the pass is the
// sequential loop — and wakes every waiter. A lone member solves
// through the plan's bound solver: no group assembly, no per-call body
// closure, no allocation (the stage stamps are two clock reads); that is
// the shape of the warm fp-resubmission path. Fused members' done channels are closed even on
// error, each carrying the pass error.
func (c *Coalescer) execute(ctx context.Context, members []*coReq) {
	var metrics executor.Metrics
	strategy := ""
	width := 0
	// The first member carrying a build-stats sink receives the pass's
	// plan build-cost breakdown (filled only when the plan is built now).
	var bstats *trisolve.BuildStats
	for _, m := range members {
		width += len(m.bs)
		if bstats == nil {
			bstats = m.bstats
		}
	}
	m := members[0]
	var execNs int64
	t0 := time.Now()
	plan, err := m.factor().plan(c, bstats)
	t1 := time.Now()
	if err == nil {
		strategy = plan.Kind.String()
		switch {
		case len(members) > 1:
			metrics, err = plan.SolveGroupCtx(ctx, groupProblems(members))
		case m.lc != nil:
			metrics, err = plan.Bind().SolveTimed(ctx, m.xs, m.bs, m.lc)
		default:
			metrics, err = plan.Bind().Solve(ctx, m.xs, m.bs)
		}
		execNs = time.Since(t1).Nanoseconds()
	}

	c.passes.Inc()
	c.widthH.Observe(float64(width))
	if len(members) > 1 {
		c.fusedC.Add(uint64(len(members)))
		c.maxFused.Max(int64(len(members)))
	} else {
		c.soloC.Inc()
	}
	info := SolveInfo{Fused: len(members), Width: width, Strategy: strategy, Metrics: metrics,
		PlanNs: t1.Sub(t0).Nanoseconds(), ExecNs: execNs}
	for _, m := range members {
		m.err = err
		m.info = info
		m.release()
		if m.done != nil {
			close(m.done)
		}
	}
}

// groupProblems merges the members of a fused pass into BatchProblems by
// factor identity: members that reference the same factor object — the
// normal case when clients resubmit by fingerprint — become one problem,
// so the pass reads each row's values once for all their right-hand
// sides (the cross-request extension of SolveBatch's row-sharing).
func groupProblems(members []*coReq) []trisolve.BatchProblem {
	group := make([]trisolve.BatchProblem, 0, len(members))
	byFactor := make(map[*sparse.CSR]int, len(members))
	for _, m := range members {
		l := m.factor().l
		if j, ok := byFactor[l]; ok {
			group[j].Xs = append(group[j].Xs, m.xs...)
			group[j].Bs = append(group[j].Bs, m.bs...)
		} else {
			byFactor[l] = len(group)
			group = append(group, trisolve.BatchProblem{
				L:  l,
				Xs: append(make([][]float64, 0, len(m.xs)), m.xs...),
				Bs: append(make([][]float64, 0, len(m.bs)), m.bs...),
			})
		}
	}
	return group
}

// Flush seals every pending window immediately. It is called on drain so
// accepted requests finish without waiting out their windows.
func (c *Coalescer) Flush() {
	c.mu.Lock()
	groups := make([]*coGroup, 0, len(c.pending))
	for _, g := range c.pending {
		groups = append(groups, g)
	}
	for _, g := range groups {
		c.sealLocked(g)
	}
	c.mu.Unlock()
}

// BeginDrain routes subsequent Submits to solo passes and flushes every
// pending window, so requests already accepted stop waiting for traffic
// that will never come.
func (c *Coalescer) BeginDrain() {
	c.mu.Lock()
	c.draining = true
	c.mu.Unlock()
	c.Flush()
}

// Drain is BeginDrain plus a wait for every fused pass to finish.
func (c *Coalescer) Drain() {
	c.BeginDrain()
	c.wg.Wait()
}

// DrainCtx is Drain bounded by ctx: it returns ctx.Err() if passes are
// still running at the deadline (the caller can then cancel the
// coalescer's base context to abort them and Drain again).
func (c *Coalescer) DrainCtx(ctx context.Context) error {
	c.BeginDrain()
	done := make(chan struct{})
	go func() {
		c.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Stats returns a snapshot of the coalescer counters.
func (c *Coalescer) Stats() CoalesceStats {
	s := CoalesceStats{
		Requests: c.requests.Value(),
		Passes:   c.passes.Value(),
		Fused:    c.fusedC.Value(),
		Solo:     c.soloC.Value(),
		MaxFused: uint64(c.maxFused.Value()),
	}
	if s.Requests > 0 {
		s.Rate = float64(s.Fused) / float64(s.Requests)
	}
	return s
}
