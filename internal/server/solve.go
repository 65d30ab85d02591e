package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"sync"
	"time"

	"doconsider/internal/arena"
	"doconsider/internal/executor"
	"doconsider/internal/obs"
	"doconsider/internal/plancache"
	"doconsider/internal/sparse"
	"doconsider/internal/trisolve"
)

// The solve pipeline. POST /v1/trisolve speaks two wire formats — JSON
// and DCWF binary frames — behind one pipeline: the HTTP edge
// (handleTrisolve) picks the codec from the Content-Type, admits the
// request and reads its body into a pooled request arena; solve does the
// rest the same way for both, calling the codec only to decode, to place
// the solution rows in the arena and to render the response around what
// the solver wrote there. Statuses, tracing, tenant accounting and the
// timeout rule are therefore the same on both wires by construction.
// Every request solves in its own handler, through its resident factor's
// bound plan, on a pass record of its own (trisolve.Plan): concurrent
// requests on one plan run at once, each with the helpers idle when it
// dispatches. A warm fp-resubmission frame — the shape this server is
// built around — performs zero heap allocations
// from body bytes to response bytes (the gated
// BenchmarkBinaryRequest/fp-warm pins this; net/http around it, and
// encoding/json inside the JSON codec, allocate as they always do).

// reqState is the pooled per-request state: the request arena plus
// reusable decode scratch. sync.Pool recycles the struct; the arena
// pool recycles the memory.
type reqState struct {
	arena *arena.Arena
	codec *codec
	req   wireRequest
	sects []frameSection
	// xs are the solution rows the codec placed (c.begin) and the solver
	// writes.
	xs [][]float64
	// out and lo are the codec's response placement between its begin
	// and finish: the arena bytes the solution rows view, and the frame
	// layout around them (DCWF only).
	out []byte
	lo  respLayout
	// Trace state rides in the pooled struct so stamping and level
	// sampling add no per-request allocations on the warm path.
	tr     obs.Trace
	lc     obs.LevelClock
	bstats trisolve.BuildStats
	// Tenant attribution: the header-resolved identity admission used,
	// overridden by a frame's tenant section once decoded. Pointer reads
	// and counter increments only — no allocation on the warm path.
	tenant *tenantState
	class  Class
}

// getReqState pairs pooled scratch with a fresh request arena and stamps
// it with what the edge knows before the body is read: the codec, the
// tenant identity and the instant the request's trace starts.
func (s *Server) getReqState(c *codec, ten *tenantState, class Class, t0 time.Time) *reqState {
	st := s.reqPool.Get().(*reqState)
	st.arena = s.arenas.Get()
	st.codec, st.tenant, st.class = c, ten, class
	st.tr.Begin(c.wire, t0)
	return st
}

// putReqState releases the request arena and recycles the scratch.
func (s *Server) putReqState(st *reqState) {
	st.arena.Release()
	*st = reqState{sects: st.sects}
	s.reqPool.Put(st)
}

// readBody reads a request body of either wire into arena memory: one
// ReadFull into an exact-size buffer when Content-Length is declared (so
// a declared length is reserved before its bytes arrive — admission
// bounds how many requests can hold one), a geometric-growth loop
// otherwise, both bounded by MaxFrameBytes. The loop's blocks stop at
// MaxFrameBytes; a full buffer at the limit reads one probe byte to tell
// a body that ends there from an oversize one.
func readBody(r *http.Request, a *arena.Arena) ([]byte, error) {
	if r.ContentLength > MaxFrameBytes {
		return nil, fmt.Errorf("body has %d bytes, limit %d", r.ContentLength, MaxFrameBytes)
	}
	if r.ContentLength >= 0 {
		buf := a.Bytes(int(r.ContentLength))
		if _, err := io.ReadFull(r.Body, buf); err != nil {
			return nil, err
		}
		return buf, nil
	}
	buf := a.Bytes(64 << 10)
	total := 0
	for {
		if total == len(buf) {
			if total == MaxFrameBytes {
				switch _, err := io.ReadFull(r.Body, a.Bytes(1)); err {
				case io.EOF:
					return buf, nil
				case nil:
					return nil, fmt.Errorf("body exceeds %d bytes", MaxFrameBytes)
				default:
					return nil, err
				}
			}
			next := a.Bytes(min(2*len(buf), MaxFrameBytes))
			copy(next, buf[:total])
			buf = next
		}
		n, err := r.Body.Read(buf[total:])
		total += n
		if err == io.EOF {
			return buf[:total], nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// solve executes one request end to end — decode, factor resolution,
// solve, response encode — through st.codec and returns the response
// body (a frame lives in st's arena, valid until putReqState; JSON and
// rejections on the heap) with its HTTP status. ctx carries the deadline;
// readErr is the transport's failure to deliver body, answered 504 when
// the body missed the deadline and otherwise as the decode failure it
// is. Every outcome, errors included, is traced under the request's
// trace ID and charged to its tenant. This is the boundary
// the 0 allocs/op gate measures: on a warm fp-resubmission frame (factor
// resident with its plan bound, arena pooled, no timeout section) the
// call performs no heap allocations — the factor pin, trace publication
// and tenant accounting included.
func (s *Server) solve(ctx context.Context, body []byte, readErr error, st *reqState) ([]byte, int) {
	out, status := s.solveStages(ctx, body, readErr, st)
	s.tracer.publish(&st.tr, obs.StageEncode, status)
	st.tenant.observe(st.class, st.tr.TotalNs)
	return out, status
}

func (s *Server) solveStages(ctx context.Context, body []byte, err error, st *reqState) ([]byte, int) {
	q, c := &st.req, st.codec
	reject := func(status int, msg string) ([]byte, int) {
		return c.reject(status, msg, st.tr.ID), status
	}
	if err == nil {
		err = c.decode(body, st)
	}
	if len(q.tenant) > 0 {
		// The frame names its tenant: authoritative for attribution (the
		// header the handler resolved drove admission, which is already
		// done). A known tenant resolves with no allocation.
		st.tenant = s.tenants.resolveBytes(q.tenant)
		st.class = q.class
	}
	st.tr.SetTenant(st.tenant.name, byte(st.class))
	if st.tr.ID = q.traceID; st.tr.ID == 0 {
		st.tr.ID = s.tracer.nextID()
	}
	if errors.Is(err, os.ErrDeadlineExceeded) {
		// The body did not arrive before the request's deadline.
		return reject(http.StatusGatewayTimeout, "request body not received before the deadline")
	}
	if err != nil {
		return reject(http.StatusBadRequest, "bad request body: "+err.Error())
	}
	st.tr.Lap(obs.StageDecode)
	pin, fp, err := s.resolveFactor(q)
	if errors.Is(err, errUnknownFactor) {
		return reject(http.StatusNotFound, err.Error())
	}
	if err != nil {
		return reject(http.StatusBadRequest, err.Error())
	}
	// The request's one pin: everything it touches below — skeleton,
	// bound solver — stays open while the factor is pinned.
	defer pin.Release()
	f := pin.Value()
	n := f.l.N
	st.tr.Lap(obs.StageFactor)
	if err := validateRHS(q.rhs, n, s.cfg.MaxBatch); err != nil {
		return reject(http.StatusBadRequest, err.Error())
	}
	st.tr.Lap(obs.StageDecode)
	ctx, cancel, err := withRequestTimeout(ctx, q.timeoutMs)
	if err != nil {
		return reject(http.StatusBadRequest, err.Error())
	}
	defer cancel()

	st.xs = c.begin(st, len(q.rhs), n)
	var lc trisolve.LevelClock
	if s.tracer.sampler.Sample() {
		// Level sampling: the pooled clock is installed for this request
		// only; the timed executor body is memoized per solver, so even a
		// sample-every-request configuration allocates nothing warm.
		st.lc.Reset()
		lc = &st.lc
	}
	st.tr.Lap(obs.StageEncode)
	info, err := s.solveWith(ctx, f, st, lc)
	if err != nil {
		return reject(solveErrorStatus(err))
	}
	st.tr.SetInfo(n, len(q.rhs), info.Fused, info.Width, info.Strategy)
	if lc != nil {
		st.lc.FillTrace(&st.tr)
	}
	return c.finish(st, fp, info)
}

// SolveInfo describes how one request was executed. Every request is
// its own pass, so Fused is 1 and Width is the request's own number of
// right-hand sides; both stay on the wire.
type SolveInfo struct {
	Fused    int    // requests that shared the executor pass
	Width    int    // right-hand sides in the pass
	Strategy string // executor strategy the pass ran under (planner-chosen for "auto")
	Metrics  executor.Metrics
}

// solveWith solves st's right-hand sides into st.xs through f's plan —
// bound, or at the structure's first sight the uninspected sequential
// loop — under ctx, and charges the solve to the trace's plan, repair and
// execute stages. lc, when non-nil, receives per-level executor timing.
// The warm path allocates nothing.
func (s *Server) solveWith(ctx context.Context, f *residentFactor, st *reqState, lc trisolve.LevelClock) (SolveInfo, error) {
	t0 := time.Now()
	plan, err := f.plan(s, &st.bstats)
	planNs := time.Since(t0).Nanoseconds()
	var m executor.Metrics
	if err == nil {
		m, err = plan.Bind().SolveTimed(ctx, st.xs, st.req.rhs, lc)
	}
	st.tr.AttributeSubmit(planNs, st.bstats.RepairNs)
	if err != nil {
		return SolveInfo{}, err
	}
	return SolveInfo{Fused: 1, Width: len(st.xs), Strategy: plan.Kind.String(), Metrics: m}, nil
}

// withRequestTimeout applies a request's own timeout (milliseconds, from
// either wire; 0 = none) to ctx — the one timeout rule. ctx already
// carries the transport's Config.DefaultTimeout and a derived context
// can only expire sooner, so a request timeout tightens the default and
// never extends it. A negative timeout is a client bug (an
// already-expired deadline): silently ignoring it would run the solve
// the caller thinks it cancelled, so it is rejected.
func withRequestTimeout(ctx context.Context, ms int) (context.Context, context.CancelFunc, error) {
	switch {
	case ms < 0:
		return nil, nil, fmt.Errorf("timeout must not be negative, got %dms", ms)
	case ms == 0:
		return ctx, func() {}, nil
	}
	// Clamp before converting: a huge timeout would overflow the int64
	// nanosecond Duration into a negative, already-expired deadline.
	const maxTimeoutMs = 24 * 60 * 60 * 1000
	if ms > maxTimeoutMs {
		ms = maxTimeoutMs
	}
	ctx, cancel := context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
	return ctx, cancel, nil
}

// solveErrorStatus maps a solve error to its HTTP reply.
func solveErrorStatus(err error) (int, string) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "solve deadline exceeded"
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable, "request cancelled"
	default:
		return http.StatusInternalServerError, err.Error()
	}
}

// residentFactor is the factor cache's value and the serving stack's one
// unit of residency: a validated factor, the solve direction it was
// validated for and — once its structure has been seen twice — the
// plan bound to it, leased from the plan cache. A request pins it once,
// at factor resolution, and everything below rides that pin: Close,
// which the factor cache runs only after the factor is evicted and its
// last pin released, is what drops the plan lease, so a pinned factor's
// skeleton cannot leave the plan cache under a running solve. l, lower
// and the drift hint never change, which is what lets the shard handlers
// read them unpinned.
type residentFactor struct {
	l     *sparse.CSR
	lower bool
	// The plan-cache repair ancestor of a factor created by base_fp+edits:
	// the base's structure fingerprint and the matrix rows the edits
	// touched (nil for a shipped factor), used by the plan's one build.
	baseStructFp uint64
	editRows     []int32

	mu sync.Mutex
	p  *trisolve.Plan
}

// factorPin is a request's hold on its resident factor.
type factorPin = plancache.Handle[uint64, *residentFactor]

// plan returns the factor's bound plan, leasing it from s's plan cache
// when the factor holds none; a failed build is not remembered, so the
// next solve retries it. Every call that finds the plan held is a plan
// lookup the inspector did not run for and is counted as one. The plan
// cache answers the first sight of a structure with an uninspected plan
// (the sequential loop, see trisolve.PlanCache): the factor does not keep
// it, so its next solve is the second sight that builds the plan it then
// holds. An uninspected plan leases nothing, and the solve simply drops
// it. The caller holds a pin on f. bs, when non-nil, receives the
// build-cost breakdown if this call builds.
func (f *residentFactor) plan(s *Server, bs *trisolve.BuildStats) (*trisolve.Plan, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.p != nil {
		s.planHits.Add(1)
		return f.p, nil
	}
	opts := slices.Clip(s.planOpts)
	if f.editRows != nil {
		opts = append(opts, trisolve.WithDriftHint(f.baseStructFp, f.editRows))
	}
	if bs != nil {
		opts = append(opts, trisolve.WithBuildStats(bs))
	}
	p, err := s.cache.Get(f.l, f.lower, opts...)
	if err != nil {
		return nil, err
	}
	if p.Wf != nil {
		f.p = p
	}
	return p, nil
}

// Close releases the plan lease; the skeleton closes with its last one.
func (f *residentFactor) Close() error {
	f.mu.Lock()
	p := f.p
	f.p = nil
	f.mu.Unlock()
	if p == nil {
		return nil
	}
	return p.Close()
}

// resolveFactor materializes the request's factor and returns it pinned
// (the caller owns the pin), with its content fingerprint: from the wire
// matrix (validating it and registering it in the by-fingerprint cache),
// from the cache when the request carries just a fingerprint, or by
// applying a drift edit set to a cached base factor (base_fp + edits).
func (s *Server) resolveFactor(q *wireRequest) (factorPin, uint64, error) {
	inline := q.n != 0 || q.rowPtr != nil || q.colIdx != nil || q.val != nil
	forms := 0
	for _, has := range [...]bool{q.hasFp, q.hasBaseFp, inline} {
		if has {
			forms++
		}
	}
	if forms > 1 {
		return factorPin{}, 0, errors.New("request carries more than one of: a factor, fp, base_fp; send one")
	}
	if len(q.edits) > 0 && !q.hasBaseFp {
		return factorPin{}, 0, errors.New("edits require base_fp")
	}
	switch {
	case q.hasFp:
		pin, err := s.factorByFp(q.fp, q.lower)
		return pin, q.fp, err
	case q.hasBaseFp:
		return s.resolveDrifted(q)
	case !inline:
		return factorPin{}, 0, errors.New("request carries no factor (inline matrix, fp or base_fp)")
	}
	l := sparse.View(q.n, q.rowPtr, q.colIdx, q.val)
	if err := validateFactor(l, q.lower); err != nil {
		return factorPin{}, 0, err
	}
	if q.borrowed {
		// Validated on the zero-copy views; the cache outlives the request
		// arena, so the factor leaves it here.
		l = l.Clone()
	}
	pin, fp := s.registerFactor(&residentFactor{l: l, lower: q.lower})
	return pin, fp, nil
}

// factorByFp is the one by-fingerprint read of the factor cache: a hit
// counts, refreshes the entry's LRU position, pins it and allocates
// nothing.
func (s *Server) factorByFp(fp uint64, lower bool) (factorPin, error) {
	pin, err := s.factors.Get(fp, nil)
	if err != nil {
		return factorPin{}, errUnknownFactor
	}
	if f := pin.Value(); f.lower != lower {
		_ = pin.Release()
		return factorPin{}, fmt.Errorf("factor %016x was registered for lower=%v", fp, f.lower)
	}
	return pin, nil
}

// resolveDrifted materializes base_fp + edits: the cached base factor
// with the edit set applied, validated on the edited rows only (the rest
// is the already-validated base), registered under its own fingerprint
// with the base's structure and the edited rows as its plan-repair hint,
// so its plan is repaired from the base's instead of re-inspected.
func (s *Server) resolveDrifted(q *wireRequest) (factorPin, uint64, error) {
	if len(q.edits) == 0 {
		return factorPin{}, 0, errors.New("base_fp requires edits (use fp to resubmit unchanged)")
	}
	base, err := s.factorByFp(q.baseFp, q.lower)
	if err != nil {
		return factorPin{}, 0, err
	}
	defer base.Release()
	bl := base.Value().l
	l, err := bl.ApplyRowEdits(q.edits)
	if err != nil {
		return factorPin{}, 0, err
	}
	rows := make([]int32, 0, len(q.edits))
	for _, e := range q.edits {
		rows = append(rows, e.Row)
	}
	if err := validateFactorRows(l, rows, q.lower); err != nil {
		return factorPin{}, 0, err
	}
	pin, fp := s.registerFactor(&residentFactor{l: l, lower: q.lower,
		baseStructFp: bl.StructureFingerprint(), editRows: rows})
	return pin, fp, nil
}

// registerFactor installs a validated, heap-owned factor in the
// by-fingerprint cache and returns the resident entry pinned (so
// concurrent identical requests share one value array and one plan)
// with its fingerprint. A factor that cannot be resident — the cache is
// closed because drain raced in, or its fingerprint is taken —
// is returned as a transient the pin owns: it solves like any other and
// its plan closes with the request.
func (s *Server) registerFactor(f *residentFactor) (factorPin, uint64) {
	fp := f.l.ContentFingerprint()
	pin, err := s.factors.Get(fp, func() (*residentFactor, error) { return f, nil })
	if err != nil {
		return s.factors.Own(f), fp
	}
	if r := pin.Value(); r != f && !sparse.Equal(f.l, r.l) {
		// 64-bit fingerprint collision: the resident entry is a different
		// matrix. Solve with the local copy — never a neighbor's numbers —
		// and return no fingerprint, since a by-reference resubmission
		// could not be told apart from the resident factor. The O(nnz)
		// equality check costs what the fingerprint already did.
		_ = pin.Release()
		return s.factors.Own(f), 0
	}
	return pin, fp
}
