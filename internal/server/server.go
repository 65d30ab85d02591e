// Package server turns the runtime into a network service: an HTTP/JSON
// API over the shared plan cache, with admission control, per-request
// deadlines, live Prometheus metrics and graceful drain. It is the
// serving story the ROADMAP's north star asks for — the
// inspector/executor amortization of the paper exercised end to end by
// many independent clients whose problems recur structurally.
//
// The service is multi-tenant: requests carry a tenant name and a
// priority class (latency or batch) via the X-Doconsider-Tenant header
// or the binary frame's tenant section. Admission is a weighted
// deficit-round-robin queue across tenants with latency-class priority
// and per-tenant concurrency quotas, and shedding is honest — 429/503
// responses derive Retry-After from the observed drain rate, echo the
// trace id, and are attributed per tenant in stats, metrics and traces.
//
// Every admitted request solves in its own handler, through its resident
// factor's bound plan, as one executor pass of its own: concurrent
// requests on one plan run at once, each on the shared workers idle when
// it dispatches.
//
// Endpoints:
//
//	POST /v1/trisolve  submit a CSR triangular factor + RHS batch
//	GET  /v1/stats     JSON snapshot: caches, admission, tenants, stages
//	GET  /healthz      liveness (503 while draining)
//	GET  /metrics      Prometheus text exposition
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"doconsider/internal/arena"
	"doconsider/internal/executor"
	"doconsider/internal/obs"
	"doconsider/internal/plancache"
	"doconsider/internal/sparse"
	"doconsider/internal/trisolve"
)

// KindAuto selects adaptive planning: each structure's executor strategy
// is chosen by the planner (internal/planner) from measured DAG features
// instead of being fixed for the whole server.
const KindAuto = "auto"

// AdmissionConfig bounds how much work the server accepts at once.
type AdmissionConfig struct {
	// MaxInFlight bounds concurrent solves (default 64). Requests beyond
	// it queue per tenant (see Queue) and shed with 429 when queues fill.
	MaxInFlight int
	// Queue bounds each tenant's per-class admission queue (default 16).
	// Negative disables queueing: saturation sheds immediately, the
	// pre-tenant behavior.
	Queue int
}

// CoalesceConfig once shaped the batch coalescer, which fused requests
// arriving within a window into one executor pass. Every request now
// solves in its own handler, so nothing reads it.
//
// Deprecated: Window has no effect.
type CoalesceConfig struct {
	Window time.Duration
}

// TenantConfig shapes per-tenant fairness and accounting.
type TenantConfig struct {
	// Weights sets per-tenant admission weights (deficit-round-robin
	// grants per rotation; default 1). Unlisted tenants weigh 1.
	Weights map[string]int
	// Quotas caps a tenant's concurrent admitted solves; unlisted
	// tenants get Quota. 0 means bounded only by MaxInFlight.
	Quotas map[string]int
	Quota  int
	// Max caps how many distinct tenants get their own accounting and
	// metric series (default 32); the rest share the "other" tenant.
	Max int
}

// Config shapes a Server. The zero value is usable: defaults are applied
// by New. Validate reports the first out-of-range field by name; New
// calls it, so constructing a server from bad values fails loudly rather
// than clamping.
type Config struct {
	Procs          int    // processors per plan (default runtime.GOMAXPROCS(0))
	Kind           string // executor kind registry name, or "auto" (default) for adaptive planning
	CacheCap       int    // plan-cache capacity in skeletons (default 16)
	FactorCacheCap int    // factors resubmittable by fingerprint (default 32)
	MaxBatch       int    // max RHS per request (default 64)
	// DefaultTimeout is the per-request deadline (default 30s), body read
	// included; a request's own timeout can tighten it, never extend it.
	DefaultTimeout time.Duration
	// TraceRing sizes the completed-trace ring served by /v1/trace
	// (default max(256, 4*MaxInFlight), rounded up to a power of two).
	TraceRing int
	// TraceSampleEvery picks every Nth solve request for per-wavefront-
	// level executor timing (default 64; negative disables level
	// sampling). Stage stamps and the trace ring are always on — sampling
	// gates only the per-level clock inside the executor hot loop.
	TraceSampleEvery int

	Admission AdmissionConfig
	// Deprecated: Coalesce has no effect; see CoalesceConfig.
	Coalesce CoalesceConfig
	Tenant   TenantConfig
}

// Validate checks every field against its documented range and returns
// an error naming the first offending field. Zero values are always
// valid (they take defaults); Validate rejects values that are neither a
// default request nor a legal setting.
func (c Config) Validate() error {
	switch {
	case c.Procs < 0:
		return fmt.Errorf("server: Config.Procs must be >= 0, got %d", c.Procs)
	case c.CacheCap < 0:
		return fmt.Errorf("server: Config.CacheCap must be >= 0, got %d", c.CacheCap)
	case c.FactorCacheCap < 0:
		return fmt.Errorf("server: Config.FactorCacheCap must be >= 0, got %d", c.FactorCacheCap)
	case c.MaxBatch < 0:
		return fmt.Errorf("server: Config.MaxBatch must be >= 0, got %d", c.MaxBatch)
	case c.DefaultTimeout < 0:
		return fmt.Errorf("server: Config.DefaultTimeout must be >= 0, got %s", c.DefaultTimeout)
	case c.TraceRing < 0:
		return fmt.Errorf("server: Config.TraceRing must be >= 0, got %d", c.TraceRing)
	case c.Admission.MaxInFlight < 0:
		return fmt.Errorf("server: Config.Admission.MaxInFlight must be >= 0, got %d", c.Admission.MaxInFlight)
	case c.Tenant.Quota < 0:
		return fmt.Errorf("server: Config.Tenant.Quota must be >= 0, got %d", c.Tenant.Quota)
	case c.Tenant.Max < 0:
		return fmt.Errorf("server: Config.Tenant.Max must be >= 0, got %d", c.Tenant.Max)
	}
	for name, w := range c.Tenant.Weights {
		if w < 0 {
			return fmt.Errorf("server: Config.Tenant.Weights[%q] must be >= 0, got %d", name, w)
		}
	}
	for name, q := range c.Tenant.Quotas {
		if q < 0 {
			return fmt.Errorf("server: Config.Tenant.Quotas[%q] must be >= 0, got %d", name, q)
		}
	}
	if c.Kind != "" && c.Kind != KindAuto {
		if _, err := executor.KindByName(c.Kind); err != nil {
			return fmt.Errorf("server: Config.Kind: %w", err)
		}
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.Procs <= 0 {
		c.Procs = runtime.GOMAXPROCS(0)
	}
	if c.Kind == "" {
		c.Kind = KindAuto
	}
	if c.CacheCap == 0 {
		c.CacheCap = 16
	}
	if c.FactorCacheCap == 0 {
		c.FactorCacheCap = 32
	}
	if c.Admission.Queue == 0 {
		c.Admission.Queue = 16
	}
	if c.Tenant.Max <= 0 {
		c.Tenant.Max = 32
	}
	if c.Admission.MaxInFlight <= 0 {
		c.Admission.MaxInFlight = 64
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.TraceSampleEvery == 0 {
		c.TraceSampleEvery = 64
	}
	return c
}

// SolveRequest is the POST /v1/trisolve wire format: a CSR triangular
// factor (structure + values) and a batch of right-hand sides.
//
// Recurring factors need not be re-shipped: every response carries the
// factor's content fingerprint, and a later request may send just that
// fingerprint in fp (omitting n/rowptr/colidx/val). The server keeps the
// FactorCacheCap most recent factors; an unknown or evicted fingerprint
// fails with 404 and the client falls back to a full request. For the
// structurally recurring traffic this server exists for, that turns the
// dominant per-request cost — parsing a few hundred KB of matrix JSON —
// into a cache lookup, leaving the executor pass as the work that counts.
//
// Drifting factors need not be re-shipped either: a request may carry
// base_fp (a previously returned fingerprint) plus edits — per-row
// nonzero insertions and deletions — and the server materializes the
// drifted factor from the cached base, registers it under its own
// fingerprint (returned as usual), and hands the edited rows to the plan
// cache as a repair hint, so the inspector output is repaired from the
// base plan instead of rebuilt. An unknown base_fp fails with 404 and
// the client falls back to a full request.
type SolveRequest struct {
	N         int              `json:"n,omitempty"`
	RowPtr    []int32          `json:"rowptr,omitempty"`
	ColIdx    []int32          `json:"colidx,omitempty"`
	Val       []float64        `json:"val,omitempty"`
	Fp        string           `json:"fp,omitempty"`      // resubmit a cached factor by fingerprint
	BaseFp    string           `json:"base_fp,omitempty"` // drift: edits apply to this cached factor
	Edits     []sparse.RowEdit `json:"edits,omitempty"`   // drift: per-row nonzero insertions/deletions
	Lower     *bool            `json:"lower,omitempty"`   // default true (forward solve)
	B         [][]float64      `json:"b,omitempty"`
	B64       [][]byte         `json:"b_b64,omitempty"` // RHS as base64 little-endian float64 packing
	TimeoutMs int              `json:"timeout_ms,omitempty"`
	TraceID   string           `json:"trace_id,omitempty"` // client-chosen trace ID (hex uint64), echoed in the response
	// Tenant/Class ride the X-Doconsider-Tenant header on the JSON wire
	// and a tenant section on the binary wire; they are client-side
	// fields for EncodeRequestFrame, never part of the JSON body.
	Tenant string `json:"-"`
	Class  string `json:"-"` // "latency" or "batch" (default)
}

// SolveResponse is the POST /v1/trisolve reply. Solutions come back in
// the encoding the request used: x for JSON-array right-hand sides,
// x_b64 for packed ones (a few hundred nanoseconds per value of JSON
// float parsing is the difference between the wire and the executor
// dominating a large solve).
type SolveResponse struct {
	X        [][]float64 `json:"x,omitempty"`
	X64      [][]byte    `json:"x_b64,omitempty"`
	Fp       string      `json:"fp"`       // content fingerprint for resubmission
	Fused    int         `json:"fused"`    // requests that shared the executor pass (always 1)
	Width    int         `json:"width"`    // RHS in the pass (the request's own)
	Strategy string      `json:"strategy"` // executor strategy of the pass (planner-chosen for "auto")
	Executed int64       `json:"executed"` // loop bodies run by the pass
	TraceID  string      `json:"trace_id"` // this request's trace ID (hex); look it up in /v1/trace
}

// Solutions returns the response's solution batch in either encoding.
func (r *SolveResponse) Solutions() ([][]float64, error) {
	if r.X != nil {
		return r.X, nil
	}
	xs := make([][]float64, len(r.X64))
	for j, raw := range r.X64 {
		var err error
		if xs[j], err = UnpackFloats(raw); err != nil {
			return nil, err
		}
	}
	return xs, nil
}

// PlannerStats reports what the adaptive planner decided for the
// structures this server has planned: per-strategy build counts and the
// most recent decisions with the features and predictions behind them.
type PlannerStats struct {
	Kind      string                    `json:"kind"`  // configured kind ("auto" = adaptive)
	Procs     int                       `json:"procs"` // processors per plan (Config.Procs or its default)
	Counts    map[string]uint64         `json:"counts"`
	Decisions []trisolve.DecisionRecord `json:"decisions"`
}

// StatsResponse is the GET /v1/stats reply.
type StatsResponse struct {
	UptimeSeconds float64         `json:"uptime_seconds"`
	InFlight      int64           `json:"in_flight"`
	Accepted      uint64          `json:"accepted"`
	Shed          uint64          `json:"shed"`
	Draining      bool            `json:"draining"`
	PlanCache     plancache.Stats `json:"plan_cache"`
	CacheHitRate  float64         `json:"cache_hit_rate"`
	FactorCache   plancache.Stats `json:"factor_cache"`
	// Deprecated: Coalesce reports every request as a pass of its own.
	Coalesce CoalesceStats `json:"coalesce"`
	// Arena reports the solve pipeline's pooled request memory: arenas
	// outstanding/idle, slab grows and buddy-region overflows.
	Arena   arena.Stats  `json:"arena"`
	Planner PlannerStats `json:"planner"`
	// Delta reports the near-miss repair outcomes for drifting
	// structures: plan misses served by repairing a resident ancestor
	// instead of a cold re-inspection.
	Delta trisolve.DeltaStats `json:"delta"`
	// Supernode reports the supernodal fusion outcomes of the cache's
	// plan builds: node counts, widths and the fused-row fraction
	// (internal/supernode).
	Supernode trisolve.SupernodeStats `json:"supernode"`
	// Tenants breaks admission and latency down by tenant (weighted-fair
	// admission, see Config.TenantWeights), sorted by name.
	Tenants []TenantStats `json:"tenants"`
	// Queued counts requests parked in admission queues right now.
	Queued int64 `json:"queued"`
	// Stages summarizes per-pipeline-stage latency, derived from the
	// same stamps that feed /v1/trace and loops_stage_seconds.
	Stages []StageStat `json:"stages"`
	// TracesDropped counts completed traces lost to ring contention.
	TracesDropped uint64 `json:"traces_dropped"`
}

// CoalesceStats once reported the batch coalescer's fusion. Every request
// is now its own executor pass: Requests and Passes both count the
// admitted solve requests, and Fused is 0.
//
// Deprecated: StatsResponse.Accepted says the same.
type CoalesceStats struct {
	Requests uint64 `json:"requests"`
	Passes   uint64 `json:"passes"`
	Fused    uint64 `json:"fused"`
}

// errUnknownFactor distinguishes a by-fingerprint miss from real build
// failures inside the factor cache.
var errUnknownFactor = errors.New("server: unknown factor fingerprint")

// errorResponse is the JSON error envelope. Overload rejections carry
// a trace ID so shed requests are correlatable with /v1/trace.
type errorResponse struct {
	Error   string `json:"error"`
	TraceID string `json:"trace_id,omitempty"`
}

// Server is the serving subsystem: factor and plan caches, admission,
// metrics and the HTTP handlers over them. Create with New, start with
// Start (or mount Handler on a listener of your own), stop with Shutdown.
type Server struct {
	cfg Config
	// The residency stack (see residentFactor): a request pins its factor
	// in factors; a factor's plan leases a skeleton from cache. Evicting a
	// factor is what releases its skeleton lease.
	cache   *trisolve.PlanCache
	factors *plancache.Cache[uint64, *residentFactor]
	// planOpts are the plan-cache options of every factor's plan: the
	// processor count, plus the executor kind unless it is KindAuto.
	planOpts []trisolve.Option
	// planHits counts solves that found their factor's plan already
	// bound: plan lookups answered without the plan cache, which
	// planCacheStats adds to the cache's own hits.
	planHits atomic.Uint64
	reg      *Registry
	mux      *http.ServeMux
	httpSrv  *http.Server
	ln       net.Listener
	start    time.Time
	draining atomic.Bool

	// Solve pipeline state: the request-arena pool and the pooled
	// per-request scratch (see solve.go).
	arenas  *arena.Pool
	reqPool sync.Pool

	tracer *tracer

	// Admission: weighted-fair per-tenant scheduling over MaxInFlight
	// slots (see admission.go), plus the tenant registry behind it.
	adm     *admission
	tenants *tenantRegistry

	accepted *Counter
	shed     *Counter
	solveEP  [2]*endpointMetrics // /v1/trisolve, by obs.Wire
}

// New builds a server from cfg (zero fields take defaults). It fails
// only when Config.Validate does: an out-of-range field or an
// unresolvable executor kind name ("auto" delegates the choice to the
// planner per structure).
func New(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	reg := NewRegistry()
	cache := trisolve.NewPlanCache(cfg.CacheCap)
	s := &Server{
		cfg:     cfg,
		cache:   cache,
		factors: plancache.New[uint64, *residentFactor](cfg.FactorCacheCap),
		reg:     reg,
		mux:     http.NewServeMux(),
		start:   time.Now(),
		arenas:  arena.NewPool(arena.Config{}),
	}
	s.planOpts = []trisolve.Option{trisolve.WithProcs(cfg.Procs)}
	if cfg.Kind != KindAuto {
		k, _ := executor.KindByName(cfg.Kind) // Validate resolved the name
		s.planOpts = append(s.planOpts, trisolve.WithKind(k))
	}
	s.reqPool.New = func() any {
		return &reqState{sects: make([]frameSection, 0, maxFrameSections)}
	}
	s.tenants = newTenantRegistry(reg, cfg)
	s.adm = newAdmission(cfg, reg)
	s.accepted = reg.Counter("loops_admission_accepted_total", "solve requests admitted", nil)
	s.shed = reg.Counter("loops_admission_shed_total", "solve requests shed with 429", nil)
	eventGauges(reg, "loops_plan_cache", "plan cache counters by event", s.planCacheStats, []event[plancache.Stats]{
		{"hits", func(st plancache.Stats) float64 { return float64(st.Hits) }},
		{"coalesced", func(st plancache.Stats) float64 { return float64(st.Coalesced) }},
		{"misses", func(st plancache.Stats) float64 { return float64(st.Misses) }},
		{"evictions", func(st plancache.Stats) float64 { return float64(st.Evictions) }},
		{"resident", func(st plancache.Stats) float64 { return float64(st.Resident) }},
	})
	reg.GaugeFunc("loops_plan_cache_hit_rate", "fraction of plan lookups served without the inspector", nil,
		func() float64 { return s.planCacheStats().HitRate() })
	// Near-miss repair outcomes for drifting structures.
	eventGauges(reg, "loops_plan_repair", "near-miss plan repair counters by event", cache.DeltaStats, []event[trisolve.DeltaStats]{
		{"repairs", func(d trisolve.DeltaStats) float64 { return float64(d.Repairs) }},
		{"fallbacks", func(d trisolve.DeltaStats) float64 { return float64(d.Fallbacks) }},
		{"cone_rows", func(d trisolve.DeltaStats) float64 { return float64(d.ConeRows) }},
	})
	// Supernodal fusion outcomes of plan builds.
	eventGauges(reg, "loops_supernode", "supernodal fusion counters by event", cache.SupernodeStats, []event[trisolve.SupernodeStats]{
		{"fused_plans", func(st trisolve.SupernodeStats) float64 { return float64(st.FusedPlans) }},
		{"nodes", func(st trisolve.SupernodeStats) float64 { return float64(st.Nodes) }},
		{"fused_rows", func(st trisolve.SupernodeStats) float64 { return float64(st.FusedRows) }},
		{"max_width", func(st trisolve.SupernodeStats) float64 { return float64(st.MaxWidth) }},
	})
	reg.GaugeFunc("loops_supernode_fused_frac", "fraction of planned rows inside fused supernodes", nil,
		func() float64 { return cache.SupernodeStats().FusedFrac })
	factors := s.factors
	reg.GaugeFunc("loops_factor_cache", "factor cache counters by event", Labels{{"event", "resident"}},
		func() float64 { return float64(factors.Stats().Resident) })
	reg.GaugeFunc("loops_factor_cache_hit_rate", "fraction of factor references served from cache", nil,
		func() float64 { return factors.Stats().HitRate() })
	// Planner decisions by strategy: how many skeleton builds the adaptive
	// planner resolved to each executor (constant-labeled for a stable
	// exposition; pinned servers count everything under the pinned kind),
	// plus the first-sight answers, which run the sequential loop
	// uninspected and count under "sequential".
	for _, k := range []executor.Kind{executor.Sequential, executor.PreScheduled,
		executor.SelfExecuting, executor.DoAcross, executor.Pooled} {
		name := k.String()
		reg.GaugeFunc("loops_planner_decisions", "plan builds and first-sight answers by chosen strategy", Labels{{"strategy", name}},
			func() float64 { return float64(cache.DecisionCounts()[name]) })
	}

	// Request arena-pool counters.
	eventGauges(reg, "loops_arena", "request arena pool counters by event", s.arenas.Stats, []event[arena.Stats]{
		{"outstanding", func(st arena.Stats) float64 { return float64(st.Outstanding) }},
		{"idle", func(st arena.Stats) float64 { return float64(st.Idle) }},
		{"gets", func(st arena.Stats) float64 { return float64(st.Gets) }},
		{"releases", func(st arena.Stats) float64 { return float64(st.Releases) }},
		{"grows", func(st arena.Stats) float64 { return float64(st.Grows) }},
		{"overflows", func(st arena.Stats) float64 { return float64(st.Overflows) }},
	})

	s.tracer = newTracer(reg, cfg)
	registerBuildMetrics(reg, s.start)

	// The solve endpoint is instrumented per wire format so the JSON and
	// binary protocols are directly comparable in /metrics: both land in
	// the same histogram families, measured at the same boundary.
	for _, w := range []obs.Wire{obs.WireJSON, obs.WireBinary} {
		s.solveEP[w] = newEndpointMetrics(reg, "trisolve", [2]string{"wire", w.String()})
	}
	s.mux.HandleFunc("/v1/trisolve", s.handleTrisolve)
	s.mux.HandleFunc("/v1/stats", newEndpointMetrics(reg, "stats").wrap(s.handleStats))
	s.mux.HandleFunc("/healthz", newEndpointMetrics(reg, "healthz").wrap(s.handleHealthz))
	s.mux.HandleFunc("/metrics", newEndpointMetrics(reg, "metrics").wrap(s.handleMetrics))
	traceEP := newEndpointMetrics(reg, "trace")
	s.mux.HandleFunc("/v1/trace", traceEP.wrap(s.handleTrace))
	s.mux.HandleFunc("/v1/trace/slowest", traceEP.wrap(s.handleTraceSlowest))
	shardEP := newEndpointMetrics(reg, "shard")
	s.mux.HandleFunc("/v1/shard/plans", shardEP.wrap(s.handleShardPlans))
	s.mux.HandleFunc("/v1/shard/factor", shardEP.wrap(s.handleShardFactor))
	s.mux.HandleFunc("/v1/shard/warm", shardEP.wrap(s.handleShardWarm))
	s.httpSrv = &http.Server{Handler: s.mux}
	return s, nil
}

// event names one counter of a stats snapshot S for eventGauges.
type event[S any] struct {
	name string
	get  func(S) float64
}

// eventGauges registers one gauge per event under family, labelled
// {event=name}, each reading a fresh snapshot.
func eventGauges[S any](reg *Registry, family, help string, snap func() S, events []event[S]) {
	for _, e := range events {
		reg.GaugeFunc(family, help, Labels{{"event", e.name}}, func() float64 { return e.get(snap()) })
	}
}

// Handler returns the server's HTTP handler (for tests and in-process
// mounting).
func (s *Server) Handler() http.Handler { return s.mux }

// Registry returns the server's metrics registry.
func (s *Server) Registry() *Registry { return s.reg }

// Start listens on addr (e.g. ":8080", "127.0.0.1:0") and serves in a
// background goroutine. It returns once the listener is bound, so Addr
// is valid immediately after.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	go func() {
		if err := s.httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			// Serve only fails this way if the listener breaks underneath
			// us; the error is observable through failed requests.
			_ = err
		}
	}()
	return nil
}

// Addr returns the bound listen address, or "" before Start.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Shutdown gracefully drains the server: new requests are refused with
// 503 (and /healthz fails, so load balancers stop routing here), and the
// HTTP server waits for in-flight handlers up to ctx's deadline.
// The caches close last, in residency order: the factors first (each
// releases its plan's skeleton lease), then the plan cache; no executor
// worker is the server's to stop. Shutdown is idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.adm.drain()
	var err error
	if s.httpSrv != nil {
		err = s.httpSrv.Shutdown(ctx)
	}
	// Handlers may also be mounted on an external http.Server through
	// Handler(), which httpSrv.Shutdown knows nothing about — wait for
	// the admitted-solve gauge itself to drain before tearing down the
	// caches those handlers are using.
	if werr := s.waitInFlight(ctx); err == nil {
		err = werr
	}
	if cerr := s.factors.Close(); err == nil {
		err = cerr
	}
	if cerr := s.cache.Close(); err == nil {
		err = cerr
	}
	return err
}

// planCacheStats is the plan cache's counters as every surface reports
// them: a solve that found its factor's plan already bound never reaches
// the cache, but it is a plan lookup answered without the inspector all
// the same, so it counts as a hit.
func (s *Server) planCacheStats() plancache.Stats {
	st := s.cache.Stats()
	st.Hits += s.planHits.Load()
	return st
}

// waitInFlight blocks until no solve request is admitted, or ctx ends.
func (s *Server) waitInFlight(ctx context.Context) error {
	for s.adm.inFlight() > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
	return nil
}

// Stats assembles the /v1/stats snapshot.
func (s *Server) Stats() StatsResponse {
	cs := s.planCacheStats()
	accepted := s.accepted.Value()
	tens := s.tenants.snapshot()
	tstats := make([]TenantStats, 0, len(tens))
	var queued int64
	for _, t := range tens {
		q := s.adm.queuedOf(t)
		queued += int64(q)
		tstats = append(tstats, TenantStats{
			Name:            t.name,
			Weight:          t.weight,
			Quota:           t.quota,
			InFlight:        t.inFlightG.Value(),
			Queued:          q,
			Accepted:        t.accepted.Value(),
			Shed:            t.shed.Value(),
			LatencyRequests: t.classReq[ClassLatency].Value(),
			BatchRequests:   t.classReq[ClassBatch].Value(),
			P50Ms:           t.latH.Quantile(0.5) * 1e3,
			P99Ms:           t.latH.Quantile(0.99) * 1e3,
		})
	}
	return StatsResponse{
		UptimeSeconds: time.Since(s.start).Seconds(),
		InFlight:      s.adm.inFlight(),
		Accepted:      accepted,
		Shed:          s.shed.Value(),
		Tenants:       tstats,
		Queued:        queued,
		Draining:      s.draining.Load(),
		PlanCache:     cs,
		CacheHitRate:  cs.HitRate(),
		FactorCache:   s.factors.Stats(),
		Coalesce:      CoalesceStats{Requests: accepted, Passes: accepted},
		Arena:         s.arenas.Stats(),
		Delta:         s.cache.DeltaStats(),
		Supernode:     s.cache.SupernodeStats(),
		Stages:        s.tracer.stageStats(),
		TracesDropped: s.tracer.ring.Dropped(),
		Planner: PlannerStats{
			Kind:      s.cfg.Kind,
			Procs:     s.cfg.Procs,
			Counts:    s.cache.DecisionCounts(),
			Decisions: s.cache.Decisions(),
		},
	}
}

// handleTrisolve is the HTTP edge of the solve pipeline: it chooses the
// codec — once, from the Content-Type — and observes the outcome in
// that wire's endpoint metrics; everything it answers, rejections
// included, goes out on the wire the request arrived on.
func (s *Server) handleTrisolve(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	c := codecFor(r)
	status := s.serveSolve(w, r, c, t0)
	s.solveEP[c.wire].observe(status, time.Since(t0))
}

// serveSolve admits one solve request, reads its body into a pooled
// request arena and runs it through solve, returning the status it
// answered with.
func (s *Server) serveSolve(w http.ResponseWriter, r *http.Request, c *codec, t0 time.Time) int {
	// refuse answers before admission: no trace, no tenant charged.
	refuse := func(status int, msg string) int {
		c.writeBody(w, status, c.reject(status, msg, 0))
		return status
	}
	if r.Method != http.MethodPost {
		return refuse(http.StatusMethodNotAllowed, "POST required")
	}
	// Tenant identity comes from the header on both wires: admission
	// runs before the body is read. A binary frame may also carry a
	// tenant section, which overrides the attribution once decoded.
	tenName, class, err := parseTenantHeader(r.Header.Get(TenantHeader))
	if err != nil {
		return refuse(http.StatusBadRequest, err.Error())
	}
	ten := s.tenants.resolve(tenName)
	if s.draining.Load() {
		return s.rejectOverload(w, c, t0, ten, class, admitDraining, 0)
	}
	// Admission control: weighted fair queueing over MaxInFlight slots.
	// Saturation beyond the tenant's queue — or its quota — is shed with
	// 429 and a drain-rate-derived Retry-After instead of queueing
	// without bound.
	res, retry := s.adm.Admit(r.Context(), ten, class)
	if res != admitOK {
		return s.rejectOverload(w, c, t0, ten, class, res, retry)
	}
	defer s.adm.Release(ten)
	s.accepted.Inc()
	ten.accepted.Inc()

	// The trace starts at the handler's first instruction, so its
	// admission stage covers the whole front door.
	st := s.getReqState(c, ten, class, t0)
	defer s.putReqState(st)
	st.tr.Lap(obs.StageAdmission)
	// The transport owns the default deadline; the request's own timeout
	// can only tighten it (see withRequestTimeout). It starts before the
	// body is read and bounds the read, so a client trickling its body
	// holds its admission slot and arena no longer than any other
	// request. A ResponseWriter that cannot set read deadlines (a
	// handler mounted behind a wrapper) reads unbounded.
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.DefaultTimeout)
	defer cancel()
	rc := http.NewResponseController(w)
	deadline, _ := ctx.Deadline()
	bounded := rc.SetReadDeadline(deadline) == nil
	body, err := readBody(r, st.arena)
	if bounded && err == nil {
		// Once the body is in, net/http's background read must not trip
		// the deadline: it would cancel the request context mid-solve and
		// turn the solve's 504 into a racy 503. The connection took a
		// deadline a moment ago, so clearing it cannot fail. A failed read
		// keeps its deadline: net/http discards the unread body before it
		// replies, and that discard must fail at the deadline (closing
		// the connection after the reply) rather than wait for the rest
		// of a body the client may never send.
		_ = rc.SetReadDeadline(time.Time{})
	}
	st.tr.Lap(obs.StageDecode)
	out, status := s.solve(ctx, body, err, st)
	c.writeBody(w, status, out)
	return status
}

// admitRejections maps each non-OK admission result to its reply; shed
// marks the ones counted as load shedding.
var admitRejections = map[admitResult]struct {
	status int
	msg    string
	shed   bool
}{
	admitDraining:     {http.StatusServiceUnavailable, "server is draining", false},
	admitCancelled:    {http.StatusServiceUnavailable, "request cancelled", false},
	admitShedQuota:    {http.StatusTooManyRequests, "tenant is at its admission quota", true},
	admitShedCapacity: {http.StatusTooManyRequests, "server is at capacity", true},
}

// rejectOverload answers a refused admission on the request's wire. The
// response echoes a freshly minted trace ID, the trace lands in the ring
// with the whole rejection charged to the admission stage, and — for a
// shed — the global and per-tenant shed counters advance. retry > 0 adds
// a Retry-After header (both wires: the binary protocol still rides
// HTTP).
func (s *Server) rejectOverload(w http.ResponseWriter, c *codec, t0 time.Time,
	ten *tenantState, class Class, res admitResult, retry int) int {
	rj := admitRejections[res]
	if rj.shed {
		s.shed.Inc()
		ten.shed.Inc()
	}
	if retry > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retry))
	}
	var tr obs.Trace
	tr.Begin(c.wire, t0)
	tr.ID = s.tracer.nextID()
	tr.SetTenant(ten.name, byte(class))
	s.tracer.publish(&tr, obs.StageAdmission, rj.status)
	c.writeBody(w, rj.status, c.reject(rj.status, rj.msg, tr.ID))
	return rj.status
}

// PackFloats packs a float64 slice little-endian (JSON renders the
// bytes as one base64 string — 12 bytes per value on the wire instead of
// ~18 for a parsed decimal, and ~100x cheaper to decode).
func PackFloats(x []float64) []byte {
	out := make([]byte, 8*len(x))
	putFloat64s(out, x)
	return out
}

// UnpackFloats unpacks a little-endian float64 array.
func UnpackFloats(b []byte) ([]float64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("packed float array has %d bytes, not a multiple of 8", len(b))
	}
	x := make([]float64, len(b)/8)
	getFloat64s(x, b)
	return x, nil
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = s.reg.WritePrometheus(w)
}

// validateFactor checks a wire factor in place (both wire encodings
// and the shard warm path funnel here): well formed, triangular in the
// requested direction, full nonzero diagonal (the executor bodies divide
// by it with no error path).
func validateFactor(l *sparse.CSR, lower bool) error {
	if l.N < 1 {
		return fmt.Errorf("n must be >= 1, got %d", l.N)
	}
	if err := l.CheckWellFormed(); err != nil {
		return err
	}
	for i := 0; i < l.N; i++ {
		if err := validateFactorRow(l, i, lower); err != nil {
			return err
		}
	}
	return nil
}

// validateFactorRows checks the triangularity and diagonal invariants
// of the given rows only — the rows a drift edit touched; every other
// row is the already-validated base factor, block-copied.
func validateFactorRows(l *sparse.CSR, rows []int32, lower bool) error {
	for _, r := range rows {
		if r < 0 || int(r) >= l.N {
			return fmt.Errorf("edit row %d outside [0,%d)", r, l.N)
		}
		if err := validateFactorRow(l, int(r), lower); err != nil {
			return fmt.Errorf("after edits: %w", err)
		}
	}
	return nil
}

// validateFactorRow checks one row: no entry on the wrong side of the
// diagonal for the solve direction, and a nonzero diagonal.
func validateFactorRow(l *sparse.CSR, i int, lower bool) error {
	cols, vals := l.Row(i)
	hasDiag := false
	for k, c := range cols {
		switch {
		case int(c) == i:
			if vals[k] == 0 {
				return fmt.Errorf("zero diagonal at row %d", i)
			}
			hasDiag = true
		case lower && int(c) > i:
			return fmt.Errorf("row %d has upper entry %d in a forward solve", i, c)
		case !lower && int(c) < i:
			return fmt.Errorf("row %d has lower entry %d in a backward solve", i, c)
		}
	}
	if !hasDiag {
		return fmt.Errorf("missing diagonal at row %d", i)
	}
	return nil
}

// validateRHS bounds and shape-checks the request's right-hand sides.
func validateRHS(bs [][]float64, n, maxBatch int) error {
	if len(bs) == 0 {
		return errors.New("request has no right-hand sides")
	}
	if len(bs) > maxBatch {
		return fmt.Errorf("request has %d right-hand sides, limit %d", len(bs), maxBatch)
	}
	for j, b := range bs {
		if len(b) != n {
			return fmt.Errorf("right-hand side %d has length %d, want %d", j, len(b), n)
		}
	}
	return nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorResponse{Error: msg})
}

// endpointMetrics instruments one endpoint: a latency histogram plus
// per-status-code request counters.
type endpointMetrics struct {
	reg      *Registry
	endpoint string
	hist     *Histogram
	codes    map[int]*Counter
}

// newEndpointMetrics pre-registers the status codes the handlers emit so
// the exposition is stable from the first scrape. extra labels follow
// the endpoint label (the solve endpoint adds its wire format).
func newEndpointMetrics(reg *Registry, endpoint string, extra ...[2]string) *endpointMetrics {
	base := append(Labels{{"endpoint", endpoint}}, extra...)
	m := &endpointMetrics{
		reg:      reg,
		endpoint: endpoint,
		hist: reg.Histogram("loops_http_request_seconds", "request latency by endpoint",
			base, DefaultLatencyBuckets),
		codes: make(map[int]*Counter),
	}
	for _, code := range []int{200, 400, 404, 405, 429, 500, 503, 504} {
		m.codes[code] = reg.Counter("loops_http_requests_total", "requests by endpoint and status code",
			append(append(Labels{}, base...), [2]string{"code", fmt.Sprint(code)}))
	}
	// Catch-all for codes outside the pre-registered set; the map is
	// read-only after construction so observe stays lock-free.
	m.codes[0] = reg.Counter("loops_http_requests_total", "requests by endpoint and status code",
		append(append(Labels{}, base...), [2]string{"code", "other"}))
	return m
}

func (m *endpointMetrics) observe(code int, d time.Duration) {
	m.hist.Observe(d.Seconds())
	c, ok := m.codes[code]
	if !ok {
		c = m.codes[0]
	}
	c.Inc()
}

// wrap instruments a handler with latency and status accounting.
func (m *endpointMetrics) wrap(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		t0 := time.Now()
		h(rec, r)
		m.observe(rec.code, time.Since(t0))
	}
}

// statusRecorder captures the status code written by a handler.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}
