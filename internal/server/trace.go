package server

import (
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"doconsider/internal/obs"
)

// Request tracing. Every solve request carries an obs.Trace stamped as
// it crosses the pipeline stages (admission, decode, factor, plan,
// repair, execute, encode); finished traces land in a lock-free
// ring served by GET /v1/trace, and the same stamps feed the
// loops_stage_seconds histograms — one clock, so /metrics and the
// traces cannot disagree. The binary path's trace lives in the pooled
// reqState and publishing is ring-slot copies plus histogram atomics,
// so the warm 0 allocs/op boundary holds with tracing on.

// tracer owns the server's trace machinery: the completed-trace ring,
// the level-timing sampler, the trace-ID sequence and the per-stage
// latency histograms derived from the stamps.
type tracer struct {
	ring    *obs.Ring
	sampler *obs.Sampler
	idSeq   atomic.Uint64
	stageH  [obs.NumStages]*Histogram
}

func newTracer(reg *Registry, cfg Config) *tracer {
	size := cfg.TraceRing
	if size <= 0 {
		size = 4 * cfg.Admission.MaxInFlight
		if size < 256 {
			size = 256
		}
	}
	t := &tracer{ring: obs.NewRing(size)}
	if cfg.TraceSampleEvery > 0 {
		t.sampler = obs.NewSampler(cfg.TraceSampleEvery)
	}
	for i := 0; i < obs.NumStages; i++ {
		t.stageH[i] = reg.Histogram("loops_stage_seconds", "solve request latency by pipeline stage",
			Labels{{"stage", obs.Stage(i).String()}}, DefaultLatencyBuckets)
	}
	return t
}

// nextID mints a server-assigned trace ID (clients may supply their own
// instead, propagated through both wire formats).
func (t *tracer) nextID() uint64 { return t.idSeq.Add(1) }

// publish finishes tr — charging the time since its last stamp to
// final — and lands it in the ring and the per-stage histograms.
// Allocation-free: the histograms observe fixed-array values and
// Ring.Put copies the trace into its slot.
func (t *tracer) publish(tr *obs.Trace, final obs.Stage, status int) {
	if !tr.Active() {
		return
	}
	tr.Finish(final, status)
	for i := 0; i < obs.NumStages; i++ {
		t.stageH[i].Observe(float64(tr.Stages[i]) / 1e9)
	}
	t.ring.Put(tr)
}

// TraceJSON is one completed request trace as served by /v1/trace.
// Stage and level durations are milliseconds; the stage values sum to
// total_ms exactly (the lap protocol partitions the total).
type TraceJSON struct {
	TraceID  string             `json:"trace_id"`
	Start    time.Time          `json:"start"`
	Wire     string             `json:"wire"`
	Tenant   string             `json:"tenant,omitempty"`
	Class    string             `json:"class,omitempty"`
	Status   int                `json:"status"`
	N        int                `json:"n,omitempty"`
	Batch    int                `json:"batch,omitempty"`
	Fused    int                `json:"fused,omitempty"`
	Width    int                `json:"width,omitempty"`
	Strategy string             `json:"strategy,omitempty"`
	TotalMs  float64            `json:"total_ms"`
	Stages   map[string]float64 `json:"stages_ms"`
	// Levels carries per-wavefront-level executor milliseconds when this
	// request was chosen for level sampling.
	Levels []float64 `json:"levels_ms,omitempty"`
}

func traceJSON(tr *obs.Trace) TraceJSON {
	out := TraceJSON{
		TraceID:  fmt.Sprintf("%016x", tr.ID),
		Start:    tr.Start,
		Wire:     tr.Wire.String(),
		Tenant:   tr.Tenant(),
		Status:   int(tr.Status),
		N:        int(tr.N),
		Batch:    int(tr.Batch),
		Fused:    int(tr.Fused),
		Width:    int(tr.Width),
		Strategy: tr.Strategy(),
		TotalMs:  float64(tr.TotalNs) / 1e6,
		Stages:   make(map[string]float64, obs.NumStages),
	}
	if out.Tenant != "" {
		out.Class = Class(tr.Class).String()
	}
	for i := 0; i < obs.NumStages; i++ {
		out.Stages[obs.Stage(i).String()] = float64(tr.Stages[i]) / 1e6
	}
	if tr.Sampled && tr.NumLevels > 0 {
		n := int(tr.NumLevels)
		if n > obs.MaxLevels {
			n = obs.MaxLevels
		}
		out.Levels = make([]float64, n)
		for i := 0; i < n; i++ {
			out.Levels[i] = float64(tr.LevelNs[i]) / 1e6
		}
	}
	return out
}

// TraceListResponse is the GET /v1/trace (and /v1/trace/slowest) reply.
type TraceListResponse struct {
	Traces  []TraceJSON `json:"traces"`
	Dropped uint64      `json:"dropped"` // traces lost to ring contention
}

// handleTrace serves the most recent completed traces, newest first.
// ?limit=N bounds the reply (default 32, capped at the ring size).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	limit := queryInt(r, "limit", 32)
	traces := s.tracer.ring.Snapshot(limit)
	sort.Slice(traces, func(i, j int) bool { return traces[i].Start.After(traces[j].Start) })
	writeJSON(w, http.StatusOK, traceListResponse(traces, s.tracer.ring.Dropped()))
}

// handleTraceSlowest serves the top-K traces by total duration from the
// ring's current window, slowest first. ?k=N picks K (default 10).
func (s *Server) handleTraceSlowest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	k := queryInt(r, "k", 10)
	traces := s.tracer.ring.Snapshot(0)
	sort.Slice(traces, func(i, j int) bool { return traces[i].TotalNs > traces[j].TotalNs })
	if k > 0 && len(traces) > k {
		traces = traces[:k]
	}
	writeJSON(w, http.StatusOK, traceListResponse(traces, s.tracer.ring.Dropped()))
}

func traceListResponse(traces []obs.Trace, dropped uint64) TraceListResponse {
	resp := TraceListResponse{Traces: make([]TraceJSON, len(traces)), Dropped: dropped}
	for i := range traces {
		resp.Traces[i] = traceJSON(&traces[i])
	}
	return resp
}

// queryInt parses an integer query parameter, falling back to def on
// absence or garbage.
func queryInt(r *http.Request, key string, def int) int {
	v := r.URL.Query().Get(key)
	if v == "" {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return def
	}
	return n
}

// StageStat summarizes one pipeline stage's latency distribution for
// /v1/stats, derived from the same loops_stage_seconds histograms
// the exposition serves.
type StageStat struct {
	Stage        string  `json:"stage"`
	Count        uint64  `json:"count"`
	P50Ms        float64 `json:"p50_ms"`
	P99Ms        float64 `json:"p99_ms"`
	TotalSeconds float64 `json:"total_seconds"`
}

func (t *tracer) stageStats() []StageStat {
	out := make([]StageStat, obs.NumStages)
	for i := 0; i < obs.NumStages; i++ {
		h := t.stageH[i]
		out[i] = StageStat{
			Stage:        obs.Stage(i).String(),
			Count:        h.Count(),
			P50Ms:        h.Quantile(0.5) * 1e3,
			P99Ms:        h.Quantile(0.99) * 1e3,
			TotalSeconds: h.Sum(),
		}
	}
	return out
}

// registerBuildMetrics exposes build identity, process uptime and Go
// runtime health on the registry: loops_build_info (value always
// 1, metadata in labels), loops_process_uptime_seconds, and
// loops_go_* gauges read from runtime/metrics at scrape time.
func registerBuildMetrics(reg *Registry, start time.Time) {
	version := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		version = bi.Main.Version
	}
	reg.GaugeFunc("loops_build_info", "build metadata; value is always 1",
		Labels{{"version", version}, {"go_version", runtime.Version()}},
		func() float64 { return 1 })
	reg.GaugeFunc("loops_process_uptime_seconds", "seconds since the server was constructed", nil,
		func() float64 { return time.Since(start).Seconds() })
	reg.GaugeFunc("loops_go_goroutines", "live goroutines", nil,
		func() float64 { return float64(obs.ReadRuntime().Goroutines) })
	reg.GaugeFunc("loops_go_heap_bytes", "bytes in live heap objects", nil,
		func() float64 { return float64(obs.ReadRuntime().HeapBytes) })
	reg.GaugeFunc("loops_go_gc_cycles_total", "completed GC cycles", nil,
		func() float64 { return float64(obs.ReadRuntime().GCCycles) })
	reg.GaugeFunc("loops_go_gc_pause_seconds_total", "cumulative GC stop-the-world pause time", nil,
		func() float64 { return obs.ReadRuntime().GCPauseSeconds })
}
