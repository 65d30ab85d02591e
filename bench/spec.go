package main

import "encoding/json"

// The benchmark's catalogue: workloads, end-to-end metrics with their
// regression bounds, and per-layer metrics. BENCHMARK.json at the repo
// root is this table rendered by `bench -spec` (bench_test.go keeps the
// two in step), so the emitter, the comparer and the driver's contract
// read one definition.

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	// exact marks a count that must repeat exactly for a seed; -compare
	// reports any difference.
	exact bool
	// cache marks an exact count of cache insertions or evictions. Those
	// repeat only where one caller at a time fills the cache: see
	// workloadSpec.sharedChurn.
	cache bool
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// opsPerSecond fixes the op count: a run of S seconds executes
	// round(opsPerSecond*S) timed ops, never "as many as fit", so request
	// sequences and exact counts repeat. Calibrated on the 2-core
	// reference container so that S seconds of ops take about S seconds.
	opsPerSecond float64
	rhsPerOp     int
	// sharedChurn: two clients fill and evict one LRU cache concurrently,
	// so which entry goes — and whether a still-current one has to be
	// rebuilt — depends on how they interleave. Cache counts are reported
	// but not held to exactness here.
	sharedChurn bool
}

// runSeconds is BENCHMARK.json's run_seconds and the default -seconds.
const runSeconds = 10

var workloads = []workloadSpec{
	{Name: "kernel_large", opsPerSecond: 280, rhsPerOp: 12,
		Why: "library only: warm-plan batch-4 solves over L5-PT, L7-PT, L9-PT; executor, planner choice and supernode kernels do all the work, no wire or server"},
	{Name: "inspect_churn", opsPerSecond: 200, rhsPerOp: 4,
		Why: "library only: 16 synthetic structures cycled through a plan cache of 8, each drifted 3 times; every op is a cold inspection plus delta repairs, the executor almost idle"},
	{Name: "serve_warm_binary", opsPerSecond: 2600, rhsPerOp: 4,
		Why: "one server over loopback HTTP, DCWF frames, by-fingerprint batch-4 solves on 5 small factors; net/http, frame codec, hot ring and coalescer, inspector near zero"},
	{Name: "serve_warm_json", opsPerSecond: 500, rhsPerOp: 4,
		Why: "serve_warm_binary's exact traffic over the JSON wire; only the codec differs, so a codec change must move this row and leave the binary row flat"},
	{Name: "serve_drift", opsPerSecond: 1900, rhsPerOp: 4, sharedChurn: true,
		Why: "binary wire with 30% base_fp+edits drift requests; factor registration, plan repair vs fallback and both caches filling and evicting; p90 lands on a drift request"},
	{Name: "cluster_route", opsPerSecond: 2100, rhsPerOp: 4,
		Why: "serve_warm_binary's traffic through the consistent-hash front door over 2 replicas with tenant tags; prices RouteKey, the ring and the second HTTP hop"},
}

// End-to-end metrics, reported on every workload. fail_frac from the
// issue is not listed: it is 0 at this commit on every workload and the
// contract forbids a metric that is always 0 — the failed/attempted
// counts in every result line carry it, and -compare gates on them.
//
// Every timing bound is the contract's ceiling, 25 %: inside one pass of
// ten seeds the timings repeat to 2-9 %, but the shared 2-core host
// itself drifts by 10-14 % over an hour (README.md, "Where the bounds
// come from"), and a tighter bound would refuse an unchanged program on
// such a day. Allocation repeats to 0.4 % and keeps the issue's 5 %.
var endToEnd = []metricSpec{
	{Name: "solves_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "alloc_kb_per_op", Unit: "KiB", Better: "lower", Bound: 0.05},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

func layer(name, unit, better string) metricSpec {
	return metricSpec{Name: name, Unit: unit, Better: better}
}

func count(name string) metricSpec {
	return metricSpec{Name: name, Unit: "count", Better: "lower", exact: true}
}

func cacheCount(name string) metricSpec {
	return metricSpec{Name: name, Unit: "count", Better: "lower", exact: true, cache: true}
}

// exactOn reports whether m must repeat exactly for a seed on w.
func exactOn(m metricSpec, w workloadSpec) bool {
	return m.exact && !(m.cache && w.sharedChurn)
}

// Per-layer metrics, emitted by the traced run. A metric that does not
// apply to a workload (router.* off the cluster, client.* on a library
// workload) is emitted as 0 so every run carries the full set.
var perLayer = []metricSpec{
	// client
	layer("client.encode_us", "us", "lower"),
	layer("client.decode_us", "us", "lower"),
	layer("client.unattributed_ms", "ms", "lower"),
	layer("client.latency_p99_ms", "ms", "lower"),
	cacheCount("client.fallbacks"),
	// router
	layer("router.hop_ms", "ms", "lower"),
	layer("router.routekey_ns", "ns", "lower"),
	count("router.retries"),
	count("router.failures"),
	count("router.affinity_hits"),
	layer("router.shard_skew", "ratio", "lower"),
	// server
	layer("server.stage.admission_ms", "ms", "lower"),
	layer("server.stage.decode_ms", "ms", "lower"),
	layer("server.stage.factor_ms", "ms", "lower"),
	layer("server.stage.coalesce_ms", "ms", "lower"),
	layer("server.stage.plan_ms", "ms", "lower"),
	layer("server.stage.repair_ms", "ms", "lower"),
	layer("server.stage.execute_ms", "ms", "lower"),
	layer("server.stage.encode_ms", "ms", "lower"),
	layer("server.total_ms", "ms", "lower"),
	layer("server.handler_us", "us", "lower"),
	layer("server.coalesce_rate", "ratio", "higher"),
	layer("server.pass_width_mean", "rhs", "higher"),
	layer("server.plan_hit_rate", "ratio", "higher"),
	layer("server.factor_hit_rate", "ratio", "higher"),
	cacheCount("server.plan_evictions"),
	cacheCount("server.factor_evictions"),
	count("server.shed"),
	layer("server.arena_grows", "count", "lower"),
	layer("server.arena_outstanding", "count", "lower"),
	// executor
	layer("executor.ns_per_row", "ns", "lower"),
	layer("executor.ns_per_level", "ns", "lower"),
	layer("executor.seq_ns_per_row", "ns", "lower"),
	layer("executor.speedup_vs_seq", "ratio", "higher"),
	layer("executor.kind.sequential_ns_per_row", "ns", "lower"),
	layer("executor.kind.pooled_ns_per_row", "ns", "lower"),
	layer("executor.kind.doacross_ns_per_row", "ns", "lower"),
	layer("executor.kind.self-executing_ns_per_row", "ns", "lower"),
	layer("executor.kind.pre-scheduled_ns_per_row", "ns", "lower"),
	count("executor.flops_per_op"),
	count("executor.bytes_per_op_computed"),
	// planner
	cacheCount("planner.chosen.sequential"),
	cacheCount("planner.chosen.pooled"),
	cacheCount("planner.chosen.doacross"),
	cacheCount("planner.chosen.fused"),
	layer("planner.regret", "ratio", "lower"),
	layer("planner.pred_err", "ratio", "lower"),
	layer("planner.analyze_ns_per_edge", "ns", "lower"),
	layer("planner.select_ns", "ns", "lower"),
	layer("planner.calibrated_agrees", "ratio", "higher"),
	// supernode
	layer("supernode.detect_ns_per_edge", "ns", "lower"),
	layer("supernode.fused_row_frac", "ratio", "higher"),
	layer("supernode.fused_speedup", "ratio", "higher"),
	layer("supernode.resplice_us", "us", "lower"),
	// wavefront, schedule
	layer("wavefront.deps_ns_per_edge", "ns", "lower"),
	layer("wavefront.compute_ns_per_edge", "ns", "lower"),
	layer("schedule.global_ns_per_row", "ns", "lower"),
	// trisolve, plancache
	layer("trisolve.newplan_ms", "ms", "lower"),
	layer("trisolve.cache_hit_ns", "ns", "lower"),
	layer("trisolve.bind_us", "us", "lower"),
	layer("plancache.hit_rate", "ratio", "higher"),
	cacheCount("plancache.evictions"),
	// delta, sparse
	layer("delta.repair_us", "us", "lower"),
	layer("delta.inspect_us", "us", "lower"),
	layer("delta.repair_speedup", "ratio", "higher"),
	layer("delta.repair_frac", "ratio", "higher"),
	layer("delta.cone_rows_mean", "rows", "lower"),
	layer("sparse.apply_edits_us", "us", "lower"),
	layer("sparse.fingerprint_ns_per_nnz", "ns", "lower"),
	// arena, obs, runtime, the bench itself
	layer("arena.get_release_ns", "ns", "lower"),
	layer("bench.trace_overhead_frac", "ratio", "lower"),
	layer("bench.self_frac", "ratio", "lower"),
	layer("runtime.gc_cycles", "count", "lower"),
	layer("runtime.gc_pause_ms", "ms", "lower"),
	layer("runtime.heap_peak_mb", "MiB", "lower"),
	count("runtime.goroutines_leaked"),
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// benchmarkJSON renders the catalogue in the BENCHMARK.json schema.
func benchmarkJSON() ([]byte, error) {
	type layerJSON struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	type wlJSON struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string     `json:"command"`
		Paths      []string     `json:"paths"`
		RunSeconds int          `json:"run_seconds"`
		Workloads  []wlJSON     `json:"workloads"`
		EndToEnd   []metricSpec `json:"end_to_end"`
		PerLayer   []layerJSON  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wlJSON{w.Name, w.Why})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerJSON{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
