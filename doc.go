// Package doconsider is a Go reproduction of "Run-Time Parallelization and
// Scheduling of Loops" (Saltz, Mirchandaney, Baxter; ICASE Report 88-70 /
// SPAA 1989): the doconsider construct and its inspector/executor runtime,
// with global/local wavefront scheduling, pre-scheduled and self-executing
// executors (five kinds behind the one executor.Executor type), the
// PCGPAK-style preconditioned Krylov substrate, the Section 4 analytic
// model, a cost-model multiprocessor simulator that stands in for the
// paper's Encore Multimax/320, and a network serving
// subsystem (internal/server, `loops server`) that exercises the
// inspector/executor amortization under real multi-tenant load: shared
// plan cache, cross-request batch coalescing, admission control, live
// Prometheus metrics and graceful drain.
//
// There is one inspector, core.Inspect, behind both core.New (generic loops)
// and trisolve's plans and plan cache (triangular solves). It is adaptive
// (internal/planner): unless the caller pins an executor kind, it measures
// the dependence DAG (levels, widths, ideal makespans), consults a
// host-calibrated cost model, and picks the execution strategy itself —
// sequential for tiny or chain-like structures, pooled for wide ones,
// doacross when the natural order already parallelizes — with
// bit-identical results under every choice. Every parallel pass runs on its
// caller plus the idle helpers of the process's one worker set
// (GOMAXPROCS-1 goroutines started once), so nothing needs closing. See the "Adaptive
// planning" section of README.md for the model, the per-machine calibration,
// and the DOCONSIDER_CALIBRATION environment override.
//
// Inspection is also incremental (internal/delta): when a structure
// drifts — a few rows gain or lose nonzeros between solves, as under
// adaptive meshing or a refactorization with a modified drop pattern —
// the wavefront levels and schedule of a resident plan are repaired
// through the affected cone instead of re-inspected from scratch, up to
// a fixed break-even bound (delta.RepairBound) past which it rebuilds.
// One repair, core.Inspection.Repair, serves both entry points: the plan
// cache repairs the nearest resident ancestor on a fingerprint miss,
// core.Runtime exposes Patch/PatchCtx, and the server accepts
// base_fp+edits drift requests; see the "Structural drift" section of
// README.md.
//
// Execution is supernodal where the structure allows (internal/supernode):
// runs of consecutive rows with identical or nested dependence patterns
// fuse into width-capped supernodes, each node's executor body sweeps
// the one row-substitution kernel over its rows, and the schedule runs
// over compressed levels — fewer dispatches, barriers and busy-waits,
// bit-identical results. The planner prices the fused plan as a fifth
// candidate for generic loops and triangular solves alike, the plan
// cache keys on fusion identity, repair re-splices partitions under
// drift, and trisolve.WithFusion forces or disables it; see the
// "Supernodal execution" section of README.md.
//
// Serving scales out behind a consistent-hash front door
// (internal/router, `loops router` / `loops cluster`): requests route
// by structural fingerprint so each replica's plan cache stays hot for
// its shard, drift chains keep their affinity, and ring rebalances
// hand hot plan skeletons to the gaining replica instead of
// cold-starting it. The exported client package is the one typed HTTP
// client for both wire formats — by-fingerprint resubmission, drift
// requests, tenant identity and honest-backoff retry — consumed by the
// load generator, the examples and the router's backend leg alike. See
// the "Cluster serving" section of README.md.
//
// The implementation lives under internal/; see README.md for the package
// map and the per-subsystem sections, ROADMAP.md for the open items, and
// bench/README.md for the perf ledger. bench_test.go in this directory
// regenerates every table and figure as Go benchmarks.
package doconsider
