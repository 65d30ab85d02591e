package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"doconsider/internal/executor"
	"doconsider/internal/server"
)

// serveConfig parameterizes the repeated-workload (serving) demo: it
// stands up the real network server (internal/server) on a loopback
// port, drives it with the in-process load generator, and reports the
// end-to-end amortization — shared inspector runs via the plan cache,
// each request one executor pass on the shared workers.
type serveConfig struct {
	procs      int     // processors per plan (0: the server's default)
	clients    int     // concurrent loadgen clients
	requests   int     // total solve requests across all clients
	batch      int     // right-hand sides per request
	cacheCap   int     // plan-cache capacity (skeletons)
	seed       int64   // loadgen RNG base seed (reproducible runs)
	maxBatch   int     // server-side cap on RHS per request
	kind       string  // executor kind registry name, or "auto" for adaptive planning
	driftRate  float64 // probability a request structurally drifts its problem
	driftEdits int     // row edits per drift step
}

// serve is the `loops serve` experiment, a thin driver over the serving
// subsystem: the same server package that backs `loops server` runs
// in-process on 127.0.0.1:0, the same loadgen that backs `loops loadgen`
// drives it, and the server drains before the report.
func serve(w io.Writer, cfg serveConfig) error {
	if cfg.clients < 1 || cfg.requests < 1 || cfg.batch < 1 {
		return fmt.Errorf("serve: clients, requests and batch must be positive")
	}
	fmt.Fprintf(w, "serve: %d clients, %d requests, batch %d, %s executor, cache %d, seed %d\n",
		cfg.clients, cfg.requests, cfg.batch, cfg.kind, cfg.cacheCap, cfg.seed)
	if cfg.driftRate > 0 && cfg.driftEdits > 0 {
		fmt.Fprintf(w, "serve: drifting workload: rate %.2f, %d row edits per drift (base_fp+edits requests)\n",
			cfg.driftRate, cfg.driftEdits)
	}

	s, err := server.New(server.Config{
		Procs:    cfg.procs,
		Kind:     cfg.kind,
		CacheCap: cfg.cacheCap,
		MaxBatch: cfg.maxBatch,
	})
	if err != nil {
		return err
	}
	if err := s.Start("127.0.0.1:0"); err != nil {
		return err
	}
	rep, err := loadgen(w, loadgenConfig{
		baseURL:    "http://" + s.Addr(),
		clients:    cfg.clients,
		requests:   cfg.requests,
		batch:      cfg.batch,
		seed:       cfg.seed,
		driftRate:  cfg.driftRate,
		driftEdits: cfg.driftEdits,
		quiet:      true,
	})
	stats := s.Stats()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if serr := s.Shutdown(ctx); err == nil && serr != nil {
		err = fmt.Errorf("serve: drain: %w", serr)
	}
	if err != nil {
		return err
	}
	if rep.failed > 0 {
		return fmt.Errorf("serve: %d requests failed (e.g. %s)", rep.failed, rep.failMsg)
	}

	fmt.Fprintf(w, "  served:         %8.1f ms wall, %8.0f solves/s (%d requests x %d RHS)\n",
		rep.elapsed.Seconds()*1e3, rep.throughput(cfg.batch), cfg.requests, cfg.batch)
	printLoadgenReport(w, rep, cfg.batch)
	pc := stats.PlanCache
	fmt.Fprintf(w, "  plan cache:     %d hits, %d coalesced, %d misses, %d evictions (hit rate %.1f%%, %d resident)\n",
		pc.Hits, pc.Coalesced, pc.Misses, pc.Evictions, 100*pc.HitRate(), pc.Resident)
	if stats.Delta.Repairs+stats.Delta.Fallbacks > 0 {
		fmt.Fprintf(w, "  delta repair:   %d plan misses repaired from a resident ancestor, %d rebuilt, %d rows releveled\n",
			stats.Delta.Repairs, stats.Delta.Fallbacks, stats.Delta.ConeRows)
	}
	if len(stats.Planner.Counts) > 0 {
		fmt.Fprintf(w, "  planner:        kind=%s decisions: %s\n",
			stats.Planner.Kind, formatPlannerCounts(stats.Planner.Counts))
	}
	if sn := stats.Supernode; sn.FusedPlans > 0 {
		fmt.Fprintf(w, "  supernode:      %d fused plans: %d nodes over %d rows (%.1f%% fused, max width %d)\n",
			sn.FusedPlans, sn.Nodes, sn.Rows, 100*sn.FusedFrac, sn.MaxWidth)
	}
	return nil
}

// parseKind validates an executor kind registry name; "auto" selects
// adaptive planning (the planner picks the strategy per structure).
func parseKind(name string) (string, error) {
	if name == server.KindAuto {
		return name, nil
	}
	if _, err := executor.KindByName(name); err != nil {
		return "", err
	}
	return name, nil
}
