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
// end-to-end amortization — shared inspector runs via the plan cache and
// shared executor passes via the request coalescer.
type serveConfig struct {
	procs      int           // processors per plan (0: the server's default)
	clients    int           // concurrent loadgen clients
	requests   int           // total solve requests across all clients
	batch      int           // right-hand sides per request
	cacheCap   int           // plan-cache capacity (skeletons)
	window     time.Duration // coalescing window
	width      int           // max RHS per fused pass
	seed       int64         // loadgen RNG base seed (reproducible runs)
	maxBatch   int           // server-side cap on RHS per request
	compare    bool          // also run with coalescing disabled
	kind       string        // executor kind registry name, or "auto" for adaptive planning
	driftRate  float64       // probability a request structurally drifts its problem
	driftEdits int           // row edits per drift step
}

// serve is the `loops serve` experiment, demoted to a thin driver over
// the serving subsystem: the same server package that backs `loops
// server` runs in-process on 127.0.0.1:0 and the same loadgen that backs
// `loops loadgen` drives it. With -compare it repeats the run with the
// coalescer disabled (-coalesce-window 0) and reports the speedup.
func serve(w io.Writer, cfg serveConfig) error {
	if cfg.clients < 1 || cfg.requests < 1 || cfg.batch < 1 {
		return fmt.Errorf("serve: clients, requests and batch must be positive")
	}
	fmt.Fprintf(w, "serve: %d clients, %d requests, batch %d, %s executor, cache %d, window %s, seed %d\n",
		cfg.clients, cfg.requests, cfg.batch, cfg.kind, cfg.cacheCap, cfg.window, cfg.seed)
	if cfg.driftRate > 0 && cfg.driftEdits > 0 {
		fmt.Fprintf(w, "serve: drifting workload: rate %.2f, %d row edits per drift (base_fp+edits requests)\n",
			cfg.driftRate, cfg.driftEdits)
	}

	rep, stats, err := runServePass(w, cfg, cfg.window)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  coalesced:      %8.1f ms wall, %8.0f solves/s (%d requests x %d RHS)\n",
		rep.elapsed.Seconds()*1e3, rep.throughput(cfg.batch), cfg.requests, cfg.batch)
	printLoadgenReport(w, rep, cfg.batch)
	pc := stats.PlanCache
	fmt.Fprintf(w, "  plan cache:     %d hits, %d coalesced, %d misses, %d evictions (hit rate %.1f%%, %d resident)\n",
		pc.Hits, pc.Coalesced, pc.Misses, pc.Evictions, 100*pc.HitRate(), pc.Resident)
	fmt.Fprintf(w, "  exec coalescer: %d passes for %d requests (%d fused, rate %.1f%%, widest %d)\n",
		stats.Coalesce.Passes, stats.Coalesce.Requests, stats.Coalesce.Fused,
		100*stats.Coalesce.Rate, stats.Coalesce.MaxFused)
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

	if cfg.compare {
		base, _, err := runServePass(w, cfg, 0)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  uncoalesced:    %8.1f ms wall, %8.0f solves/s (-coalesce-window 0 baseline)\n",
			base.elapsed.Seconds()*1e3, base.throughput(cfg.batch))
		if rep.elapsed > 0 {
			fmt.Fprintf(w, "  speedup:        %.2fx\n", base.elapsed.Seconds()/rep.elapsed.Seconds())
		}
	}
	return nil
}

// runServePass stands up one in-process server with the given coalescing
// window, drives it with loadgen, drains it, and returns the loadgen
// report plus the server's final stats snapshot.
func runServePass(w io.Writer, cfg serveConfig, window time.Duration) (*loadgenReport, server.StatsResponse, error) {
	s, err := server.New(server.Config{
		Procs:    cfg.procs,
		Kind:     cfg.kind,
		CacheCap: cfg.cacheCap,
		MaxBatch: cfg.maxBatch,
		Coalesce: server.CoalesceConfig{Window: window, Width: cfg.width},
	})
	if err != nil {
		return nil, server.StatsResponse{}, err
	}
	if err := s.Start("127.0.0.1:0"); err != nil {
		return nil, server.StatsResponse{}, err
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
		return nil, server.StatsResponse{}, err
	}
	if rep.failed > 0 {
		return nil, server.StatsResponse{}, fmt.Errorf("serve: %d requests failed (e.g. %s)", rep.failed, rep.failMsg)
	}
	return rep, stats, nil
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
