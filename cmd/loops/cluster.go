package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"doconsider/internal/router"
)

// routerCmdConfig parameterizes the `loops router` network mode: a
// stateless front door over already-running `loops server` replicas.
type routerCmdConfig struct {
	addr      string
	backends  []string
	vnodes    int
	warmLimit int
	drainWait time.Duration
}

// runRouter is the `loops router` experiment: consistent-hash solve
// traffic across -backends until interrupted. Replicas can join and
// leave at runtime via POST /v1/cluster/join and /v1/cluster/leave.
func runRouter(w io.Writer, cfg routerCmdConfig, stop <-chan struct{}) error {
	rt, err := router.New(router.Config{
		Backends:  cfg.backends,
		VNodes:    cfg.vnodes,
		WarmLimit: cfg.warmLimit,
	})
	if err != nil {
		return err
	}
	if err := rt.Start(cfg.addr); err != nil {
		return err
	}
	fmt.Fprintf(w, "router: listening on %s over %d backends (%s)\n",
		rt.Addr(), len(cfg.backends), strings.Join(cfg.backends, ", "))
	fmt.Fprintf(w, "router: POST /v1/trisolve /v1/cluster/join /v1/cluster/leave, GET /v1/stats /healthz /metrics\n")

	waitForStop(stop)

	ctx, cancel := context.WithTimeout(context.Background(), cfg.drainWait)
	defer cancel()
	if err := rt.Shutdown(ctx); err != nil {
		return fmt.Errorf("router: drain: %w", err)
	}
	printRouterStats(w, rt.Stats())
	return nil
}

// clusterCmdConfig parameterizes the `loops cluster` mode: N in-process
// replicas behind a front door on one address.
type clusterCmdConfig struct {
	addr     string
	replicas int
	server   serverConfig
}

// runCluster is the `loops cluster` experiment: a self-contained
// multi-replica deployment (replica servers on loopback ports, front
// door on -addr) serving until interrupted.
func runCluster(w io.Writer, cfg clusterCmdConfig, stop <-chan struct{}) error {
	c, err := router.NewCluster(cfg.replicas, cfg.server.serverOptions(), router.Config{}, cfg.addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "cluster: front door on %s over %d replicas (%s), %d procs/plan\n",
		c.Router().Addr(), cfg.replicas, strings.Join(c.Addrs(), ", "), clusterProcs(c))
	fmt.Fprintf(w, "cluster: POST /v1/trisolve, GET /v1/stats /healthz /metrics (router-level)\n")

	waitForStop(stop)

	ctx, cancel := context.WithTimeout(context.Background(), cfg.server.drainWait)
	defer cancel()
	st := c.Router().Stats()
	if err := c.Close(ctx); err != nil {
		return fmt.Errorf("cluster: drain: %w", err)
	}
	printRouterStats(w, st)
	return nil
}

// waitForStop blocks on the test hook when given, else on SIGINT/SIGTERM.
func waitForStop(stop <-chan struct{}) {
	if stop != nil {
		<-stop
		return
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	<-sig
}

// printRouterStats renders the front door's per-backend breakdown and
// rebalance history in the loadgen report style.
func printRouterStats(w io.Writer, st router.StatsResponse) {
	fmt.Fprintf(w, "  router: %d requests (%d bad, %d unroutable, %d retries, %d failures), %d affinity pins (%d hits)\n",
		st.Requests, st.BadRequests, st.NoBackend, st.Retries, st.Failures, st.AffinitySize, st.AffinityHits)
	for _, b := range st.Backends {
		state := "healthy"
		if !b.Healthy {
			state = "unhealthy"
		}
		fmt.Fprintf(w, "    backend %-21s %-9s routed %6d  retried %4d  failed %4d\n",
			b.Addr, state, b.Routed, b.Retried, b.Failed)
	}
	for _, ev := range st.Rebalances {
		fmt.Fprintf(w, "    rebalance %-5s %-21s moved %3d  warmed %3d  (%.1f ms)\n",
			ev.Kind, ev.Addr, ev.Moved, ev.Warmed, ev.Ms)
	}
}

// clusterProcs is the processors per plan of the cluster's replicas,
// which share one configuration.
func clusterProcs(c *router.Cluster) int {
	return c.Server(c.Addrs()[0]).Stats().Planner.Procs
}
