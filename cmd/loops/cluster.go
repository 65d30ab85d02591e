package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"doconsider/internal/router"
)

// frontDoorFlags declares the consistent-hash ring's flags into cfg:
// router, cluster and serve -replicas read them.
func frontDoorFlags(fs *flag.FlagSet, cfg *router.Config) {
	fs.IntVar(&cfg.VNodes, "vnodes", 0, "virtual nodes per backend (0 = default 64)")
	fs.IntVar(&cfg.WarmLimit, "warm-limit", 0, "hot fingerprints handed off per losing replica on rebalance (0 = default 32)")
}

// routerCmd is `loops router`: a stateless front door over
// already-running `loops server` replicas.
type routerCmd struct {
	addr, backends string
	front          router.Config
}

func (c *routerCmd) flags(fs *flag.FlagSet) {
	fs.StringVar(&c.addr, "addr", ":8080", "listen address")
	fs.StringVar(&c.backends, "backends", "", "comma-separated replica addresses (host:port)")
	frontDoorFlags(fs, &c.front)
}

func (c *routerCmd) check() (err error) {
	if c.front.Backends, err = parseBackends(c.backends); err != nil {
		return err
	}
	return usageErr(c.front.Validate())
}

func (c *routerCmd) run() error { return runRouter(os.Stdout, c, nil) }

// parseBackends splits the -backends list, rejecting empty entries (a
// stray comma would silently shrink the ring).
func parseBackends(s string) ([]string, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("usage: router requires -backends host:port[,host:port...]")
	}
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			return nil, fmt.Errorf("usage: -backends contains an empty address in %q", s)
		}
		out = append(out, p)
	}
	return out, nil
}

// runRouter routes solve traffic across the backends until interrupted.
// Replicas can join and leave at runtime via POST /v1/cluster/join and
// /v1/cluster/leave. stop, when non-nil, substitutes for SIGINT/SIGTERM.
func runRouter(w io.Writer, c *routerCmd, stop <-chan struct{}) error {
	rt, err := router.New(c.front)
	if err != nil {
		return err
	}
	if err := rt.Start(c.addr); err != nil {
		return err
	}
	fmt.Fprintf(w, "router: listening on %s over %d backends (%s)\n",
		rt.Addr(), len(c.front.Backends), strings.Join(c.front.Backends, ", "))
	fmt.Fprintf(w, "router: POST /v1/trisolve /v1/cluster/join /v1/cluster/leave, GET /v1/stats /healthz /metrics\n")

	waitForStop(stop)

	ctx, cancel := context.WithTimeout(context.Background(), drainWait)
	defer cancel()
	if err := rt.Shutdown(ctx); err != nil {
		return fmt.Errorf("router: drain: %w", err)
	}
	printRouterStats(w, rt.Stats())
	return nil
}

// clusterCmd is `loops cluster`: N in-process replicas on loopback ports
// behind a front door on -addr.
type clusterCmd struct {
	addr     string
	replicas int
	server   serverFlags
	front    router.Config // Backends: the replicas, filled in by router.NewCluster
}

func (c *clusterCmd) flags(fs *flag.FlagSet) {
	fs.StringVar(&c.addr, "addr", ":8080", "front door listen address")
	fs.IntVar(&c.replicas, "replicas", 2, "in-process replica count")
	c.server.flags(fs)
	frontDoorFlags(fs, &c.front)
}

func (c *clusterCmd) check() error { return c.server.check() }
func (c *clusterCmd) run() error   { return runCluster(os.Stdout, c, nil) }

// runCluster serves a self-contained multi-replica deployment until
// interrupted, then drains it and prints the front door's breakdown.
func runCluster(w io.Writer, c *clusterCmd, stop <-chan struct{}) error {
	cl, err := router.NewCluster(c.replicas, c.server.cfg, c.front, c.addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "cluster: front door on %s over %d replicas (%s), %d procs/plan\n",
		cl.Router().Addr(), c.replicas, strings.Join(cl.Addrs(), ", "), clusterProcs(cl))
	fmt.Fprintf(w, "cluster: POST /v1/trisolve, GET /v1/stats /healthz /metrics (router-level)\n")

	waitForStop(stop)

	ctx, cancel := context.WithTimeout(context.Background(), drainWait)
	defer cancel()
	st := cl.Router().Stats()
	if err := cl.Close(ctx); err != nil {
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
