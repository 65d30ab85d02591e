package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"doconsider/internal/obs"
	"doconsider/internal/server"
)

// drainWait bounds every serving command's graceful drain.
const drainWait = 30 * time.Second

// serverFlags is the one registration of the server flags: server,
// cluster and serve declare it, and check builds from it the one
// server.Config those commands start servers from.
type serverFlags struct {
	procs, cacheCap, maxInFlight, maxBatch int
	kind, tenantWeights                    string
	timeout                                time.Duration
	tenantQuota, tenantQueue, tenantMax    int

	cfg server.Config // built and validated by check
}

func (f *serverFlags) flags(fs *flag.FlagSet) {
	fs.IntVar(&f.procs, "procs", 0, "processors per plan (0: runtime.GOMAXPROCS(0))")
	fs.StringVar(&f.kind, "kind", server.KindAuto, "executor kind, or \"auto\" for adaptive planning")
	fs.IntVar(&f.cacheCap, "cache", 8, "plan cache capacity")
	fs.IntVar(&f.maxInFlight, "max-inflight", 64, "admission-control bound on concurrent solves")
	fs.IntVar(&f.maxBatch, "max-batch", 64, "max right-hand sides accepted per request")
	fs.DurationVar(&f.timeout, "timeout", 30*time.Second, "default per-request deadline")
	fs.StringVar(&f.tenantWeights, "tenant-weights", "", "per-tenant DRR weights, e.g. lat-0=8,batch-1=1 (unlisted tenants weigh 1)")
	fs.IntVar(&f.tenantQuota, "tenant-quota", 0, "per-tenant in-flight quota; over-quota requests shed 429 (0 = unlimited)")
	fs.IntVar(&f.tenantQueue, "tenant-queue", 0, "per-tenant per-class admission queue depth (0 = default 16, negative sheds immediately)")
	fs.IntVar(&f.tenantMax, "tenant-max", 0, "tenant metric-cardinality cap; overflow pools into \"other\" (0 = default 32)")
}

// check builds cfg from the parsed flags and runs its Validate, so a bad
// value is a usage error before any server starts.
func (f *serverFlags) check() error {
	weights, err := parseTenantWeights(f.tenantWeights)
	if err != nil {
		return err
	}
	f.cfg = server.Config{
		Procs:          f.procs,
		Kind:           f.kind,
		CacheCap:       f.cacheCap,
		MaxBatch:       f.maxBatch,
		DefaultTimeout: f.timeout,
		Admission:      server.AdmissionConfig{MaxInFlight: f.maxInFlight, Queue: f.tenantQueue},
		Tenant:         server.TenantConfig{Weights: weights, Quota: f.tenantQuota, Max: f.tenantMax},
	}
	return usageErr(f.cfg.Validate())
}

// parseTenantWeights parses the -tenant-weights flag, a comma-separated
// name=weight list. Weights must be positive integers; unlisted tenants
// default to weight 1 server-side.
func parseTenantWeights(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	weights := make(map[string]int)
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("usage: -tenant-weights entry %q is not name=weight", part)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("usage: -tenant-weights weight for %q must be a positive integer, got %q", name, val)
		}
		weights[name] = w
	}
	return weights, nil
}

// serverCmd is `loops server`: the trisolve API on -addr until
// interrupted.
type serverCmd struct {
	addr, debugAddr string
	server          serverFlags
}

func (c *serverCmd) flags(fs *flag.FlagSet) {
	fs.StringVar(&c.addr, "addr", ":8080", "listen address")
	fs.StringVar(&c.debugAddr, "debug-addr", "", "pprof/runtime debug listener address (empty disables)")
	c.server.flags(fs)
}

func (c *serverCmd) check() error { return c.server.check() }
func (c *serverCmd) run() error   { return runServer(os.Stdout, c, nil) }

// runServer serves the trisolve API on c.addr until interrupted, then
// drains gracefully (accepted requests finish, new ones are refused).
// stop, when non-nil, substitutes for SIGINT/SIGTERM in tests.
func runServer(w io.Writer, c *serverCmd, stop <-chan struct{}) error {
	s, err := server.New(c.server.cfg)
	if err != nil {
		return err
	}
	if err := s.Start(c.addr); err != nil {
		return err
	}
	fmt.Fprintf(w, "server: listening on %s (%d procs/plan, %s executor, max in-flight %d)\n",
		s.Addr(), s.Stats().Planner.Procs, c.server.cfg.Kind, c.server.cfg.Admission.MaxInFlight)
	fmt.Fprintf(w, "server: POST /v1/trisolve, GET /v1/stats /v1/trace /v1/trace/slowest /healthz /metrics\n")

	// The debug listener is a separate port on purpose: pprof endpoints
	// can stall the world and must not share the serving mux or its
	// admission control.
	var debugSrv *http.Server
	if c.debugAddr != "" {
		ln, err := net.Listen("tcp", c.debugAddr)
		if err != nil {
			return fmt.Errorf("server: debug listener: %w", err)
		}
		debugSrv = &http.Server{Handler: obs.DebugHandler()}
		go func() {
			if err := debugSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(w, "server: debug listener: %v\n", err)
			}
		}()
		fmt.Fprintf(w, "server: debug listener on %s (GET /debug/pprof/ /debug/runtime)\n", ln.Addr())
	}

	waitForStop(stop)

	fmt.Fprintf(w, "server: draining (up to %s)...\n", drainWait)
	ctx, cancel := context.WithTimeout(context.Background(), drainWait)
	defer cancel()
	if debugSrv != nil {
		_ = debugSrv.Close() // nothing to drain: profiles are best-effort
	}
	if err := s.Shutdown(ctx); err != nil {
		return fmt.Errorf("server: drain: %w", err)
	}
	st := s.Stats()
	fmt.Fprintf(w, "server: drained; served %d requests (%d shed), cache hit rate %.1f%%\n",
		st.Accepted, st.Shed, 100*st.CacheHitRate)
	return nil
}
