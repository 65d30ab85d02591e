package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"doconsider/internal/obs"
	"doconsider/internal/server"
)

// serverConfig parameterizes the `loops server` network mode.
type serverConfig struct {
	addr          string
	debugAddr     string // pprof/runtime debug listener; "" disables
	procs         int    // processors per plan (0: the server's default)
	kind          string
	cacheCap      int
	maxInFlight   int
	maxBatch      int
	timeout       time.Duration
	drainWait     time.Duration
	tenantWeights map[string]int // per-tenant DRR weights (nil = everyone weight 1)
	tenantQuota   int            // per-tenant in-flight quota (0 = unlimited)
	tenantQueue   int            // per-tenant per-class admission queue depth
	tenantMax     int            // tenant cardinality cap before pooling into "other"
}

func (c serverConfig) serverOptions() server.Config {
	return server.Config{
		Procs:          c.procs,
		Kind:           c.kind,
		CacheCap:       c.cacheCap,
		MaxBatch:       c.maxBatch,
		DefaultTimeout: c.timeout,
		Admission: server.AdmissionConfig{
			MaxInFlight: c.maxInFlight,
			Queue:       c.tenantQueue,
		},
		Tenant: server.TenantConfig{
			Weights: c.tenantWeights,
			Quota:   c.tenantQuota,
			Max:     c.tenantMax,
		},
	}
}

// runServer is the `loops server` experiment: serve the trisolve API on a
// network address until interrupted, then drain gracefully (accepted
// requests finish, new ones are refused). stop, when non-nil, substitutes
// for SIGINT/SIGTERM in tests.
func runServer(w io.Writer, cfg serverConfig, stop <-chan struct{}) error {
	s, err := server.New(cfg.serverOptions())
	if err != nil {
		return err
	}
	if err := s.Start(cfg.addr); err != nil {
		return err
	}
	fmt.Fprintf(w, "server: listening on %s (%d procs/plan, %s executor, max in-flight %d)\n",
		s.Addr(), s.Stats().Planner.Procs, cfg.kind, cfg.maxInFlight)
	fmt.Fprintf(w, "server: POST /v1/trisolve, GET /v1/stats /v1/trace /v1/trace/slowest /healthz /metrics\n")

	// The debug listener is a separate port on purpose: pprof endpoints
	// can stall the world and must not share the serving mux or its
	// admission control.
	var debugSrv *http.Server
	if cfg.debugAddr != "" {
		ln, err := net.Listen("tcp", cfg.debugAddr)
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

	if stop == nil {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(sig)
		<-sig
	} else {
		<-stop
	}

	fmt.Fprintf(w, "server: draining (up to %s)...\n", cfg.drainWait)
	ctx, cancel := context.WithTimeout(context.Background(), cfg.drainWait)
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
