package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"doconsider/internal/router"
	"doconsider/internal/server"
)

// serveCmd is `loops serve`: an in-process deployment on loopback ports,
// driven by the same loadgen as `loops loadgen`. One replica is a bare
// server; more stand behind the consistent-hash front door.
type serveCmd struct {
	replicas int
	server   serverFlags
	front    router.Config // Backends: the replicas, filled in by router.NewCluster
	load     loadgenConfig
}

func (c *serveCmd) flags(fs *flag.FlagSet) {
	fs.IntVar(&c.replicas, "replicas", 1, "in-process replicas (1: a bare server; more: behind the consistent-hash front door)")
	c.server.flags(fs)
	frontDoorFlags(fs, &c.front)
	c.load.flags(fs)
}

// check validates both ends. -timeout, the server's default deadline, is
// the client timeout too.
func (c *serveCmd) check() error {
	if c.replicas < 1 {
		return fmt.Errorf("usage: -replicas must be positive, got %d", c.replicas)
	}
	if err := c.server.check(); err != nil {
		return err
	}
	c.load.timeout = c.server.cfg.DefaultTimeout
	return c.load.check()
}

func (c *serveCmd) run() error { return c.serve(os.Stdout, nil) }

// serve stands the deployment up, drives it, drains it and prints the
// report. probe, when non-nil, sees the deployment's URL after the run
// and before the drain (a test hook).
func (c *serveCmd) serve(w io.Writer, probe func(baseURL string)) error {
	cfg := c.load
	var drain func(context.Context) error
	var cl *router.Cluster
	if c.replicas > 1 {
		var err error
		if cl, err = router.NewCluster(c.replicas, c.server.cfg, c.front, "127.0.0.1:0"); err != nil {
			return err
		}
		cfg.baseURL, drain = cl.URL(), cl.Close
		fmt.Fprintf(w, "serve: %d replicas behind a front door, %d procs/plan, %s executor, cache %d\n",
			c.replicas, clusterProcs(cl), c.server.cfg.Kind, c.server.cfg.CacheCap)
	} else {
		s, err := server.New(c.server.cfg)
		if err != nil {
			return err
		}
		if err := s.Start("127.0.0.1:0"); err != nil {
			return err
		}
		cfg.baseURL, drain = "http://"+s.Addr(), s.Shutdown
		fmt.Fprintf(w, "serve: one server, %d procs/plan, %s executor, cache %d\n",
			s.Stats().Planner.Procs, c.server.cfg.Kind, c.server.cfg.CacheCap)
	}
	rep, err := loadgen(w, cfg)
	if probe != nil {
		probe(cfg.baseURL)
	}
	var st router.StatsResponse
	if cl != nil {
		st = cl.Router().Stats()
	}
	ctx, cancel := context.WithTimeout(context.Background(), drainWait)
	defer cancel()
	if derr := drain(ctx); err == nil && derr != nil {
		err = fmt.Errorf("serve: drain: %w", derr)
	}
	if err == nil && cl != nil {
		printRouterStats(w, st)
	}
	return report(w, rep, err, cfg.batch)
}
