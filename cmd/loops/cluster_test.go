package main

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"doconsider/client"
	"doconsider/internal/router"
	"doconsider/internal/server"
)

// syncBuffer is an io.Writer the test can read while the command
// goroutine is still writing (runRouter/runCluster print their listen
// line before blocking on the stop channel).
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// waitForAddr polls the buffer until the line containing marker appears
// and returns the host:port token that follows it.
func waitForAddr(t *testing.T, out *syncBuffer, marker string) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		got := out.String()
		if i := strings.Index(got, marker); i >= 0 {
			rest := got[i+len(marker):]
			if j := strings.IndexByte(rest, ' '); j > 0 {
				return rest[:j]
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("command never printed %q:\n%s", marker, out.String())
	return ""
}

func shutdownServer(t *testing.T, s *server.Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("replica shutdown: %v", err)
	}
}

func TestParseBackends(t *testing.T) {
	got, err := parseBackends(" 10.0.0.1:9000 ,10.0.0.2:9000")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "10.0.0.1:9000" || got[1] != "10.0.0.2:9000" {
		t.Fatalf("parseBackends = %v", got)
	}
	if _, err := parseBackends(""); err == nil {
		t.Error("accepted an empty backend list")
	}
	if _, err := parseBackends("a:1,,b:2"); err == nil {
		t.Error("accepted an empty backend entry")
	}
	if err := run([]string{"router"}); err == nil {
		t.Error("router command accepted no -backends")
	}
}

// TestRouterCommandRunsAndDrains drives the `loops router` subcommand
// lifecycle against two real replica servers: it comes up, routes a
// loadgen burst, and the stop channel (the test's stand-in for SIGINT)
// triggers a graceful drain that prints the per-backend breakdown.
func TestRouterCommandRunsAndDrains(t *testing.T) {
	var addrs []string
	for i := 0; i < 2; i++ {
		s, err := server.New(server.Config{Procs: 1, CacheCap: 8})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		defer shutdownServer(t, s)
		addrs = append(addrs, s.Addr())
	}

	c := mustParse(t, "router", "-addr", "127.0.0.1:0", "-backends", strings.Join(addrs, ",")).(*routerCmd)
	stop := make(chan struct{})
	done := make(chan error, 1)
	var out syncBuffer
	go func() {
		done <- runRouter(&out, c, stop)
	}()
	front := waitForAddr(t, &out, "router: listening on ")

	rep, err := loadgen(io.Discard, loadgenConfig{
		baseURL: "http://" + front, clients: 2, requests: 8, batch: 1,
		seed: 5, problems: []string{"SPE2", "5-PT"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ok != 8 || rep.failed != 0 {
		t.Fatalf("loadgen through router: %d ok, %d failed (%s)", rep.ok, rep.failed, rep.failMsg)
	}

	close(stop)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("router did not drain")
	}
	got := out.String()
	for _, want := range []string{"router: listening on", "router:", "backend " + addrs[0], "backend " + addrs[1]} {
		if !strings.Contains(got, want) {
			t.Errorf("router output missing %q:\n%s", want, got)
		}
	}
}

// TestClusterCommandRunsAndDrains drives the `loops cluster` subcommand:
// a self-contained front door plus replicas on one command line, serving
// a loadgen burst and draining on stop with the router report.
func TestClusterCommandRunsAndDrains(t *testing.T) {
	c := mustParse(t, "cluster", "-addr", "127.0.0.1:0", "-replicas", "2",
		"-procs", "1", "-kind", "pooled", "-cache", "4", "-vnodes", "16", "-warm-limit", "4").(*clusterCmd)
	if c.front.VNodes != 16 || c.front.WarmLimit != 4 {
		t.Fatalf("-vnodes 16 -warm-limit 4 parsed as %+v", c.front)
	}
	stop := make(chan struct{})
	done := make(chan error, 1)
	var out syncBuffer
	go func() {
		done <- runCluster(&out, c, stop)
	}()
	front := waitForAddr(t, &out, "cluster: front door on ")

	// cluster once passed an empty router.Config and dropped -vnodes: the
	// front door's ring reports what it was built with.
	var st router.StatsResponse
	if err := client.New("http://"+front).GetJSON(context.Background(), "/v1/stats", &st); err != nil {
		t.Fatal(err)
	}
	if st.VNodes != 16 {
		t.Errorf("front door ring has %d vnodes per backend, want -vnodes 16", st.VNodes)
	}

	rep, err := loadgen(io.Discard, loadgenConfig{
		baseURL: "http://" + front, clients: 2, requests: 8, batch: 1,
		seed: 9, problems: []string{"SPE2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ok != 8 || rep.failed != 0 {
		t.Fatalf("loadgen through cluster: %d ok, %d failed (%s)", rep.ok, rep.failed, rep.failMsg)
	}

	close(stop)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cluster did not drain")
	}
	got := out.String()
	for _, want := range []string{"cluster: front door on", "over 2 replicas", "router:", "backend "} {
		if !strings.Contains(got, want) {
			t.Errorf("cluster output missing %q:\n%s", want, got)
		}
	}
}

// TestServeReplicasFrontDoor drives `loops serve -replicas 2`, which
// replaced `loadgen -cluster N`: an in-process cluster is built, driven
// through its front door, and reported on one command line.
func TestServeReplicasFrontDoor(t *testing.T) {
	c := mustParse(t, "serve", "-replicas", "2", "-clients", "2",
		"-requests", "6", "-batch", "1", "-procs", "1", "-seed", "3", "-vnodes", "16").(*serveCmd)
	var out strings.Builder
	if err := c.serve(&out, nil); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "serve: 2 replicas behind a front door") {
		t.Errorf("serve -replicas 2 did not build a cluster:\n%s", got)
	}
	// The front door routed the warmup and all 6 timed requests.
	var routed int
	if i := strings.Index(got, "  router: "); i < 0 {
		t.Errorf("no front-door report:\n%s", got)
	} else if _, err := fmt.Sscanf(got[i:], "  router: %d requests", &routed); err != nil || routed < 6 {
		t.Errorf("front door routed %d requests (%v), want >= 6:\n%s", routed, err, got)
	}
	if strings.Count(got, "    backend ") != 2 {
		t.Errorf("want a routed line per replica:\n%s", got)
	}
	if err := run([]string{"serve", "-replicas", "2", "-kind", "bogus"}); err == nil {
		t.Fatal("serve -replicas accepted an unknown executor kind")
	}
}

// TestLoadgenTenantTraceReport drives loadgen's observability surface
// against a real server: the -tenants adversarial mix produces the
// per-tenant table and -trace produces the per-stage latency table.
func TestLoadgenTenantTraceReport(t *testing.T) {
	s, err := server.New(server.Config{Procs: 1, CacheCap: 8, TraceSampleEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer shutdownServer(t, s)

	var out strings.Builder
	rep, err := loadgen(&out, loadgenConfig{
		baseURL: "http://" + s.Addr(), clients: 3, requests: 18, batch: 1,
		seed: 21, problems: []string{"SPE2"}, tenants: 3, trace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ok != 18 || rep.failed != 0 {
		t.Fatalf("loadgen: %d ok, %d failed (%s)", rep.ok, rep.failed, rep.failMsg)
	}
	if len(rep.perTenant) != 3 {
		t.Fatalf("per-tenant breakdown has %d tenants, want 3", len(rep.perTenant))
	}
	printLoadgenReport(&out, rep, 1)
	got := out.String()
	for _, want := range []string{"tenants:", "lat-0", "latency", "batch-1", "batch-2"} {
		if !strings.Contains(got, want) {
			t.Errorf("report missing %q:\n%s", want, got)
		}
	}
	// TraceSampleEvery=1 traces every request, so the stage table is
	// deterministic: every stage sample lands in the ring.
	if len(rep.stageMs) == 0 {
		t.Fatal("trace fetch returned no per-stage samples despite 1-in-1 sampling")
	}
	if !strings.Contains(got, "stages (server-side") {
		t.Errorf("stage samples collected but not rendered:\n%s", got)
	}
}

// TestLoadgenFrontDoorStats: loadgen against a front door reports the
// run's routing deltas from the router's /v1/stats, not a server's cache
// lines read from a reply that has none.
func TestLoadgenFrontDoorStats(t *testing.T) {
	cl, err := router.NewCluster(2, server.Config{Procs: 1, CacheCap: 8}, router.Config{}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := cl.Close(context.Background()); err != nil {
			t.Error(err)
		}
	}()
	var out strings.Builder
	rep, err := loadgen(&out, loadgenConfig{
		baseURL: cl.URL(), clients: 2, requests: 8, batch: 1,
		seed: 7, problems: []string{"SPE2", "5-PT"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ok != 8 || rep.failed != 0 {
		t.Fatalf("loadgen through the front door: %d ok, %d failed (%s)", rep.ok, rep.failed, rep.failMsg)
	}
	if rep.statsOK {
		t.Error("read the front door's stats as a server's")
	}
	// The warmup registered both factors, so the 8 timed requests all
	// resubmit by fingerprint.
	if f := rep.front; f == nil || f.Requests != 8 || f.Retries != 0 || f.Failures != 0 || f.RouteKinds["fp"] != 8 {
		t.Fatalf("front-door deltas %+v, want 8 requests, all by fingerprint", rep.front)
	}
	printLoadgenReport(&out, rep, 1)
	got := out.String()
	if !strings.Contains(got, "  front door: 8 requests, 0 retries, 0 failures; routes fp:8\n") {
		t.Errorf("report has no front-door line:\n%s", got)
	}
	for _, absent := range []string{"server:", "plan cache:"} {
		if strings.Contains(got, absent) {
			t.Errorf("report prints %q for a front door:\n%s", absent, got)
		}
	}
}
