package main

import (
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestServeSmoke(t *testing.T) {
	c := mustParse(t, "serve", "-procs", "2", "-clients", "4", "-requests", "12",
		"-batch", "3", "-cache", "4", "-seed", "3", "-kind", "pooled").(*serveCmd)
	var out strings.Builder
	if err := c.serve(&out, nil); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"serve: one server", "pooled executor", "solves/s", "plan cache:", "hit rate", "latency:",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("serve output missing %q:\n%s", want, got)
		}
	}
}

func TestServeFlagPlumbing(t *testing.T) {
	if err := run([]string{"serve", "-clients", "2", "-requests", "4", "-batch", "2",
		"-cache", "2", "-kind", "self-executing", "-procs", "2",
		"-seed", "42"}); err != nil {
		t.Fatal(err)
	}
	// Kind 0 regression: an explicit sequential executor must be honored,
	// not silently replaced by the pooled default.
	if err := run([]string{"serve", "-clients", "2", "-requests", "4", "-batch", "2",
		"-kind", "sequential", "-procs", "1"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"serve", "-kind", "bogus"}); err == nil {
		t.Fatal("accepted unknown executor kind")
	}
	if err := run([]string{"server", "-kind", "bogus"}); err == nil {
		t.Fatal("server accepted unknown executor kind")
	}
	if err := run([]string{"loadgen", "-requests", "0"}); err == nil {
		t.Fatal("loadgen accepted zero requests")
	}
}

func TestServeRejectsBadConfig(t *testing.T) {
	err := run([]string{"serve", "-procs", "1", "-clients", "0", "-kind", "sequential"})
	if err == nil || !strings.Contains(err.Error(), "usage:") {
		t.Fatalf("serve -clients 0 = %v, want a usage error", err)
	}
}

// TestServeServerFlags pins that serve's server flags reach the one
// server.Config it starts, and that -timeout is both the server's
// default deadline and the client timeout. serve once ignored all of
// them.
func TestServeServerFlags(t *testing.T) {
	c := mustParse(t, "serve", "-timeout", "3s", "-max-inflight", "5",
		"-tenant-weights", "lat-0=4,batch-1=1", "-tenant-quota", "2",
		"-tenant-queue", "-1", "-tenant-max", "7").(*serveCmd)
	cfg := c.server.cfg
	if cfg.DefaultTimeout != 3*time.Second || c.load.timeout != 3*time.Second {
		t.Errorf("-timeout 3s: server deadline %s, client timeout %s", cfg.DefaultTimeout, c.load.timeout)
	}
	if cfg.Admission.MaxInFlight != 5 || cfg.Admission.Queue != -1 {
		t.Errorf("admission = %+v, want MaxInFlight 5, Queue -1", cfg.Admission)
	}
	if cfg.Tenant.Quota != 2 || cfg.Tenant.Max != 7 ||
		cfg.Tenant.Weights["lat-0"] != 4 || cfg.Tenant.Weights["batch-1"] != 1 {
		t.Errorf("tenant = %+v", cfg.Tenant)
	}
}

// TestServeBinaryWire pins that serve -wire binary sends DCWF frames:
// the server's binary-wire solve endpoint counts the run's requests.
// serve once ignored -wire and spoke JSON.
func TestServeBinaryWire(t *testing.T) {
	c := mustParse(t, "serve", "-wire", "binary", "-procs", "1", "-clients", "2",
		"-requests", "6", "-batch", "1").(*serveCmd)
	var out strings.Builder
	binary := -1
	err := c.serve(&out, func(baseURL string) {
		binary = trisolveCount(t, baseURL, "binary")
	})
	if err != nil {
		t.Fatal(err)
	}
	if binary <= 0 {
		t.Errorf("binary-wire solve endpoint counted %d requests, want > 0:\n%s", binary, out.String())
	}
}

// trisolveCount reads the server's count of 200 solve replies on one
// wire from /metrics.
func trisolveCount(t *testing.T, baseURL, wire string) int {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	series := `loops_http_requests_total{endpoint="trisolve",wire="` + wire + `",code="200"} `
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, series); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return n
		}
	}
	t.Fatalf("/metrics has no %s series", series)
	return 0
}

// TestServerCommandRunsAndDrains drives the `loops server` subcommand
// lifecycle: it comes up on an ephemeral port, and the stop channel (the
// test's stand-in for SIGINT) triggers a graceful drain.
func TestServerCommandRunsAndDrains(t *testing.T) {
	c := mustParse(t, "server", "-addr", "127.0.0.1:0", "-procs", "1", "-kind", "pooled",
		"-cache", "4", "-max-inflight", "8", "-timeout", "5s").(*serverCmd)
	stop := make(chan struct{})
	done := make(chan error, 1)
	var out syncBuffer
	go func() {
		done <- runServer(&out, c, stop)
	}()
	waitForAddr(t, &out, "server: listening on ")
	close(stop)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not drain")
	}
	got := out.String()
	for _, want := range []string{"listening on", "max in-flight 8", "drained"} {
		if !strings.Contains(got, want) {
			t.Errorf("server output missing %q:\n%s", want, got)
		}
	}
}
