package main

import (
	"strings"
	"testing"
	"time"
)

func TestServeSmoke(t *testing.T) {
	var out strings.Builder
	err := serve(&out, serveConfig{
		procs: 2, clients: 4, requests: 12, batch: 3,
		cacheCap: 4, seed: 3, kind: "pooled",
	})
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"served:", "plan cache:", "hit rate", "latency:",
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
	err := serve(&strings.Builder{}, serveConfig{procs: 1, clients: 0, requests: 1, batch: 1, kind: "sequential"})
	if err == nil {
		t.Fatal("accepted zero clients")
	}
}

// TestServerCommandRunsAndDrains drives the `loops server` subcommand
// lifecycle: it comes up on an ephemeral port, and the stop channel (the
// test's stand-in for SIGINT) triggers a graceful drain.
func TestServerCommandRunsAndDrains(t *testing.T) {
	stop := make(chan struct{})
	done := make(chan error, 1)
	var out strings.Builder
	go func() {
		done <- runServer(&out, serverConfig{
			addr: "127.0.0.1:0", procs: 1, kind: "pooled", cacheCap: 4,
			maxInFlight: 8,
			timeout:     5 * time.Second, drainWait: 10 * time.Second,
		}, stop)
	}()
	time.Sleep(10 * time.Millisecond)
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
	for _, want := range []string{"listening on", "drained"} {
		if !strings.Contains(got, want) {
			t.Errorf("server output missing %q:\n%s", want, got)
		}
	}
}
