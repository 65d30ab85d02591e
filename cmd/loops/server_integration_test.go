package main

import (
	"context"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"doconsider/internal/server"
)

// TestServerLoadgenIntegration is the end-to-end serving test the CI race
// matrix runs: a real server on 127.0.0.1:0, driven by the real loadgen
// over the recurring problem suite with concurrent clients, followed by
// a graceful drain.
func TestServerLoadgenIntegration(t *testing.T) {
	// Kind is pinned to pooled so concurrent requests run scheduled
	// passes on one plan at once, not only column passes.
	s, err := server.New(server.Config{
		Procs:    2,
		Kind:     "pooled",
		CacheCap: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	baseURL := "http://" + s.Addr()

	var out strings.Builder
	rep, err := loadgen(&out, loadgenConfig{
		baseURL:  baseURL,
		clients:  8,
		requests: 32,
		batch:    2,
		seed:     7,
		problems: []string{"SPE2", "5-PT"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ok != 32 || rep.failed != 0 || rep.refused != 0 {
		t.Fatalf("loadgen report: %d ok, %d refused, %d failed, want 32 clean", rep.ok, rep.refused, rep.failed)
	}
	st := s.Stats()
	if st.CacheHitRate <= 0.5 {
		t.Errorf("plan cache hit rate = %v over a recurring suite, want > 0.5", st.CacheHitRate)
	}
	if st.FactorCache.Hits == 0 {
		t.Error("no factor-cache hits: loadgen's by-fingerprint resubmission is not reaching the server")
	}

	// The metrics exposition is live and carries the serving families.
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"loops_plan_cache_hit_rate",
		"loops_http_in_flight",
		`loops_http_request_seconds_bucket{endpoint="trisolve"`,
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Drain while a second loadgen burst is in flight: every request must
	// resolve (served or refused), none may hang, and the server must
	// refuse traffic afterwards.
	var wg sync.WaitGroup
	var rep2 *loadgenReport
	wg.Add(1)
	go func() {
		defer wg.Done()
		rep2, _ = loadgen(io.Discard, loadgenConfig{
			baseURL: baseURL, clients: 4, requests: 16, batch: 1, seed: 11,
			problems: []string{"SPE2"},
		})
	}()
	time.Sleep(10 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()
	if rep2 != nil {
		if got := rep2.ok + rep2.refused + rep2.failed; got != 16 {
			t.Errorf("drain burst accounted for %d of 16 requests", got)
		}
	}
	if _, err := http.Get(baseURL + "/healthz"); err == nil {
		t.Error("server still serving after shutdown")
	}
}

// TestServerLoadgenBinaryWire drives the same end-to-end stack over the
// zero-copy binary frame protocol, including structural drift (base_fp +
// edits frames), and checks the arena-pooled request memory all came
// back once the run drains.
func TestServerLoadgenBinaryWire(t *testing.T) {
	s, err := server.New(server.Config{
		Procs:    2,
		CacheCap: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	baseURL := "http://" + s.Addr()

	var out strings.Builder
	rep, err := loadgen(&out, loadgenConfig{
		baseURL:    baseURL,
		clients:    6,
		requests:   48,
		batch:      2,
		seed:       13,
		problems:   []string{"SPE2", "5-PT"},
		driftRate:  0.3,
		driftEdits: 2,
		wire:       wireBinary,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ok != 48 || rep.failed != 0 || rep.refused != 0 {
		t.Fatalf("binary loadgen report: %d ok, %d refused, %d failed (%s), want 48 clean",
			rep.ok, rep.refused, rep.failed, rep.failMsg)
	}
	if !strings.Contains(out.String(), "binary wire") {
		t.Errorf("loadgen header does not name the wire format:\n%s", out.String())
	}
	st := s.Stats()
	if st.FactorCache.Hits == 0 {
		t.Error("no factor-cache hits: binary by-fingerprint resubmission is not reaching the server")
	}
	if st.Arena.Gets == 0 {
		t.Error("binary requests were served without touching the request arena pool")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st := s.Stats(); st.Arena.Outstanding != 0 {
		t.Errorf("%d request arenas still outstanding after drain", st.Arena.Outstanding)
	}
}
