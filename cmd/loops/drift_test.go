package main

import (
	"context"
	"strings"
	"testing"
	"time"

	"doconsider/client"
	"doconsider/internal/problems"
	"doconsider/internal/server"
	"doconsider/internal/synthetic"
	"math/rand"
)

// TestServeDriftSmoke drives the in-process serving demo with a
// drifting workload and checks the drift/repair reporting surfaces.
func TestServeDriftSmoke(t *testing.T) {
	c := mustParse(t, "serve", "-procs", "2", "-clients", "4", "-requests", "40", "-batch", "2",
		"-cache", "8", "-seed", "7", "-drift-rate", "0.5", "-drift-edits", "4").(*serveCmd)
	var out strings.Builder
	if err := c.serve(&out, nil); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"drifting workload", "drift:", "drifted requests"} {
		if !strings.Contains(got, want) {
			t.Errorf("serve drift output missing %q:\n%s", want, got)
		}
	}
}

// TestDriftFactorNoFingerprintFallsThrough pins the degenerate drift
// path that once deadlocked: a factor whose fingerprint is not yet
// known must fall through to a plain full submission (the loadgen
// checks State().Fp before attempting a drift), complete without
// blocking, and commit the returned fingerprint — after which a real
// drift request round-trips.
func TestDriftFactorNoFingerprintFallsThrough(t *testing.T) {
	s, err := server.New(server.Config{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()
	p := problems.MustGet("5-PT")
	f := client.NewFactor(p.L, true) // fp never registered
	cli := client.New("http://" + s.Addr())
	rng := rand.New(rand.NewSource(9))
	b := randomBatch(rng, 1, p.L.N)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if st := f.State(); st.Fp != "" {
		t.Fatalf("fresh factor has fingerprint %q, want none", st.Fp)
	}
	resp, err := f.Solve(ctx, cli, b)
	if err != nil {
		t.Fatalf("fall-through full submission: %v", err)
	}
	if resp.Fp == "" || f.Fp() != resp.Fp {
		t.Fatalf("fingerprint not committed: response %q, factor %q", resp.Fp, f.Fp())
	}

	// With the base registered, a real drift request round-trips and
	// advances the factor to the server's new fingerprint.
	st := f.State()
	edits := synthetic.DriftLower(rng, st.Cur, p.Wf, 3, 0.3)
	if len(edits) == 0 {
		t.Skip("structure admits no drift with this seed")
	}
	dresp, fellBack, err := f.Drift(ctx, cli, st, edits, b)
	if err != nil {
		t.Fatalf("drift request: %v", err)
	}
	if fellBack {
		t.Error("drift against a registered base fell back to a full ship")
	}
	if dresp.Fp == st.Fp || f.Fp() != dresp.Fp {
		t.Fatalf("drift did not advance the fingerprint: base %q, response %q, factor %q",
			st.Fp, dresp.Fp, f.Fp())
	}
}
