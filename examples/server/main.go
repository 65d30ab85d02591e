// Server is a runnable client walkthrough of the serving subsystem: it
// starts the trisolve server in-process on a loopback port (exactly what
// `loops server` serves on a real address), then acts as a client
// through the exported client package — submitting a factor with a full
// request, resubmitting it by content fingerprint, resubmitting once
// more over the zero-copy binary frame protocol, firing concurrent
// requests that each solve on a pass of their own, and finally scraping
// /v1/stats and /metrics. Point baseURL at a remote `loops server` (or
// a `loops router` front door — same surface) to run the same client
// over the network.
package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"time"

	"doconsider/client"
	"doconsider/internal/ilu"
	"doconsider/internal/server"
	"doconsider/internal/stencil"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "server example:", err)
		os.Exit(1)
	}
}

func run() error {
	srv, err := server.New(server.Config{Procs: 2})
	if err != nil {
		return err
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return err
	}
	baseURL := "http://" + srv.Addr()
	fmt.Printf("server listening on %s\n\n", srv.Addr())
	ctx := context.Background()

	// The typed client owns all request encoding: one for the JSON wire,
	// one for the DCWF binary frame wire. Both speak to the same server.
	cli := client.New(baseURL)
	bcli := client.New(baseURL, client.WithWire(client.WireBinary))

	// The factor: L from the zero-fill factorization of a 63x63 mesh —
	// the paper's 5-PT workload.
	a := stencil.FivePoint(63)
	pat, err := ilu.Symbolic(a, 0)
	if err != nil {
		return err
	}
	fact, err := ilu.NumericSeq(a, pat)
	if err != nil {
		return err
	}
	l := fact.L()
	rng := rand.New(rand.NewSource(1))
	b := make([]float64, l.N)
	for i := range b {
		b[i] = rng.Float64()
	}

	// 1. Full submission: ship the CSR structure + values + one RHS.
	// Factor wraps the recurring-traffic idiom — first Solve registers
	// the matrix and remembers the server's content fingerprint.
	f := client.NewFactor(l, true)
	sr, err := f.Solve(ctx, cli, [][]float64{b})
	if err != nil {
		return err
	}
	x1, err := sr.Solutions()
	if err != nil {
		return err
	}
	fmt.Printf("full submission:   n=%d nnz=%d -> x[0]=%.6f, factor fingerprint %s\n",
		l.N, l.NNZ(), x1[0][0], sr.Fp)

	// 2. Recurring traffic: resubmit by fingerprint — no matrix on the
	// wire, and the client packs the RHS as base64 floats (no JSON float
	// parsing server-side). Factor falls back to a full ship by itself
	// if the server has evicted the factor.
	sr2, err := f.Solve(ctx, cli, [][]float64{b})
	if err != nil {
		return err
	}
	xs, err := sr2.Solutions()
	if err != nil {
		return err
	}
	fmt.Printf("by fingerprint:    x[0]=%.6f (bit-identical: %v)\n", xs[0][0], xs[0][0] == x1[0][0])

	// 3. The binary wire protocol: the same by-fingerprint request over
	// a zero-copy DCWF frame — same client API, different Wire option.
	// The server decodes the frame by slicing it in place into pooled
	// arena memory (no JSON, no base64, 0 allocs/op when warm).
	sr3, err := f.Solve(ctx, bcli, [][]float64{b})
	if err != nil {
		return err
	}
	x3, err := sr3.Solutions()
	if err != nil {
		return err
	}
	fmt.Printf("binary frame:      x[0]=%.6f (bit-identical: %v)\n",
		x3[0][0], x3[0][0] == x1[0][0])

	// 4. Concurrent clients on one structure: each request solves in its
	// own handler, on an executor pass of its own that takes whichever
	// shared workers are idle, so the burst runs at once.
	const clients = 8
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(2 + c)))
			rhs := make([]float64, l.N)
			for i := range rhs {
				rhs[i] = rng.Float64()
			}
			_, errs[c] = f.Solve(ctx, cli, [][]float64{rhs})
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	fmt.Printf("concurrent burst:  %d concurrent requests solved\n", clients)

	// 5. Observability: the JSON stats snapshot and a few metric lines.
	stats, err := cli.Stats(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("\nstats: plan cache hit rate %.1f%%, factor cache hit rate %.1f%%, %d requests accepted\n",
		100*stats.CacheHitRate, 100*stats.FactorCache.HitRate(), stats.Accepted)
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	fmt.Println("\nselected /metrics lines:")
	for _, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
		if bytes.HasPrefix(line, []byte("loops_plan_cache_hit_rate")) ||
			bytes.HasPrefix(line, []byte("loops_admission_accepted_total")) {
			fmt.Printf("  %s\n", line)
		}
	}

	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return srv.Shutdown(sctx)
}
