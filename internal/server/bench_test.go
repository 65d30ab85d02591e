package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"doconsider/internal/executor"
	"doconsider/internal/trisolve"
)

// BenchmarkServerTrisolveRequest measures the full request path — JSON
// decode, validation, plan-cache lookup, solo executor pass, JSON encode
// — on a 16x16 mesh factor. CI gates its allocs/op: a regression here
// means per-request garbage crept into the serving hot path.
func BenchmarkServerTrisolveRequest(b *testing.B) {
	s, err := New(Config{Procs: 2, Coalesce: CoalesceConfig{Window: 0}})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(assertDrained(b, s)) // after the timer stops: the drain is not part of a request
	l := testFactor(16)
	lower := true
	body, err := json.Marshal(SolveRequest{
		N: l.N, RowPtr: l.RowPtr, ColIdx: l.ColIdx, Val: l.Val, Lower: &lower,
		B: [][]float64{randVec(l.N, 1)},
	})
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	// Warm up: the first request is the structure's first sight (answered
	// uninspected), the second pays the inspector and plan build; the
	// gate watches the steady-state (cache-hit) request path.
	for i := 0; i < 2; i++ {
		warm := httptest.NewRecorder()
		h.ServeHTTP(warm, httptest.NewRequest("POST", "/v1/trisolve", bytes.NewReader(body)))
		if warm.Code != 200 {
			b.Fatalf("warmup status %d: %s", warm.Code, warm.Body.String())
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/v1/trisolve", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != 200 {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
}

// BenchmarkCoalescer compares 8 concurrent structurally identical
// requests with fusion (one shared executor pass) against the same load
// solved as 8 solo passes — the server-side amortization the subsystem
// exists to provide.
func BenchmarkCoalescer(b *testing.B) {
	const clients = 8
	l := testFactor(16)
	run := func(b *testing.B, window time.Duration) {
		cache := trisolve.NewPlanCache(4)
		b.Cleanup(func() { cache.Close() })
		c := withFactors(b, NewCoalescer(context.Background(), cache, NewRegistry(), window, window, clients, 2, executor.Pooled.String(), nil))
		bs := make([][]float64, clients)
		for i := range bs {
			bs[i] = randVec(l.N, int64(i))
		}
		// Warm up the plan cache directly so iterations measure executor
		// passes, not the one-time inspector run (a warmup Submit would
		// park alone in the fused leg's window until the timer fired).
		warm, err := cache.Get(l, true, trisolve.WithProcs(2), trisolve.WithKind(executor.Pooled))
		if err != nil {
			b.Fatal(err)
		}
		warm.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			for cl := 0; cl < clients; cl++ {
				wg.Add(1)
				go func(cl int) {
					defer wg.Done()
					if _, _, err := submitRHS(context.Background(), c, l, true, [][]float64{bs[cl]}); err != nil {
						b.Error(err)
					}
				}(cl)
			}
			wg.Wait()
		}
	}
	b.Run("fused-8", func(b *testing.B) { run(b, 10*time.Second) })
	b.Run("solo-8", func(b *testing.B) { run(b, 0) })
}
