package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"doconsider/internal/executor"
	"doconsider/internal/plancache"
	"doconsider/internal/sparse"
	"doconsider/internal/trisolve"
)

// registerT registers l and drops the pin, returning what stayed
// resident.
func registerT(s *Server, l *sparse.CSR, lower bool) (*sparse.CSR, uint64) {
	pin, fp := s.registerFactor(&residentFactor{l: l, lower: lower})
	defer pin.Release()
	return pin.Value().l, fp
}

// byFpT is factorByFp with the pin dropped.
func byFpT(s *Server, fp uint64, lower bool) (*sparse.CSR, error) {
	pin, err := s.factorByFp(fp, lower)
	if err != nil {
		return nil, err
	}
	defer pin.Release()
	return pin.Value().l, nil
}

// TestFactorByFpResidency pins the one by-fingerprint factor read both
// wires, the drift base lookup and the shard warm path share: a hit
// refreshes the factor's LRU position (so recently solved factors
// survive registration pressure), an evicted fingerprint misses with
// errUnknownFactor, the solve direction a factor was registered for is
// part of its identity, and a hit — pin and release included —
// allocates nothing.
func TestFactorByFpResidency(t *testing.T) {
	s, err := New(Config{Procs: 1, FactorCacheCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer assertDrained(t, s)()

	a, b, c := testFactor(3), testFactor(4), testFactor(5)
	ra, fpA := registerT(s, a, true)
	_, fpB := registerT(s, b, true)
	if ra != a || fpA == 0 || fpB == 0 || fpA == fpB {
		t.Fatalf("registration returned (%p, %x) and %x, want the resident factor and two distinct fingerprints", ra, fpA, fpB)
	}
	// Re-registering an equal matrix returns the resident copy, so
	// identical requests share one value array.
	if again, fp := registerT(s, a.Clone(), true); again != a || fp != fpA {
		t.Errorf("re-registration returned (%p, %x), want the resident (%p, %x)", again, fp, a, fpA)
	}

	// B is now least recently used; a by-fp read of it must refresh that.
	if got, err := byFpT(s, fpB, true); err != nil || got != b {
		t.Fatalf("factorByFp(B) = %p, %v, want the resident factor", got, err)
	}
	if _, fpC := registerT(s, c, true); fpC == 0 {
		t.Fatal("third registration returned no fingerprint")
	}
	if _, err := byFpT(s, fpA, true); !errors.Is(err, errUnknownFactor) {
		t.Errorf("factorByFp(A) after eviction: %v, want errUnknownFactor", err)
	}
	if got, err := byFpT(s, fpB, true); err != nil || got != b {
		t.Errorf("factorByFp(B) = %p, %v: the refreshed factor should have survived the eviction", got, err)
	}

	if _, err := byFpT(s, fpB, false); err == nil || errors.Is(err, errUnknownFactor) {
		t.Errorf("factorByFp with the opposite direction: %v, want a direction-mismatch error", err)
	}

	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := byFpT(s, fpB, true); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("factorByFp hit = %v allocs/op, want 0", allocs)
	}
}

// TestFactorCollisionNeverCached pins the fingerprint-collision rule: a
// matrix whose content fingerprint is already taken by a different
// resident factor is solved from the caller's copy and handed the zero
// fingerprint, which no lookup ever resolves. The caller's copy is a
// transient the request's pin owns: its plan is closed when the pin is
// released, and the same holds for a factor that arrives after drain
// closed the cache.
func TestFactorCollisionNeverCached(t *testing.T) {
	s, err := New(Config{Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer assertDrained(t, s)()

	a, squatter := testFactor(3), testFactor(4)
	// Plant a different matrix under a's fingerprint, as a 64-bit
	// collision would.
	h, err := s.factors.Get(a.ContentFingerprint(), func() (*residentFactor, error) {
		return &residentFactor{l: squatter, lower: true}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	if _, err := byFpT(s, 0, true); !errors.Is(err, errUnknownFactor) {
		t.Errorf("factorByFp(0): %v, want errUnknownFactor — fingerprint 0 is never cached", err)
	}

	transient := func(what string, wantFp uint64, solves bool) {
		t.Helper()
		pin, fp := s.registerFactor(&residentFactor{l: a, lower: true})
		f := pin.Value()
		if f.l != a || fp != wantFp {
			t.Fatalf("%s registration returned (%p, %x), want the caller's copy and fingerprint %x", what, f.l, fp, wantFp)
		}
		if plan, err := f.plan(s, nil); solves {
			if err != nil {
				t.Fatal(err)
			}
			x, want, b := make([]float64, a.N), make([]float64, a.N), randVec(a.N, 1)
			if _, err := plan.SolveCtx(context.Background(), x, b); err != nil {
				t.Fatalf("%s: transient factor did not solve: %v", what, err)
			}
			if err := trisolve.ForwardSeq(a, want, b); err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, x, want, what+": the caller's numbers, not the squatter's")
		} else if !errors.Is(err, plancache.ErrClosed) {
			t.Errorf("%s: plan build on a closed plan cache: %v, want ErrClosed", what, err)
		}
		pin.Release()
		if f.p != nil {
			t.Errorf("%s: releasing the request's pin left the transient factor's plan open", what)
		}
		if n := s.factors.Stats().Pinned; n != 0 {
			t.Errorf("%s: %d factor pins outstanding", what, n)
		}
	}
	transient("colliding", 0, true)
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	transient("post-drain", a.ContentFingerprint(), false)
}

// TestResidencyTelemetry pins what the cache counters mean now that a
// warm solve never reaches the plan cache: plan_cache.hits still counts
// every pass answered without the inspector (a factor's already-bound
// plan included), a structure's first sight (answered uninspected) and
// its second (the build) each count one miss, /v1/stats and /metrics
// report the same numbers, a by-fingerprint read and a registration
// each count once in factor_cache, and a replica warmed over
// /v1/shard/warm — first sight and build in one — serves its first
// routed request without a plan miss.
func TestResidencyTelemetry(t *testing.T) {
	s, ts := newTestServer(t, Config{Procs: 1})
	lower := true
	check := func(step string, planHits, planMisses, factorHits, factorMisses uint64) {
		t.Helper()
		st := s.Stats()
		if st.PlanCache.Hits != planHits || st.PlanCache.Misses != planMisses {
			t.Errorf("%s: plan_cache hits/misses = %d/%d, want %d/%d", step, st.PlanCache.Hits, st.PlanCache.Misses, planHits, planMisses)
		}
		if st.FactorCache.Hits != factorHits || st.FactorCache.Misses != factorMisses {
			t.Errorf("%s: factor_cache hits/misses = %d/%d, want %d/%d", step, st.FactorCache.Hits, st.FactorCache.Misses, factorHits, factorMisses)
		}
		var text bytes.Buffer
		if err := s.Registry().WritePrometheus(&text); err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{
			fmt.Sprintf("loops_plan_cache{event=\"hits\"} %d\n", planHits),
			fmt.Sprintf("loops_plan_cache{event=\"misses\"} %d\n", planMisses),
		} {
			if !strings.Contains(text.String(), want) {
				t.Errorf("%s: /metrics disagrees with /v1/stats: no %q", step, want)
			}
		}
	}

	l := testFactor(8)
	resp, sr := postSolve(t, ts.URL, solveBody(t, l, true, [][]float64{randVec(l.N, 1)}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("inline: status %d", resp.StatusCode)
	}
	check("cold inline request (first sight)", 0, 1, 0, 1)
	byFp := func(fp string, n int, seed int64) {
		t.Helper()
		if resp, _ := postSolve(t, ts.URL, mustJSON(t, SolveRequest{Fp: fp, Lower: &lower, B: [][]float64{randVec(n, seed)}})); resp.StatusCode != http.StatusOK {
			t.Fatalf("by-fp request: status %d", resp.StatusCode)
		}
	}
	for i := 0; i < 3; i++ {
		byFp(sr.Fp, l.N, int64(i))
	}
	check("three by-fp requests (build, two hits)", 2, 2, 3, 1)
	if resp, _ := postSolve(t, ts.URL, solveBody(t, l, true, [][]float64{randVec(l.N, 2)})); resp.StatusCode != http.StatusOK {
		t.Fatalf("re-registration: status %d", resp.StatusCode)
	}
	check("re-registration", 3, 2, 4, 1)

	w := testFactor(9)
	wresp, err := http.Post(ts.URL+"/v1/shard/warm", "application/json", bytes.NewReader(mustJSON(t,
		ShardFactor{Lower: true, N: w.N, RowPtr: w.RowPtr, ColIdx: w.ColIdx, Val64: PackFloats(w.Val)})))
	if err != nil {
		t.Fatal(err)
	}
	var warmed struct{ Fp string }
	if err := json.NewDecoder(wresp.Body).Decode(&warmed); err != nil || wresp.StatusCode != http.StatusOK {
		t.Fatalf("warm: status %d, %v", wresp.StatusCode, err)
	}
	wresp.Body.Close()
	check("shard warm (first sight and build)", 3, 4, 4, 2)
	byFp(warmed.Fp, w.N, 7)
	check("first routed request after warm", 4, 4, 5, 2)
}

// TestEvictionStormNeverClosesPinnedPlan is the proof that the stale-plan
// failure (a 500 "executor: pool is closed" once in a million drift
// requests) cannot happen under the pin-once rule: with room for one
// factor and one skeleton, solvers resubmit two factors by fingerprint
// (re-shipping on 404) while churners register fresh structures, so
// every request races an eviction of the very factor, skeleton and
// worker pool it is about to use. Every reply must be a 200 — never a
// solve against a closed pool — bit-identical to ForwardSeq.
func TestEvictionStormNeverClosesPinnedPlan(t *testing.T) {
	s, err := New(Config{Procs: 2, Kind: executor.Pooled.String(), CacheCap: 1, FactorCacheCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer assertDrained(t, s)()

	lower := true
	// solve ships req as a frame below the HTTP edge and checks the
	// reply against the sequential oracle; usable off the test goroutine.
	solve := func(req *SolveRequest, l *sparse.CSR) (fp string, status int, err error) {
		frame, err := EncodeRequestFrame(req)
		if err != nil {
			return "", 0, err
		}
		out, status := solveVia(s, frameCodec, frame)
		wr, err := DecodeResponseFrame(out)
		if err != nil {
			return "", status, err
		}
		if status != http.StatusOK {
			return "", status, errors.New(wr.ErrMsg)
		}
		want := make([]float64, l.N)
		if err := trisolve.ForwardSeq(l, want, req.B[0]); err != nil {
			return "", status, err
		}
		for i := range want {
			if wr.X[0][i] != want[i] {
				return "", status, fmt.Errorf("x[%d] = %x, ForwardSeq gives %x", i, wr.X[0][i], want[i])
			}
		}
		return wr.Fp, status, nil
	}
	inline := func(l *sparse.CSR, seed int64) *SolveRequest {
		return &SolveRequest{N: l.N, RowPtr: l.RowPtr, ColIdx: l.ColIdx, Val: l.Val, Lower: &lower,
			B: [][]float64{randVec(l.N, seed)}}
	}

	hot := []*sparse.CSR{testFactor(9), scaledFactor(testFactor(10), 1.5)}
	const solvers, churners, iters = 4, 2, 120
	var wg sync.WaitGroup
	for w := 0; w < solvers+churners; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fps := make([]string, len(hot))
			for i := 0; i < iters; i++ {
				seed := int64(w*iters + i)
				var l *sparse.CSR
				var req *SolveRequest
				if w < solvers {
					k := (w + i) % len(hot)
					l = hot[k]
					req = &SolveRequest{Fp: fps[k], Lower: &lower, B: [][]float64{randVec(l.N, seed)}}
					if fps[k] == "" {
						req = inline(l, seed)
					}
				} else {
					// Fourteen structures against room for one.
					l = testFactor(3 + (w*7+i)%14)
					req = inline(l, seed)
				}
				fp, status, err := solve(req, l)
				if status == http.StatusNotFound && req.Fp != "" {
					fp, status, err = solve(inline(l, seed), l) // evicted: the client's full-ship fallback
				}
				if err != nil {
					t.Errorf("worker %d op %d (n=%d, fp %q): status %d: %v", w, i, l.N, req.Fp, status, err)
					return
				}
				if w < solvers {
					fps[(w+i)%len(hot)] = fp
				}
			}
		}(w)
	}
	wg.Wait()
	if st := s.Stats(); st.FactorCache.Evictions == 0 || st.PlanCache.Evictions == 0 {
		t.Errorf("the storm evicted %d factors and %d skeletons; it must evict both to prove anything",
			st.FactorCache.Evictions, st.PlanCache.Evictions)
	}
}
