package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"doconsider/internal/sparse"
	"doconsider/internal/trisolve"
)

// TestChaosConcurrentCancellation is the serving-path chaos test the CI
// race matrix runs with the adaptive planner active: concurrent clients
// hammer one server with a mix of structures (different sizes, both
// solve directions) while random per-request deadlines fire mid-solve
// and random client-side cancellations tear requests away at arbitrary
// points. Every request must resolve to a definite outcome — a solution
// that is bit-identical to the sequential loop, a timeout, or a
// cancellation — with no hung waiter, no panic, and no race; a final
// graceful drain must complete with traffic still arriving.
func TestChaosConcurrentCancellation(t *testing.T) {
	srv, err := New(Config{
		Procs:          4,
		Kind:           KindAuto, // the planner decides per structure
		CacheCap:       4,        // small enough that eviction happens under the mix
		Admission:      AdmissionConfig{MaxInFlight: 32},
		DefaultTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	drained := assertDrained(t, srv)
	ts := httptest.NewServer(srv.Handler())

	// Mixed structures: sizes and directions differ so plans, cache
	// entries and factor pins churn against each other.
	type problem struct {
		l     *sparse.CSR
		lower bool
	}
	var problems []problem
	for _, m := range []int{4, 6, 8, 10} {
		full := testFactor(m) // lower factor of an m x m mesh
		problems = append(problems, problem{full, true})
	}
	upper := testFactor(7).Transpose()
	problems = append(problems, problem{upper, false})

	// Reference solutions per (problem, rhs-seed), computed unfused.
	ref := func(p problem, b []float64) []float64 {
		x := make([]float64, p.l.N)
		if p.lower {
			if err := trisolve.ForwardSeq(p.l, x, b); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := trisolve.BackwardSeq(p.l, x, b); err != nil {
				t.Fatal(err)
			}
		}
		return x
	}

	const (
		clients     = 8
		perClient   = 25
		cancelEvery = 5 // every 5th request gets a tiny client-side deadline
	)
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		succeeded int
		timedOut  int
		cancelled int
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + c)))
			client := ts.Client()
			for r := 0; r < perClient; r++ {
				p := problems[rng.Intn(len(problems))]
				b := randVec(p.l.N, int64(c*1000+r))
				req := SolveRequest{
					N: p.l.N, RowPtr: p.l.RowPtr, ColIdx: p.l.ColIdx, Val: p.l.Val,
					Lower: &p.lower, B: [][]float64{b},
				}
				if rng.Intn(3) == 0 {
					req.TimeoutMs = 1 + rng.Intn(3) // server-side deadline, may fire mid-solve
				}
				body, err := json.Marshal(req)
				if err != nil {
					t.Error(err)
					return
				}
				ctx := context.Background()
				var cancel context.CancelFunc = func() {}
				if r%cancelEvery == cancelEvery-1 {
					// Client abandons the request at a random point; the
					// concurrent requests must be undisturbed.
					ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(1500))*time.Microsecond)
				}
				hreq, err := http.NewRequestWithContext(ctx, http.MethodPost,
					ts.URL+"/v1/trisolve", bytes.NewReader(body))
				if err != nil {
					cancel()
					t.Error(err)
					return
				}
				resp, err := client.Do(hreq)
				if err != nil {
					cancel()
					// Client-side cancellation; the server releases the
					// waiter on its own schedule.
					mu.Lock()
					cancelled++
					mu.Unlock()
					continue
				}
				var sr SolveResponse
				decErr := json.NewDecoder(resp.Body).Decode(&sr)
				resp.Body.Close()
				cancel()
				switch resp.StatusCode {
				case http.StatusOK:
					if decErr != nil {
						t.Errorf("client %d: bad 200 body: %v", c, decErr)
						return
					}
					want := ref(p, b)
					for i := range want {
						if sr.X[0][i] != want[i] {
							t.Errorf("client %d req %d: solution differs at %d", c, r, i)
							return
						}
					}
					if sr.Strategy == "" {
						t.Errorf("client %d: 200 response carries no strategy", c)
						return
					}
					mu.Lock()
					succeeded++
					mu.Unlock()
				case http.StatusGatewayTimeout, http.StatusServiceUnavailable, http.StatusTooManyRequests:
					mu.Lock()
					timedOut++
					mu.Unlock()
				default:
					t.Errorf("client %d req %d: unexpected status %d", c, r, resp.StatusCode)
					return
				}
			}
		}(c)
	}

	// Drain with stragglers still in flight: Shutdown must not hang.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("chaos clients did not finish — a waiter hung")
	}
	ts.Close()
	drained()

	if succeeded == 0 {
		t.Fatal("no request succeeded; the chaos mix is not exercising the solve path")
	}
	st := srv.Stats()
	if len(st.Planner.Counts) == 0 {
		t.Error("planner made no recorded decisions under KindAuto")
	}
	t.Logf("chaos: %d ok, %d timed out/shed, %d client-cancelled; planner counts %v",
		succeeded, timedOut, cancelled, st.Planner.Counts)
}
