package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"doconsider/internal/executor"
	"doconsider/internal/plancache"
	"doconsider/internal/sparse"
	"doconsider/internal/stencil"
	"doconsider/internal/trisolve"
)

// testFactor returns a small lower-triangular factor with full diagonal.
func testFactor(m int) *sparse.CSR {
	return stencil.Laplace2D(m, m).LowerWithDiag()
}

// scaledFactor clones l with every value multiplied by f: same structure,
// different numbers — the cross-request recurrence the coalescer fuses.
func scaledFactor(l *sparse.CSR, f float64) *sparse.CSR {
	c := l.Clone()
	for k := range c.Val {
		c.Val[k] *= f
	}
	return c
}

func randVec(n int, seed int64) []float64 {
	v := make([]float64, n)
	s := uint64(seed)*2654435761 + 1
	for i := range v {
		s = s*6364136223846793005 + 1442695040888963407
		v[i] = float64(s%1000)/1000 + 0.001
	}
	return v
}

// testCo is a coalescer with the one piece of the server its requests
// need: a factor cache, so every request pins a resident factor — one
// per matrix content — exactly as solve does.
type testCo struct {
	*Coalescer
	factors *plancache.Cache[uint64, *residentFactor]
}

// withFactors wraps c for submitRHS; at the end of the test it drains c
// and requires that every request gave its factor pin back.
func withFactors(tb testing.TB, c *Coalescer) *testCo {
	tc := &testCo{Coalescer: c, factors: plancache.New[uint64, *residentFactor](0)}
	tb.Cleanup(func() {
		c.Drain()
		if n := tc.factors.Stats().Pinned; n != 0 {
			tb.Errorf("%d factor pins outstanding after drain", n)
		}
		tc.factors.Close()
	})
	return tc
}

// newReq builds the request the server would: the factor registered and
// pinned, caller-owned solution rows the pass fills in place.
func (c *testCo) newReq(l *sparse.CSR, lower bool, class Class, bs [][]float64) *coReq {
	pin, err := c.factors.Get(l.ContentFingerprint(), func() (*residentFactor, error) {
		return &residentFactor{l: l, lower: lower}, nil
	})
	if err != nil {
		panic(err)
	}
	xs := make([][]float64, len(bs))
	for j := range xs {
		xs[j] = make([]float64, l.N)
	}
	return &coReq{pin: pin, class: class, xs: xs, bs: bs}
}

func newTestCoalescer(t *testing.T, window time.Duration, width int) *testCo {
	t.Helper()
	cache := trisolve.NewPlanCache(8)
	t.Cleanup(func() { cache.Close() }) // runs after withFactors' drain
	return withFactors(t, NewCoalescer(context.Background(), cache, NewRegistry(), window, window, width, 2, executor.Pooled.String(), nil))
}

// submitRHS runs one request through c the way the server does.
func submitRHS(ctx context.Context, c *testCo, l *sparse.CSR, lower bool, bs [][]float64) ([][]float64, SolveInfo, error) {
	req := c.newReq(l, lower, ClassBatch, bs)
	xs := req.xs
	info, err := c.Submit(ctx, req)
	return xs, info, err
}

// refSolve returns the unfused Plan.Solve result for one factor/RHS pair;
// group passes must reproduce it bit for bit.
func refSolve(t *testing.T, l *sparse.CSR, b []float64) []float64 {
	t.Helper()
	plan, err := trisolve.NewPlan(l, true, trisolve.WithProcs(2), trisolve.WithKind(executor.Pooled))
	if err != nil {
		t.Fatal(err)
	}
	defer plan.Close()
	x := make([]float64, l.N)
	plan.Solve(x, b)
	return x
}

func assertBitIdentical(t *testing.T, got, want []float64, what string) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: result differs at %d: %x vs %x", what, i, got[i], want[i])
		}
	}
}

// TestCoalesceWindowOfOne: a request that spends its whole window alone
// still solves correctly as a solo pass.
func TestCoalesceWindowOfOne(t *testing.T) {
	c := newTestCoalescer(t, 5*time.Millisecond, 64)
	l := testFactor(12)
	b := randVec(l.N, 1)
	xs, info, err := submitRHS(context.Background(), c, l, true, [][]float64{b})
	if err != nil {
		t.Fatal(err)
	}
	if info.Fused != 1 || info.Width != 1 {
		t.Fatalf("solo window: info = %+v, want fused 1 width 1", info)
	}
	assertBitIdentical(t, xs[0], refSolve(t, l, b), "window of one")
	s := c.Stats()
	if s.Passes != 1 || s.Solo != 1 || s.Fused != 0 || s.Rate != 0 {
		t.Fatalf("stats = %+v, want one solo pass", s)
	}
}

// TestCoalesceFusesAtWidthCap: exactly cap-many concurrent requests fuse
// into one pass, and every member's solution is bit-identical to its
// unfused solve even though members carry different matrix values.
func TestCoalesceFusesAtWidthCap(t *testing.T) {
	const members = 6
	c := newTestCoalescer(t, 10*time.Second, members) // timer must never win
	base := testFactor(12)
	var wg sync.WaitGroup
	results := make([][][]float64, members)
	infos := make([]SolveInfo, members)
	errs := make([]error, members)
	ls := make([]*sparse.CSR, members)
	bs := make([][]float64, members)
	for i := 0; i < members; i++ {
		ls[i] = scaledFactor(base, 1+0.1*float64(i))
		bs[i] = randVec(base.N, int64(i))
	}
	for i := 0; i < members; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], infos[i], errs[i] = submitRHS(context.Background(), c, ls[i], true, [][]float64{bs[i]})
		}(i)
	}
	wg.Wait()
	for i := 0; i < members; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if infos[i].Fused != members || infos[i].Width != members {
			t.Fatalf("member %d: info = %+v, want fused %d", i, infos[i], members)
		}
		assertBitIdentical(t, results[i][0], refSolve(t, ls[i], bs[i]), "fused member")
	}
	s := c.Stats()
	if s.Passes != 1 || s.Fused != members || s.MaxFused != members {
		t.Fatalf("stats = %+v, want one fused pass of %d", s, members)
	}
	if s.Rate != 1 {
		t.Fatalf("coalescing rate = %v, want 1", s.Rate)
	}
}

// TestCoalesceWidthCapOverflowSplits: three requests of width 2 against a
// cap of 4 must split into two passes (2 requests fused, 1 solo) — the
// overflow seals the full window instead of growing it past the cap.
func TestCoalesceWidthCapOverflowSplits(t *testing.T) {
	c := newTestCoalescer(t, 10*time.Second, 4)
	l := testFactor(10)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bs := [][]float64{randVec(l.N, int64(2*i)), randVec(l.N, int64(2*i+1))}
			if _, _, err := submitRHS(context.Background(), c, l, true, bs); err != nil {
				t.Error(err)
			}
		}(i)
	}
	// Two of the three fill the cap and seal; the third waits on its own
	// window, which only a flush (or the 10s timer) releases. Flush only
	// after the width-cap pass has finished and all three have submitted,
	// so a premature flush can never seal a singleton that was about to
	// pair up.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		s := c.Stats()
		if s.Passes >= 2 {
			break
		}
		if s.Passes >= 1 && s.Requests == 3 {
			c.Flush()
		}
		time.Sleep(time.Millisecond)
	}
	wg.Wait()
	s := c.Stats()
	if s.Passes != 2 || s.Fused != 2 || s.Solo != 1 {
		t.Fatalf("stats = %+v, want cap overflow split into a fused pass of 2 and a solo pass", s)
	}
}

// TestCoalesceOversizedRequestRunsSolo: a request whose own batch meets
// the cap never waits in a window.
func TestCoalesceOversizedRequestRunsSolo(t *testing.T) {
	c := newTestCoalescer(t, 10*time.Second, 2)
	l := testFactor(8)
	bs := [][]float64{randVec(l.N, 1), randVec(l.N, 2), randVec(l.N, 3)}
	start := time.Now()
	_, info, err := submitRHS(context.Background(), c, l, true, bs)
	if err != nil {
		t.Fatal(err)
	}
	if info.Fused != 1 || info.Width != 3 {
		t.Fatalf("info = %+v, want solo pass of width 3", info)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("oversized request waited out the window")
	}
}

// TestCoalesceCancellationReleasesOtherWaiters: cancelling one request
// mid-window withdraws it without wedging the group — the surviving
// waiter still completes when the window closes.
func TestCoalesceCancellationReleasesOtherWaiters(t *testing.T) {
	c := newTestCoalescer(t, 150*time.Millisecond, 64)
	l := testFactor(10)
	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()

	var wg sync.WaitGroup
	var errA error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, errA = submitRHS(ctxA, c, l, true, [][]float64{randVec(l.N, 1)})
	}()
	// Give A a moment to join its window, bring B in, then cancel A.
	time.Sleep(10 * time.Millisecond)
	var xsB [][]float64
	var infoB SolveInfo
	var errB error
	bB := randVec(l.N, 2)
	wg.Add(1)
	go func() {
		defer wg.Done()
		xsB, infoB, errB = submitRHS(context.Background(), c, l, true, [][]float64{bB})
	}()
	time.Sleep(10 * time.Millisecond)
	cancelA()
	wg.Wait()

	if !errors.Is(errA, context.Canceled) {
		t.Fatalf("cancelled waiter returned %v, want context.Canceled", errA)
	}
	if errB != nil {
		t.Fatal(errB)
	}
	if infoB.Fused != 1 {
		t.Fatalf("survivor fused = %d, want 1 (the cancelled request left the pass)", infoB.Fused)
	}
	assertBitIdentical(t, xsB[0], refSolve(t, l, bB), "survivor after cancellation")
}

// TestCoalesceCancelledLoneWaiterDissolvesGroup: the cancelled request
// was the only member, so its group must be dissolved — no zero-member
// pass runs when the timer fires.
func TestCoalesceCancelledLoneWaiterDissolvesGroup(t *testing.T) {
	c := newTestCoalescer(t, 30*time.Millisecond, 64)
	l := testFactor(8)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := submitRHS(ctx, c, l, true, [][]float64{randVec(l.N, 1)})
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	time.Sleep(50 * time.Millisecond) // past the window timer
	if s := c.Stats(); s.Passes != 0 {
		t.Fatalf("stats = %+v, want no pass for a dissolved group", s)
	}
}

// TestCoalesceWindowZeroDisables: with the window off every request is a
// synchronous solo pass and the coalescing rate stays zero.
func TestCoalesceWindowZeroDisables(t *testing.T) {
	c := newTestCoalescer(t, 0, 64)
	l := testFactor(10)
	for i := 0; i < 4; i++ {
		b := randVec(l.N, int64(i))
		xs, info, err := submitRHS(context.Background(), c, l, true, [][]float64{b})
		if err != nil {
			t.Fatal(err)
		}
		if info.Fused != 1 {
			t.Fatalf("request %d fused = %d with coalescing disabled", i, info.Fused)
		}
		assertBitIdentical(t, xs[0], refSolve(t, l, b), "disabled coalescing")
	}
	s := c.Stats()
	if s.Passes != 4 || s.Rate != 0 {
		t.Fatalf("stats = %+v, want four solo passes, rate 0", s)
	}
}

// TestCoalesceUpperSolve exercises the backward-solve key path.
func TestCoalesceUpperSolve(t *testing.T) {
	c := newTestCoalescer(t, 0, 64)
	u := testFactor(10).Transpose()
	b := randVec(u.N, 7)
	xs, _, err := submitRHS(context.Background(), c, u, false, [][]float64{b})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := trisolve.NewPlan(u, false, trisolve.WithProcs(2), trisolve.WithKind(executor.Pooled))
	if err != nil {
		t.Fatal(err)
	}
	defer plan.Close()
	want := make([]float64, u.N)
	plan.Solve(want, b)
	assertBitIdentical(t, xs[0], want, "upper solve")
}

// TestCoalesceQuiescentSeal: with an inflight hook installed, windows
// seal the moment every admitted request is parked — the timer (10s
// here) must never be what releases them.
func TestCoalesceQuiescentSeal(t *testing.T) {
	var inflight atomic.Int64
	cache := trisolve.NewPlanCache(8)
	t.Cleanup(func() { cache.Close() })
	c := withFactors(t, NewCoalescer(context.Background(), cache, NewRegistry(), 10*time.Second, 10*time.Second, 64, 2,
		executor.Pooled.String(), inflight.Load))
	l := testFactor(10)

	const members = 3
	inflight.Store(members)
	var wg sync.WaitGroup
	infos := make([]SolveInfo, members)
	start := time.Now()
	for i := 0; i < members; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			_, infos[i], err = submitRHS(context.Background(), c, l, true, [][]float64{randVec(l.N, int64(i))})
			if err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("requests took %v — quiescent seal did not fire before the window timer", elapsed)
	}
	// All three were admitted and parked, so they seal together (the
	// last joiner trips quiescence; earlier partial seals would only
	// happen if a joiner arrived after a flush, impossible here since
	// parked < inflight until the last one).
	for i, info := range infos {
		if info.Fused != members {
			t.Fatalf("request %d fused = %d, want %d", i, info.Fused, members)
		}
	}
	if s := c.Stats(); s.Passes != 1 {
		t.Fatalf("stats = %+v, want one quiescence-sealed pass", s)
	}
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
