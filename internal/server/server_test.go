package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"doconsider/internal/executor"
	"doconsider/internal/sparse"
	"doconsider/internal/stencil"
	"doconsider/internal/trisolve"
)

// solveBody marshals a SolveRequest for a factor and RHS batch.
func solveBody(t *testing.T, l *sparse.CSR, lower bool, bs [][]float64) []byte {
	t.Helper()
	req := SolveRequest{N: l.N, RowPtr: l.RowPtr, ColIdx: l.ColIdx, Val: l.Val, Lower: &lower, B: bs}
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func postSolve(t *testing.T, url string, body []byte) (*http.Response, SolveResponse) {
	t.Helper()
	resp, err := http.Post(url+"/v1/trisolve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr SolveResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
	}
	return resp, sr
}

// testFactor returns a small lower-triangular factor with full diagonal.
func testFactor(m int) *sparse.CSR {
	return stencil.Laplace2D(m, m).LowerWithDiag()
}

// scaledFactor clones l with every value multiplied by f: same structure,
// different numbers.
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

// seqSolve is the oracle every route must reproduce bit for bit: the
// plain substitution loop, forward or backward.
func seqSolve(t *testing.T, l *sparse.CSR, lower bool, b []float64) []float64 {
	t.Helper()
	x := make([]float64, l.N)
	solve := trisolve.ForwardSeq
	if !lower {
		solve = trisolve.BackwardSeq
	}
	if err := solve(l, x, b); err != nil {
		t.Fatal(err)
	}
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

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	drained := assertDrained(t, s)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		drained()
	})
	return s, ts
}

func TestServerSolveEndToEnd(t *testing.T) {
	for _, lower := range []bool{true, false} {
		s, ts := newTestServer(t, Config{Procs: 2})
		l := testFactor(12)
		if !lower {
			l = l.Transpose()
		}
		bs := [][]float64{randVec(l.N, 3), randVec(l.N, 4)}
		resp, sr := postSolve(t, ts.URL, solveBody(t, l, lower, bs))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("lower=%v: status %d", lower, resp.StatusCode)
		}
		if len(sr.X) != 2 || sr.Fused != 1 || sr.Width != 2 || sr.Executed != int64(l.N) || sr.Strategy != "sequential" {
			t.Fatalf("lower=%v: response = fused %d width %d executed %d strategy %q (%d solutions), want the first sight's sequential loop",
				lower, sr.Fused, sr.Width, sr.Executed, sr.Strategy, len(sr.X))
		}
		// The server must reproduce the sequential loop bit for bit (JSON
		// round-trips float64 exactly via %g shortest form).
		for j, b := range bs {
			assertBitIdentical(t, sr.X[j], seqSolve(t, l, lower, b), "server solve")
		}
		if st := s.Stats(); st.Accepted != 1 || st.PlanCache.Misses != 1 {
			t.Fatalf("lower=%v: stats = %+v, want one accepted request, one cache miss", lower, st)
		}
	}
}

func TestServerPlanCacheSharedAcrossRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Procs: 2})
	l := testFactor(10)
	body := solveBody(t, l, true, [][]float64{randVec(l.N, 1)})
	// The first request is the structure's first sight, answered
	// uninspected; the next builds the plan the following ones share.
	for i := 0; i < 4; i++ {
		if resp, _ := postSolve(t, ts.URL, body); resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
	}
	var st StatsResponse
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.PlanCache.Misses != 2 || st.PlanCache.Hits != 2 {
		t.Fatalf("plan cache stats = %+v, want 2 misses (first sight, build) + 2 hits across requests", st.PlanCache)
	}
	if st.CacheHitRate <= 0 {
		t.Fatalf("cache hit rate = %v, want > 0", st.CacheHitRate)
	}
}

func TestServerValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Procs: 1, MaxBatch: 2})
	l := testFactor(6)
	n := l.N
	good := [][]float64{randVec(n, 1)}

	noDiag := l.StrictLower() // missing diagonal entirely
	zeroDiag := l.Clone()
	for i := 0; i < n; i++ {
		cols, _ := zeroDiag.Row(i)
		for k, c := range cols {
			if int(c) == i {
				zeroDiag.Val[int(zeroDiag.RowPtr[i])+k] = 0
			}
		}
	}
	upper := l.Transpose()

	cases := []struct {
		name string
		body []byte
	}{
		{"bad json", []byte("{nope")},
		{"n zero", mustJSON(t, SolveRequest{N: 0, B: good})},
		{"malformed csr", mustJSON(t, SolveRequest{N: n, RowPtr: l.RowPtr[:n], ColIdx: l.ColIdx, Val: l.Val, B: good})},
		{"upper entries in forward solve", solveBody(t, upper, true, good)},
		{"missing diagonal", solveBody(t, noDiag, true, good)},
		{"zero diagonal", solveBody(t, zeroDiag, true, good)},
		{"no rhs", solveBody(t, l, true, nil)},
		{"short rhs", solveBody(t, l, true, [][]float64{make([]float64, n-1)})},
		{"batch over limit", solveBody(t, l, true, [][]float64{good[0], good[0], good[0]})},
	}
	for _, tc := range cases {
		resp, _ := postSolve(t, ts.URL, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestServerKindConfig: the executor kind is resolved by registry name,
// so an explicit "sequential" (Kind value 0) pins the factor's plan
// rather than falling through to the planner, and unknown names fail
// fast.
func TestServerKindConfig(t *testing.T) {
	s, err := New(Config{Kind: "sequential", Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer assertDrained(t, s)()
	l := testFactor(8)
	var fp string
	for i := 0; i < 2; i++ { // the second sight builds the plan
		b := randVec(l.N, int64(i))
		out, status := solveVia(s, jsonCodec, solveBody(t, l, true, [][]float64{b}))
		var sr SolveResponse
		if err := json.Unmarshal(out, &sr); err != nil || status != http.StatusOK {
			t.Fatalf("solve %d: status %d, %v", i, status, err)
		}
		assertBitIdentical(t, sr.X[0], seqSolve(t, l, true, b), "sequential-kind solve")
		fp = sr.Fp
	}
	id, err := parseHexFp(fp)
	if err != nil {
		t.Fatal(err)
	}
	pin, err := s.factorByFp(id, true)
	if err != nil {
		t.Fatal(err)
	}
	if p := pin.Value().p; p == nil || p.Kind != executor.Sequential || p.Decision != nil {
		t.Fatalf("factor plan %+v, want a pinned sequential plan", p)
	}
	pin.Release()

	if _, err := New(Config{Kind: "bogus"}); err == nil {
		t.Fatal("accepted an unknown executor kind name")
	}
}

// TestConfigValidate: the zero Config is valid, and every out-of-range
// field is rejected by an error that names it.
func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero Config rejected: %v", err)
	}
	for _, c := range []struct {
		field string
		cfg   Config
	}{
		{"Config.Procs", Config{Procs: -1}},
		{"Config.CacheCap", Config{CacheCap: -1}},
		{"Config.FactorCacheCap", Config{FactorCacheCap: -1}},
		{"Config.MaxBatch", Config{MaxBatch: -1}},
		{"Config.DefaultTimeout", Config{DefaultTimeout: -time.Second}},
		{"Config.TraceRing", Config{TraceRing: -1}},
		{"Config.Admission.MaxInFlight", Config{Admission: AdmissionConfig{MaxInFlight: -1}}},
		{"Config.Tenant.Quota", Config{Tenant: TenantConfig{Quota: -1}}},
		{"Config.Tenant.Max", Config{Tenant: TenantConfig{Max: -1}}},
		{`Config.Tenant.Weights["x"]`, Config{Tenant: TenantConfig{Weights: map[string]int{"x": -1}}}},
		{`Config.Tenant.Quotas["x"]`, Config{Tenant: TenantConfig{Quotas: map[string]int{"x": -1}}}},
		{"Config.Kind", Config{Kind: "bogus"}},
	} {
		err := c.cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s: Validate = %v, want an error naming the field", c.field, err)
		}
	}
}

func TestServerMethodChecks(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/trisolve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/trisolve: status %d, want 405", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/stats", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/stats: status %d, want 405", resp.StatusCode)
	}
}

// stallRequest opens a solve request whose body stalls mid-upload and
// waits until s has admitted it, pinning it in flight (admitted, blocked
// in decode) until finish is called with the rest of the body — the
// deterministic way to hold server capacity from a test. Tests that send
// other requests next rely on the wait: without it a later request can be
// admitted first and find the server idle. finish also runs at cleanup,
// before the test server closes, so a test that fails first cannot leave
// Close waiting on the stalled upload until the binary's timeout.
func stallRequest(t *testing.T, s *Server, url string, body []byte) (done <-chan int, finish func()) {
	t.Helper()
	pr, pw := io.Pipe()
	ch := make(chan int, 1)
	go func() {
		resp, err := http.Post(url+"/v1/trisolve", "application/json", pr)
		if err != nil {
			ch <- -1
			return
		}
		resp.Body.Close()
		ch <- resp.StatusCode
	}()
	half := len(body) / 2
	rest := body[half:]
	finish = sync.OnceFunc(func() {
		pw.Write(rest)
		pw.Close()
	})
	t.Cleanup(finish)
	if _, err := pw.Write(body[:half]); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); s.adm.inFlight() < 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("stalled request never went in flight")
		}
	}
	return ch, finish
}

// TestServerAdmissionControl pins one request in flight and verifies the
// next is shed with 429 + Retry-After, that a request accepted before
// the drain began still completes, and that post-drain traffic is
// refused.
func TestServerAdmissionControl(t *testing.T) {
	// TenantQueue: -1 restores the pre-tenant immediate-shed behavior this
	// test pins (with queueing on, the second request would park instead).
	s, ts := newTestServer(t, Config{Procs: 1, Admission: AdmissionConfig{MaxInFlight: 1, Queue: -1}})
	l := testFactor(8)
	body := solveBody(t, l, true, [][]float64{randVec(l.N, 1)})

	first, finish := stallRequest(t, s, ts.URL, body)

	resp, err := http.Post(ts.URL+"/v1/trisolve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity request: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if s.shed.Value() != 1 {
		t.Fatalf("shed counter = %d, want 1", s.shed.Value())
	}

	// Begin the drain while the first request is still uploading: it was
	// accepted, so it must complete even though the server is draining.
	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drained <- s.Shutdown(ctx)
	}()
	for !s.draining.Load() {
		time.Sleep(time.Millisecond)
	}
	finish()
	if code := <-first; code != http.StatusOK {
		t.Fatalf("accepted request finished with %d during drain, want 200", code)
	}
	if err := <-drained; err != nil {
		t.Fatal(err)
	}

	// Post-drain requests are refused, and health reflects it.
	resp, err = http.Post(ts.URL+"/v1/trisolve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain solve: status %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain healthz: status %d, want 503", resp.StatusCode)
	}
}

// TestServerRequestDeadline: a request whose deadline has passed when its
// solve starts is answered 504 with a message, on both wires — the
// executor pass checks the deadline before its first row.
func TestServerRequestDeadline(t *testing.T) {
	_, ts := newTestServer(t, Config{Procs: 1, DefaultTimeout: time.Nanosecond})
	l := testFactor(8)
	lower := true
	for _, wire := range []string{"json", "binary"} {
		req := &SolveRequest{N: l.N, RowPtr: l.RowPtr, ColIdx: l.ColIdx, Val: l.Val,
			Lower: &lower, B: [][]float64{randVec(l.N, 1)}}
		rep, err := postWire(ts.URL, wire, "", req)
		if err != nil {
			t.Fatal(err)
		}
		if rep.status != http.StatusGatewayTimeout || rep.errMsg == "" {
			t.Fatalf("%s: status %d (%q), want 504 with a message", wire, rep.status, rep.errMsg)
		}
	}
}

// TestRequestsSolveOnArrival pins the route every request takes: it
// solves in its own handler, on a pass of its own. Four concurrent
// by-fingerprint requests on one factor, on each wire, under a
// ten-second Coalesce.Window — which nothing reads — each return long
// before the window with fused 1, their own width and the sequential
// loop's bits, and /v1/stats counts one pass per request, none fused.
func TestRequestsSolveOnArrival(t *testing.T) {
	const clients = 4
	for _, wire := range []string{"json", "binary"} {
		s, ts := newTestServer(t, Config{Procs: 2, Coalesce: CoalesceConfig{Window: 10 * time.Second}})
		l := testFactor(12)
		lower := true
		first, err := postWire(ts.URL, "json", "", &SolveRequest{N: l.N, RowPtr: l.RowPtr,
			ColIdx: l.ColIdx, Val: l.Val, Lower: &lower, B: [][]float64{randVec(l.N, 99)}})
		if err != nil || first.status != http.StatusOK {
			t.Fatalf("%s: registering the factor: status %d, %v", wire, first.status, err)
		}
		fp := fmt.Sprintf("%016x", l.ContentFingerprint())
		replies := make([]wireReply, clients)
		errs := make([]error, clients)
		bs := make([][][]float64, clients)
		start := time.Now()
		var wg sync.WaitGroup
		for i := range replies {
			bs[i] = [][]float64{randVec(l.N, int64(2*i)), randVec(l.N, int64(2*i+1))}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				replies[i], errs[i] = postWire(ts.URL, wire, "", &SolveRequest{Fp: fp, Lower: &lower, B: bs[i]})
			}(i)
		}
		wg.Wait()
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("%s: %d requests took %v: something waited out the window", wire, clients, elapsed)
		}
		for i, rep := range replies {
			if errs[i] != nil || rep.status != http.StatusOK {
				t.Fatalf("%s request %d: status %d, err %v", wire, i, rep.status, errs[i])
			}
			if rep.fused != 1 || rep.width != len(bs[i]) {
				t.Fatalf("%s request %d: fused %d width %d, want a pass of its own of width %d", wire, i, rep.fused, rep.width, len(bs[i]))
			}
			for j, b := range bs[i] {
				assertBitIdentical(t, rep.xs[j], seqSolve(t, l, true, b), fmt.Sprintf("%s request %d rhs %d", wire, i, j))
			}
		}
		var st StatsResponse
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if co := st.Coalesce; co.Requests != clients+1 || co.Passes != co.Requests || co.Fused != 0 {
			t.Fatalf("%s: coalesce stats %+v, want %d requests, a pass each, none fused", wire, co, clients+1)
		}
		if s.Stats().Accepted != clients+1 {
			t.Fatalf("%s: accepted %d, want %d", wire, s.Stats().Accepted, clients+1)
		}
	}
}

// TestServerUpperSolve drives a backward solve through the server: an
// upper factor, shipped inline then resubmitted by fingerprint (the
// second sight builds its plan), answers the backward loop's bits.
func TestServerUpperSolve(t *testing.T) {
	_, ts := newTestServer(t, Config{Procs: 2, Kind: executor.Pooled.String()})
	u := testFactor(10).Transpose()
	lower := false
	req := &SolveRequest{N: u.N, RowPtr: u.RowPtr, ColIdx: u.ColIdx, Val: u.Val, Lower: &lower}
	for i := 0; i < 3; i++ {
		b := randVec(u.N, int64(7+i))
		req.B = [][]float64{b}
		rep, err := postWire(ts.URL, "binary", "", req)
		if err != nil || rep.status != http.StatusOK {
			t.Fatalf("solve %d: status %d, %v", i, rep.status, err)
		}
		assertBitIdentical(t, rep.xs[0], seqSolve(t, u, false, b), fmt.Sprintf("upper solve %d", i))
		req = &SolveRequest{Fp: fmt.Sprintf("%016x", u.ContentFingerprint()), Lower: &lower}
	}
}

// TestServerFingerprintResubmission: a full submission returns a content
// fingerprint; a by-fingerprint request with fresh RHS then solves the
// same factor without re-shipping it, bit-identically. Unknown
// fingerprints 404 so clients know to fall back.
func TestServerFingerprintResubmission(t *testing.T) {
	s, ts := newTestServer(t, Config{Procs: 2})
	l := testFactor(10)
	lower := true
	b := randVec(l.N, 5)

	resp, sr := postSolve(t, ts.URL, solveBody(t, l, true, [][]float64{randVec(l.N, 4)}))
	if resp.StatusCode != http.StatusOK || sr.Fp == "" {
		t.Fatalf("full submission: status %d fp %q", resp.StatusCode, sr.Fp)
	}

	byFp := mustJSON(t, SolveRequest{Fp: sr.Fp, Lower: &lower, B: [][]float64{b}})
	resp2, sr2 := postSolve(t, ts.URL, byFp)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("by-fingerprint request: status %d", resp2.StatusCode)
	}
	assertBitIdentical(t, sr2.X[0], seqSolve(t, l, true, b), "by-fingerprint solve")
	if st := s.Stats(); st.FactorCache.Hits != 1 {
		t.Fatalf("factor cache stats = %+v, want one hit", st.FactorCache)
	}

	bogus := mustJSON(t, SolveRequest{Fp: "00000000deadbeef", Lower: &lower, B: [][]float64{b}})
	resp3, _ := postSolve(t, ts.URL, bogus)
	if resp3.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown fingerprint: status %d, want 404", resp3.StatusCode)
	}

	both := mustJSON(t, SolveRequest{Fp: sr.Fp, N: l.N, RowPtr: l.RowPtr, ColIdx: l.ColIdx, Val: l.Val,
		Lower: &lower, B: [][]float64{b}})
	resp4, _ := postSolve(t, ts.URL, both)
	if resp4.StatusCode != http.StatusBadRequest {
		t.Fatalf("factor+fingerprint request: status %d, want 400", resp4.StatusCode)
	}
}

// TestServerPackedRHS: b_b64 requests round-trip bit-identically and get
// x_b64 responses; mixing b and b_b64 is rejected.
func TestServerPackedRHS(t *testing.T) {
	_, ts := newTestServer(t, Config{Procs: 2})
	l := testFactor(10)
	lower := true
	b := randVec(l.N, 6)

	packed := mustJSON(t, SolveRequest{N: l.N, RowPtr: l.RowPtr, ColIdx: l.ColIdx, Val: l.Val,
		Lower: &lower, B64: [][]byte{PackFloats(b)}})
	resp, sr := postSolve(t, ts.URL, packed)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("packed request: status %d", resp.StatusCode)
	}
	if len(sr.X) != 0 || len(sr.X64) != 1 {
		t.Fatalf("packed request got %d plain + %d packed solutions, want 0 + 1", len(sr.X), len(sr.X64))
	}
	xs, err := sr.Solutions()
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, xs[0], seqSolve(t, l, true, b), "packed round-trip")

	mixed := mustJSON(t, SolveRequest{N: l.N, RowPtr: l.RowPtr, ColIdx: l.ColIdx, Val: l.Val,
		Lower: &lower, B: [][]float64{b}, B64: [][]byte{PackFloats(b)}})
	if resp, _ := postSolve(t, ts.URL, mixed); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mixed encodings: status %d, want 400", resp.StatusCode)
	}
	odd := mustJSON(t, SolveRequest{N: l.N, RowPtr: l.RowPtr, ColIdx: l.ColIdx, Val: l.Val,
		Lower: &lower, B64: [][]byte{{1, 2, 3}}})
	if resp, _ := postSolve(t, ts.URL, odd); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("odd-length packed RHS: status %d, want 400", resp.StatusCode)
	}
}

func TestPackUnpackFloats(t *testing.T) {
	v := randVec(17, 3)
	got, err := UnpackFloats(PackFloats(v))
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, got, v, "pack/unpack")
	if _, err := UnpackFloats(make([]byte, 9)); err == nil {
		t.Fatal("accepted a 9-byte packed array")
	}
}

func TestServerHealthAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{Procs: 1})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}

	l := testFactor(8)
	if resp, _ := postSolve(t, ts.URL, solveBody(t, l, true, [][]float64{randVec(l.N, 1)})); resp.StatusCode != 200 {
		t.Fatalf("solve: status %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`loops_plan_cache{event="hits"}`,
		"loops_plan_cache_hit_rate",
		"loops_http_in_flight",
		`loops_http_requests_total{endpoint="trisolve",wire="json",code="200"} 1`,
		`loops_http_request_seconds_bucket{endpoint="trisolve",wire="json",le="+Inf"} 1`,
		`loops_http_request_seconds_count{endpoint="trisolve",wire="json"} 1`,
		`loops_http_request_seconds_count{endpoint="trisolve",wire="binary"} 0`,
		"loops_admission_accepted_total 1",
		"# TYPE loops_http_request_seconds histogram",
		`loops_stage_seconds_count{stage="execute"} 1`,
		"loops_build_info{",
		"loops_process_uptime_seconds",
		"loops_go_goroutines",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}
