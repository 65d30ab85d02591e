package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"doconsider/internal/sparse"
)

// postFrame sends a binary request frame and decodes the response
// frame.
func postFrame(t *testing.T, url string, frame []byte) (int, *WireResponse) {
	t.Helper()
	resp, err := http.Post(url+"/v1/trisolve", FrameContentType, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != FrameContentType {
		t.Fatalf("response content type %q, want %q", ct, FrameContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	wr, err := DecodeResponseFrame(body)
	if err != nil {
		t.Fatalf("decoding response frame (status %d): %v", resp.StatusCode, err)
	}
	return resp.StatusCode, wr
}

// postJSONReq sends a SolveRequest as JSON and decodes the reply.
func postJSONReq(t *testing.T, url string, req *SolveRequest) (int, *SolveResponse) {
	t.Helper()
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/trisolve", "application/json", bytes.NewReader(data))
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
	return resp.StatusCode, &sr
}

// checkSameSolutions requires bit-identical solution batches.
func checkSameSolutions(t *testing.T, shape string, jx, bx [][]float64) {
	t.Helper()
	if len(jx) != len(bx) {
		t.Fatalf("%s: JSON returned %d solutions, binary %d", shape, len(jx), len(bx))
	}
	for j := range jx {
		if len(jx[j]) != len(bx[j]) {
			t.Fatalf("%s: solution %d lengths differ: %d vs %d", shape, j, len(jx[j]), len(bx[j]))
		}
		for i := range jx[j] {
			if math.Float64bits(jx[j][i]) != math.Float64bits(bx[j][i]) {
				t.Fatalf("%s: solution %d row %d: JSON %x, binary %x",
					shape, j, i, jx[j][i], bx[j][i])
			}
		}
	}
}

// TestBinaryDifferential drives every request shape through both wire
// encodings against one server and requires byte-identical solutions
// and matching fingerprints. The two wires share the whole pipeline but
// not the codec — this test is what makes the frame codec's zero-copy
// shortcuts safe to trust.
func TestBinaryDifferential(t *testing.T) {
	_, ts := newTestServer(t, Config{Procs: 2})
	l := testFactor(12)
	lower := true
	n := l.N

	shapes := []struct {
		name string
		req  func(fp string) *SolveRequest
	}{
		{"inline", func(string) *SolveRequest {
			return &SolveRequest{N: n, RowPtr: l.RowPtr, ColIdx: l.ColIdx, Val: l.Val,
				Lower: &lower, B: [][]float64{randVec(n, 1)}}
		}},
		{"multi-rhs", func(string) *SolveRequest {
			return &SolveRequest{N: n, RowPtr: l.RowPtr, ColIdx: l.ColIdx, Val: l.Val,
				Lower: &lower, B: [][]float64{randVec(n, 2), randVec(n, 3), randVec(n, 4)}}
		}},
		{"fp-resubmit", func(fp string) *SolveRequest {
			return &SolveRequest{Fp: fp, Lower: &lower, B: [][]float64{randVec(n, 5)}}
		}},
		{"drift", func(fp string) *SolveRequest {
			return &SolveRequest{BaseFp: fp, Lower: &lower,
				Edits: []sparse.RowEdit{{Row: int32(n - 1),
					Insert: []sparse.EditEntry{{Col: 0, Val: -0.25}}}},
				B: [][]float64{randVec(n, 6)}}
		}},
		{"timeout", func(fp string) *SolveRequest {
			return &SolveRequest{Fp: fp, Lower: &lower, B: [][]float64{randVec(n, 7)},
				TimeoutMs: 30_000}
		}},
	}

	fp := ""
	for _, sh := range shapes {
		req := sh.req(fp)
		jsonStatus, jr := postJSONReq(t, ts.URL, req)
		if jsonStatus != http.StatusOK {
			t.Fatalf("%s: JSON status %d", sh.name, jsonStatus)
		}
		frame, err := EncodeRequestFrame(req)
		if err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		binStatus, br := postFrame(t, ts.URL, frame)
		if binStatus != http.StatusOK {
			t.Fatalf("%s: binary status %d: %s", sh.name, binStatus, br.ErrMsg)
		}
		checkSameSolutions(t, sh.name, jr.X, br.X)
		if jr.Fp != br.Fp {
			t.Fatalf("%s: JSON fp %q, binary fp %q", sh.name, jr.Fp, br.Fp)
		}
		if sh.name == "inline" {
			if jr.Fp == "" {
				t.Fatal("inline request returned no fingerprint")
			}
			fp = jr.Fp
		}
	}
}

// TestBinaryErrorEquivalence drives the error paths through both
// encodings: same request defect, same HTTP status.
func TestBinaryErrorEquivalence(t *testing.T) {
	s, ts := newTestServer(t, Config{Procs: 2, MaxBatch: 4})
	l := testFactor(8)
	lower := true
	n := l.N

	// Zero the first diagonal entry: row 0 of a lower factor is just the
	// diagonal.
	noDiag := l.Clone()
	noDiag.Val[0] = 0

	cases := []struct {
		name string
		req  *SolveRequest
		want int
	}{
		{"zero-diagonal", &SolveRequest{N: n, RowPtr: noDiag.RowPtr, ColIdx: noDiag.ColIdx,
			Val: noDiag.Val, Lower: &lower, B: [][]float64{randVec(n, 1)}}, 400},
		{"no-rhs", &SolveRequest{N: n, RowPtr: l.RowPtr, ColIdx: l.ColIdx, Val: l.Val,
			Lower: &lower}, 400},
		{"batch-too-wide", &SolveRequest{N: n, RowPtr: l.RowPtr, ColIdx: l.ColIdx, Val: l.Val,
			Lower: &lower, B: [][]float64{randVec(n, 1), randVec(n, 2), randVec(n, 3),
				randVec(n, 4), randVec(n, 5)}}, 400},
		{"fp-and-inline", &SolveRequest{N: n, RowPtr: l.RowPtr, ColIdx: l.ColIdx, Val: l.Val,
			Fp: "1234", Lower: &lower, B: [][]float64{randVec(n, 1)}}, 400},
		{"edits-without-base", &SolveRequest{Fp: "1234",
			Edits: []sparse.RowEdit{{Row: 0}}, Lower: &lower, B: [][]float64{randVec(n, 1)}}, 400},
		{"unknown-fp", &SolveRequest{Fp: "00000000deadbeef", Lower: &lower,
			B: [][]float64{randVec(n, 1)}}, 404},
		{"unknown-base-fp", &SolveRequest{BaseFp: "00000000deadbeef", Lower: &lower,
			Edits: []sparse.RowEdit{{Row: 0, Insert: []sparse.EditEntry{{Col: 0, Val: 1}}}},
			B:     [][]float64{randVec(n, 1)}}, 404},
	}
	for _, tc := range cases {
		jsonStatus, _ := postJSONReq(t, ts.URL, tc.req)
		if jsonStatus != tc.want {
			t.Errorf("%s: JSON status %d, want %d", tc.name, jsonStatus, tc.want)
		}
		frame, err := EncodeRequestFrame(tc.req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		binStatus, br := postFrame(t, ts.URL, frame)
		if binStatus != tc.want {
			t.Errorf("%s: binary status %d (%s), want %d", tc.name, binStatus, br.ErrMsg, tc.want)
		}
		if binStatus != 200 && br.Status != tc.want {
			t.Errorf("%s: error frame carries status %d, want %d", tc.name, br.Status, tc.want)
		}
	}

	// An error after admission is a full citizen of the pipeline on both
	// wires: it echoes a trace ID, lands in /v1/trace under that ID with
	// its status, and is charged to the tenant that sent it.
	unknown := &SolveRequest{Fp: "00000000deadbeef", Lower: &lower, B: [][]float64{randVec(n, 1)}}
	unknownFrame, err := EncodeRequestFrame(unknown)
	if err != nil {
		t.Fatal(err)
	}
	late := []struct {
		name, contentType string
		body              []byte
		truncated         bool // declare a longer Content-Length than is sent
		want              int
	}{
		{"json-unknown-fp", "application/json", mustJSON(t, unknown), false, 404},
		{"json-malformed", "application/json", []byte("{nope"), false, 400},
		{"json-truncated", "application/json", mustJSON(t, unknown), true, 400},
		{"binary-unknown-fp", FrameContentType, unknownFrame, false, 404},
		{"binary-malformed", FrameContentType, []byte("DCWF but not a frame"), false, 400},
		{"binary-truncated", FrameContentType, unknownFrame, true, 400},
	}
	for _, tc := range late {
		var resp *http.Response
		if tc.truncated {
			resp = postTruncated(t, ts.URL, tc.contentType, tc.name, tc.body)
		} else {
			req, err := http.NewRequest("POST", ts.URL+"/v1/trisolve", bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", tc.contentType)
			req.Header.Set(TenantHeader, tc.name)
			if resp, err = http.DefaultClient.Do(req); err != nil {
				t.Fatal(err)
			}
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
		var tid string
		if tc.contentType == FrameContentType {
			wr, err := DecodeResponseFrame(body)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			tid = wr.TraceID
		} else {
			var e errorResponse
			if err := json.Unmarshal(body, &e); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			tid = e.TraceID
		}
		if len(tid) != 16 {
			t.Errorf("%s: trace_id %q, want 16 hex digits", tc.name, tid)
		}
		traced := false
		for _, tr := range getTraces(t, ts.URL+"/v1/trace?limit=64").Traces {
			if tr.TraceID == tid {
				traced = tr.Status == tc.want && tr.Tenant == tc.name
			}
		}
		if !traced {
			t.Errorf("%s: no trace %s with status %d for the tenant in /v1/trace", tc.name, tid, tc.want)
		}
		if got := s.tenants.resolve(tc.name).latH.Count(); got != 1 {
			t.Errorf("%s: tenant request histogram count = %d, want 1", tc.name, got)
		}
	}
}

// postTruncated sends a solve request that declares one byte more than
// it delivers, then half-closes: the server admits it and its body read
// fails. No HTTP client will send such a request, so this speaks raw
// HTTP/1.1.
func postTruncated(t *testing.T, url, contentType, tenant string, body []byte) *http.Response {
	t.Helper()
	conn, err := net.Dial("tcp", strings.TrimPrefix(url, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	fmt.Fprintf(conn, "POST /v1/trisolve HTTP/1.1\r\nHost: test\r\nContent-Type: %s\r\n%s: %s\r\nContent-Length: %d\r\n\r\n%s",
		contentType, TenantHeader, tenant, len(body)+1, body)
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestBinaryAdmission429 verifies the shed path answers binary requests
// with a binary 429 frame, equivalently to the JSON path.
func TestBinaryAdmission429(t *testing.T) {
	// TenantQueue: -1 restores the pre-tenant immediate-shed behavior this
	// test pins (with queueing on, the second request would park instead).
	s, ts := newTestServer(t, Config{Procs: 1, Admission: AdmissionConfig{MaxInFlight: 1, Queue: -1}})
	l := testFactor(8)
	body := solveBody(t, l, true, [][]float64{randVec(l.N, 1)})
	stallRequest(t, s, ts.URL, body)
	lower := true
	frame, err := EncodeRequestFrame(&SolveRequest{N: l.N, RowPtr: l.RowPtr, ColIdx: l.ColIdx,
		Val: l.Val, Lower: &lower, B: [][]float64{randVec(l.N, 1)}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/trisolve", FrameContentType, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity binary request: status %d, want 429", resp.StatusCode)
	}
}

// TestBinaryArenaLeak is the lifecycle integration check: after a mixed
// binary workload completes and the server drains, every request arena
// has returned to the pool.
func TestBinaryArenaLeak(t *testing.T) {
	s, err := New(Config{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	drained := assertDrained(t, s)
	ts := httptest.NewServer(s.Handler())
	l := testFactor(10)
	lower := true
	inline, err := EncodeRequestFrame(&SolveRequest{N: l.N, RowPtr: l.RowPtr, ColIdx: l.ColIdx,
		Val: l.Val, Lower: &lower, B: [][]float64{randVec(l.N, 1)}})
	if err != nil {
		t.Fatal(err)
	}
	status, wr := postFrame(t, ts.URL, inline)
	if status != 200 {
		t.Fatalf("inline warmup: status %d: %s", status, wr.ErrMsg)
	}
	resub, err := EncodeRequestFrame(&SolveRequest{Fp: wr.Fp, Lower: &lower,
		B: [][]float64{randVec(l.N, 2)}})
	if err != nil {
		t.Fatal(err)
	}

	const workers, iters = 6, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				frame := resub
				if i%10 == 0 {
					frame = inline
				}
				resp, err := http.Post(ts.URL+"/v1/trisolve", FrameContentType, bytes.NewReader(frame))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					t.Errorf("worker %d iter %d: status %d", w, i, resp.StatusCode)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	ts.Close()
	drained()

	st := s.arenas.Stats()
	if st.Gets != st.Releases {
		t.Fatalf("arena gets %d != releases %d after drain: %+v", st.Gets, st.Releases, st)
	}
	if st.Gets < workers*iters {
		t.Fatalf("arena pool saw %d gets, expected at least %d", st.Gets, workers*iters)
	}
}

// TestSolveFrameZeroAlloc pins the tentpole end to end below the HTTP
// transport: a warm fp-resubmission through solve — frame decode,
// factor-cache lookup, bound solve, response encode
// — performs zero heap allocations.
func TestSolveFrameZeroAlloc(t *testing.T) {
	s, frame := warmBinaryServer(t, 16)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		st := edgeState(s, frameCodec)
		out, status := s.solve(ctx, frame, nil, st)
		if status != 200 {
			t.Fatalf("status %d", status)
		}
		_ = out
		s.putReqState(st)
	})
	if allocs != 0 {
		t.Fatalf("warm binary request = %v allocs/op, want 0", allocs)
	}
}

// TestSolveFrameZeroAllocSampled is TestSolveFrameZeroAlloc with level
// sampling on every request: the pooled per-level clock and the
// solver's memoized timed body must not cost the warm path its 0
// allocs/op.
func TestSolveFrameZeroAllocSampled(t *testing.T) {
	s, frame := warmBinaryServerCfg(t, 16, Config{Procs: 2, TraceSampleEvery: 1})
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		st := edgeState(s, frameCodec)
		out, status := s.solve(ctx, frame, nil, st)
		if status != 200 {
			t.Fatalf("status %d", status)
		}
		_ = out
		s.putReqState(st)
	})
	if allocs != 0 {
		t.Fatalf("warm sampled binary request = %v allocs/op, want 0", allocs)
	}
}

// warmBinaryServer builds a solo-pass server, registers a mesh factor
// through the binary path and returns a warm fp-resubmission frame.
func warmBinaryServer(tb testing.TB, mesh int) (*Server, []byte) {
	return warmBinaryServerCfg(tb, mesh, Config{Procs: 2})
}

// TestBinaryTenantWarmZeroAlloc pins the tentpole allocation contract:
// the warm binary fast path stays at exactly 0 allocs/op with tenant
// accounting on — resolving the frame's tenant section, stamping the
// trace and observing the per-tenant counters and histogram.
func TestBinaryTenantWarmZeroAlloc(t *testing.T) {
	s, frame := warmBinaryServer(t, 16)
	lower := true
	wr, err := DecodeResponseFrame(mustSolveOnce(t, s, frame))
	if err != nil {
		t.Fatal(err)
	}
	tframe, err := EncodeRequestFrame(&SolveRequest{Fp: wr.Fp, Lower: &lower,
		B: [][]float64{randVec(16*16, 9)}, Tenant: "acme", Class: "latency"})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// First tenant-tagged request creates the tenant (allocates); the
	// steady state must not.
	st := edgeState(s, frameCodec)
	if _, status := s.solve(ctx, tframe, nil, st); status != 200 {
		t.Fatalf("tenant warmup status %d", status)
	}
	s.putReqState(st)
	allocs := testing.AllocsPerRun(100, func() {
		st := edgeState(s, frameCodec)
		_, status := s.solve(ctx, tframe, nil, st)
		if status != 200 {
			t.Fatalf("status %d", status)
		}
		s.putReqState(st)
	})
	if allocs != 0 {
		t.Fatalf("warm tenant-tagged binary request = %v allocs/op, want 0", allocs)
	}
	if got := s.tenants.resolve("acme").classReq[ClassLatency].Value(); got < 100 {
		t.Fatalf("tenant accounting saw %d requests, want >= 100", got)
	}
}

// mustSolveOnce runs one frame through the server and returns the raw
// response frame bytes.
func mustSolveOnce(tb testing.TB, s *Server, frame []byte) []byte {
	tb.Helper()
	out, status := solveVia(s, frameCodec, frame)
	if status != 200 {
		tb.Fatalf("status %d", status)
	}
	return out
}

// warmBinaryServerCfg is warmBinaryServer with a caller-chosen Config.
func warmBinaryServerCfg(tb testing.TB, mesh int, cfg Config) (*Server, []byte) {
	tb.Helper()
	s, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(assertDrained(tb, s))
	l := testFactor(mesh)
	lower := true
	inline, err := EncodeRequestFrame(&SolveRequest{N: l.N, RowPtr: l.RowPtr, ColIdx: l.ColIdx,
		Val: l.Val, Lower: &lower, B: [][]float64{randVec(l.N, 1)}})
	if err != nil {
		tb.Fatal(err)
	}
	ctx := context.Background()
	st := edgeState(s, frameCodec)
	out, status := s.solve(ctx, inline, nil, st)
	if status != 200 {
		tb.Fatalf("inline warmup status %d", status)
	}
	wr, err := DecodeResponseFrame(out)
	if err != nil {
		tb.Fatal(err)
	}
	s.putReqState(st)
	if wr.Fp == "" {
		tb.Fatal("warmup returned no fingerprint")
	}
	frame, err := EncodeRequestFrame(&SolveRequest{Fp: wr.Fp, Lower: &lower,
		B: [][]float64{randVec(l.N, 2)}})
	if err != nil {
		tb.Fatal(err)
	}
	// One warm pass so the factor's plan is bound.
	st = edgeState(s, frameCodec)
	if _, status := s.solve(ctx, frame, nil, st); status != 200 {
		tb.Fatalf("resubmit warmup status %d", status)
	}
	s.putReqState(st)
	return s, frame
}

// BenchmarkBinaryRequest measures the binary wire path. The fp-warm
// case is the tentpole benchmark: a warm fingerprint resubmission from
// frame bytes to response bytes, gated by CI at exactly 0 allocs/op.
func BenchmarkBinaryRequest(b *testing.B) {
	b.Run("fp-warm", func(b *testing.B) {
		s, frame := warmBinaryServer(b, 16)
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st := edgeState(s, frameCodec)
			_, status := s.solve(ctx, frame, nil, st)
			if status != 200 {
				b.Fatalf("status %d", status)
			}
			s.putReqState(st)
		}
	})
	b.Run("fp-warm-sampled", func(b *testing.B) {
		// Per-wavefront-level timing on every request: the pooled level
		// clock and the solver's memoized timed body must keep the warm
		// path at 0 allocs/op (gated by CI's allocs_budget alongside
		// fp-warm).
		s, frame := warmBinaryServerCfg(b, 16, Config{Procs: 2, TraceSampleEvery: 1})
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st := edgeState(s, frameCodec)
			_, status := s.solve(ctx, frame, nil, st)
			if status != 200 {
				b.Fatalf("status %d", status)
			}
			s.putReqState(st)
		}
	})
	b.Run("fp-warm-tenant", func(b *testing.B) {
		// The warm path with tenant accounting on: the frame carries a
		// tenant section, so every iteration resolves the tenant, stamps
		// the trace and feeds the per-tenant counters and histogram. The
		// allocs_budget gate pins this at 0 allocs/op alongside fp-warm.
		s, frame := warmBinaryServer(b, 16)
		lower := true
		wr, err := DecodeResponseFrame(mustSolveOnce(b, s, frame))
		if err != nil {
			b.Fatal(err)
		}
		tframe, err := EncodeRequestFrame(&SolveRequest{Fp: wr.Fp, Lower: &lower,
			B: [][]float64{randVec(16*16, 9)}, Tenant: "acme", Class: "latency"})
		if err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		st := edgeState(s, frameCodec)
		if _, status := s.solve(ctx, tframe, nil, st); status != 200 {
			b.Fatalf("tenant warmup status %d", status)
		}
		s.putReqState(st)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st := edgeState(s, frameCodec)
			_, status := s.solve(ctx, tframe, nil, st)
			if status != 200 {
				b.Fatalf("status %d", status)
			}
			s.putReqState(st)
		}
	})
	b.Run("http", func(b *testing.B) {
		s, frame := warmBinaryServer(b, 16)
		h := s.Handler()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req := httptest.NewRequest("POST", "/v1/trisolve", bytes.NewReader(frame))
			req.Header.Set("Content-Type", FrameContentType)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != 200 {
				b.Fatalf("status %d", rec.Code)
			}
		}
	})
}
