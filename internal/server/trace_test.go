package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
)

// getTraces fetches a trace endpoint and decodes the reply.
func getTraces(t *testing.T, url string) TraceListResponse {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	var out TraceListResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// metricValue scrapes /metrics and returns the value of the series with
// the given exposition prefix (name + label set).
func metricValue(t *testing.T, url, prefix string) float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, prefix+" ") {
			v, err := strconv.ParseFloat(strings.TrimSpace(line[len(prefix):]), 64)
			if err != nil {
				t.Fatalf("bad metric line %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric series %q not in exposition", prefix)
	return 0
}

// TestTraceEndToEnd is the tracing acceptance test: a traced JSON
// request's per-stage durations must sum to its total exactly, the
// total must sit within the endpoint-observed latency, the client's
// trace ID must round-trip, and level sampling must attach
// per-wavefront-level executor time.
func TestTraceEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{Procs: 2, TraceSampleEvery: 1})
	l := testFactor(12)
	lower := true
	req := SolveRequest{N: l.N, RowPtr: l.RowPtr, ColIdx: l.ColIdx, Val: l.Val,
		Lower: &lower, B: [][]float64{randVec(l.N, 3)}, TraceID: "deadbeef"}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, sr := postSolve(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: status %d", resp.StatusCode)
	}
	if sr.TraceID != "00000000deadbeef" {
		t.Fatalf("response trace_id = %q, want 00000000deadbeef", sr.TraceID)
	}

	traces := getTraces(t, ts.URL+"/v1/trace")
	var tr *TraceJSON
	for i := range traces.Traces {
		if traces.Traces[i].TraceID == sr.TraceID {
			tr = &traces.Traces[i]
		}
	}
	if tr == nil {
		t.Fatalf("trace %s not in /v1/trace (%d traces)", sr.TraceID, len(traces.Traces))
	}
	if tr.Wire != "json" || tr.Status != 200 || tr.N != l.N || tr.Batch != 1 || tr.Strategy == "" {
		t.Fatalf("trace metadata wrong: %+v", tr)
	}

	// The lap protocol partitions the total: stages_ms must sum to
	// total_ms up to float formatting noise.
	var stageSum float64
	for _, ms := range tr.Stages {
		stageSum += ms
	}
	if diff := stageSum - tr.TotalMs; diff > 1e-3 || diff < -1e-3 {
		t.Fatalf("stage sum %.6fms != total %.6fms", stageSum, tr.TotalMs)
	}
	if tr.TotalMs <= 0 || tr.Stages["execute"] <= 0 {
		t.Fatalf("trace has no time where time must exist: %+v", tr.Stages)
	}

	// The trace's total is the handler's own view of the request; the
	// endpoint histogram observes the same request from the wrapper just
	// outside. They must agree up to wrapper overhead (generous slack
	// for CI schedulers).
	epSum := metricValue(t, ts.URL, `loops_http_request_seconds_sum{endpoint="trisolve",wire="json"}`)
	totalSec := tr.TotalMs / 1e3
	if totalSec > epSum {
		t.Fatalf("trace total %.6fs exceeds endpoint-observed %.6fs", totalSec, epSum)
	}
	if epSum-totalSec > 0.5 {
		t.Fatalf("trace total %.6fs and endpoint-observed %.6fs disagree beyond tolerance", totalSec, epSum)
	}

	// Stage histograms come from the same stamps.
	if c := metricValue(t, ts.URL, `loops_stage_seconds_count{stage="execute"}`); c != 1 {
		t.Fatalf("stage histogram count = %v, want 1", c)
	}

	// Sampling every request: the trace must carry level timing.
	if len(tr.Levels) == 0 {
		t.Fatalf("sampled trace has no level timing: %+v", tr)
	}
}

// TestTraceBinaryWire pins trace-ID propagation and per-wire endpoint
// accounting on the binary protocol: the DCWF request carries the
// client's trace ID, the response frame echoes it, the trace lands in
// the ring tagged wire=binary, and the request is counted in the
// binary-wire endpoint histogram exactly like a JSON request would be.
func TestTraceBinaryWire(t *testing.T) {
	_, ts := newTestServer(t, Config{Procs: 2, TraceSampleEvery: 1})
	l := testFactor(10)
	lower := true
	frame, err := EncodeRequestFrame(&SolveRequest{N: l.N, RowPtr: l.RowPtr, ColIdx: l.ColIdx,
		Val: l.Val, Lower: &lower, B: [][]float64{randVec(l.N, 1)}, TraceID: "cafe"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/trisolve", FrameContentType, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary solve: status %d: %s", resp.StatusCode, out)
	}
	wr, err := DecodeResponseFrame(out)
	if err != nil {
		t.Fatal(err)
	}
	if wr.TraceID != "000000000000cafe" {
		t.Fatalf("response frame trace_id = %q, want 000000000000cafe", wr.TraceID)
	}

	traces := getTraces(t, ts.URL+"/v1/trace")
	found := false
	for _, tr := range traces.Traces {
		if tr.TraceID == wr.TraceID {
			found = true
			if tr.Wire != "binary" || tr.Status != 200 {
				t.Fatalf("binary trace wrong: %+v", tr)
			}
			var sum float64
			for _, ms := range tr.Stages {
				sum += ms
			}
			if diff := sum - tr.TotalMs; diff > 1e-3 || diff < -1e-3 {
				t.Fatalf("binary stage sum %.6f != total %.6f", sum, tr.TotalMs)
			}
		}
	}
	if !found {
		t.Fatalf("binary trace not in ring (%d traces)", len(traces.Traces))
	}

	// Satellite fix: binary requests count in the per-wire endpoint
	// histogram just as JSON ones do.
	if c := metricValue(t, ts.URL, `loops_http_request_seconds_count{endpoint="trisolve",wire="binary"}`); c != 1 {
		t.Fatalf("binary endpoint histogram count = %v, want 1", c)
	}
	if c := metricValue(t, ts.URL, `loops_http_requests_total{endpoint="trisolve",wire="binary",code="200"}`); c != 1 {
		t.Fatalf("binary endpoint request counter = %v, want 1", c)
	}
}

// TestTraceSlowest exercises the top-K endpoint: it must return at most
// K traces ordered by descending total duration.
func TestTraceSlowest(t *testing.T) {
	_, ts := newTestServer(t, Config{Procs: 1})
	l := testFactor(10)
	body := solveBody(t, l, true, [][]float64{randVec(l.N, 1)})
	for i := 0; i < 5; i++ {
		if resp, _ := postSolve(t, ts.URL, body); resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
	}
	out := getTraces(t, ts.URL+"/v1/trace/slowest?k=3")
	if len(out.Traces) != 3 {
		t.Fatalf("slowest returned %d traces, want 3", len(out.Traces))
	}
	for i := 1; i < len(out.Traces); i++ {
		if out.Traces[i].TotalMs > out.Traces[i-1].TotalMs {
			t.Fatalf("slowest not sorted: %v then %v", out.Traces[i-1].TotalMs, out.Traces[i].TotalMs)
		}
	}
	// Server-assigned IDs (no client trace_id): all distinct, all known
	// to the full listing too.
	seen := map[string]bool{}
	for _, tr := range getTraces(t, ts.URL+"/v1/trace").Traces {
		if seen[tr.TraceID] {
			t.Fatalf("duplicate server-assigned trace ID %s", tr.TraceID)
		}
		seen[tr.TraceID] = true
	}
	if len(seen) != 5 {
		t.Fatalf("ring has %d traces, want 5", len(seen))
	}

	// Stats carries the same stage summary the histograms serve.
	var st StatsResponse
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.Stages) == 0 {
		t.Fatal("stats reply has no stage summary")
	}
	for _, sg := range st.Stages {
		if sg.Stage == "execute" && sg.Count != 5 {
			t.Fatalf("execute stage count = %d, want 5", sg.Count)
		}
	}
}
