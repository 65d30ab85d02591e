package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"doconsider/internal/obs"
)

// postTenant posts a JSON solve request with a tenant header and
// returns the status, the decoded error body (non-200) and the
// Retry-After header value.
func postTenant(t *testing.T, url, tenantHeader string, body []byte) (int, errorResponse, string) {
	t.Helper()
	req, err := http.NewRequest("POST", url+"/v1/trisolve", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenantHeader != "" {
		req.Header.Set(TenantHeader, tenantHeader)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e errorResponse
	if resp.StatusCode != http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("status %d with undecodable error body: %v", resp.StatusCode, err)
		}
	}
	return resp.StatusCode, e, resp.Header.Get("Retry-After")
}

// postFrameHdr is postFrame plus response headers.
func postFrameHdr(t *testing.T, url string, frame []byte) (int, *WireResponse, http.Header) {
	t.Helper()
	resp, err := http.Post(url+"/v1/trisolve", FrameContentType, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != FrameContentType {
		t.Fatalf("response content type %q, want %q", ct, FrameContentType)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	wr, err := DecodeResponseFrame(buf.Bytes())
	if err != nil {
		t.Fatalf("decoding response frame (status %d): %v", resp.StatusCode, err)
	}
	return resp.StatusCode, wr, resp.Header
}

// wireReply is what postWire reads off either wire: the status, the
// pass's fused count, width, strategy and the solutions (200), and the
// error message (anything else).
type wireReply struct {
	status, fused, width int
	strategy             string
	xs                   [][]float64
	errMsg               string
}

// postWire sends req over the named wire ("json" or "binary") with an
// optional tenant header. It reports failures — an undecodable body
// included — as an error so it is usable off the test goroutine.
func postWire(url, wire, tenantHeader string, req *SolveRequest) (wireReply, error) {
	body, contentType := []byte(nil), "application/json"
	var err error
	if wire == "binary" {
		contentType = FrameContentType
		body, err = EncodeRequestFrame(req)
	} else {
		body, err = json.Marshal(req)
	}
	if err != nil {
		return wireReply{}, err
	}
	hreq, err := http.NewRequest("POST", url+"/v1/trisolve", bytes.NewReader(body))
	if err != nil {
		return wireReply{}, err
	}
	hreq.Header.Set("Content-Type", contentType)
	if tenantHeader != "" {
		hreq.Header.Set(TenantHeader, tenantHeader)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		return wireReply{}, err
	}
	defer resp.Body.Close()
	rep := wireReply{status: resp.StatusCode}
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return rep, err
	}
	if wire == "binary" {
		wr, err := DecodeResponseFrame(out)
		if err != nil {
			return rep, err
		}
		rep.fused, rep.width, rep.strategy, rep.xs, rep.errMsg = wr.Fused, wr.Width, wr.Strategy, wr.X, wr.ErrMsg
		return rep, nil
	}
	if rep.status != http.StatusOK {
		var e errorResponse
		err = json.Unmarshal(out, &e)
		rep.errMsg = e.Error
		return rep, err
	}
	var sr SolveResponse
	if err = json.Unmarshal(out, &sr); err != nil {
		return rep, err
	}
	rep.fused, rep.width, rep.strategy = sr.Fused, sr.Width, sr.Strategy
	rep.xs, err = sr.Solutions()
	return rep, err
}

// TestNegativeTimeoutRejectedBothWires pins the one timeout rule on both
// wires: a negative timeout (JSON timeout_ms, DCWF timeout section) is
// rejected with 400 and a message — the bugfix for silently ignored
// negative timeouts — and a timeout larger than Config.DefaultTimeout
// does not extend it: under a default deadline that passes before any
// solve starts, a request asking for a minute still comes back 504.
func TestNegativeTimeoutRejectedBothWires(t *testing.T) {
	// The negative case runs under the default deadline: under a 1 ns
	// one the body read itself can miss the deadline (504) before the
	// timeout is decoded.
	_, tsDefault := newTestServer(t, Config{Procs: 1})
	_, tsExpired := newTestServer(t, Config{Procs: 1, DefaultTimeout: time.Nanosecond})
	l := testFactor(8)
	lower := true
	cases := []struct {
		name      string
		url       string
		timeoutMs int
		want      int
	}{
		{"negative", tsDefault.URL, -5, http.StatusBadRequest},
		{"larger than default does not extend", tsExpired.URL, 60_000, http.StatusGatewayTimeout},
	}
	for _, tc := range cases {
		for _, wire := range []string{"json", "binary"} {
			req := &SolveRequest{N: l.N, RowPtr: l.RowPtr, ColIdx: l.ColIdx, Val: l.Val,
				Lower: &lower, B: [][]float64{randVec(l.N, 1)}, TimeoutMs: tc.timeoutMs}
			rep, err := postWire(tc.url, wire, "", req)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, wire, err)
			}
			if rep.status != tc.want {
				t.Errorf("%s/%s: status %d, want %d", tc.name, wire, rep.status, tc.want)
			}
			if rep.errMsg == "" {
				t.Errorf("%s/%s: empty error message", tc.name, wire)
			}
		}
	}
}

// TestSlowBodyHitsDeadlineBothWires pins that Config.DefaultTimeout
// covers the body read: a client that sends its headers and trickles the
// body past the deadline is answered 504 on its own wire, traced and
// charged to its tenant, and holds neither its admission slot nor its
// request arena afterwards.
func TestSlowBodyHitsDeadlineBothWires(t *testing.T) {
	s, ts := newTestServer(t, Config{Procs: 1, DefaultTimeout: 50 * time.Millisecond})
	l := testFactor(8)
	lower := true
	req := &SolveRequest{N: l.N, RowPtr: l.RowPtr, ColIdx: l.ColIdx, Val: l.Val,
		Lower: &lower, B: [][]float64{randVec(l.N, 1)}}
	for _, wire := range []string{"json", "binary"} {
		contentType := "application/json"
		body, err := json.Marshal(req)
		if wire == "binary" {
			contentType = FrameContentType
			body, err = EncodeRequestFrame(req)
		}
		if err != nil {
			t.Fatal(err)
		}
		conn, err := net.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
			t.Fatal(err)
		}
		tenant := "slow-" + wire
		fmt.Fprintf(conn, "POST /v1/trisolve HTTP/1.1\r\nHost: test\r\nContent-Type: %s\r\n%s: %s\r\nContent-Length: %d\r\n\r\n",
			contentType, TenantHeader, tenant, len(body))
		// The server answers at its deadline, before the body is sent:
		// the reply must arrive while the client still withholds it.
		type reply struct {
			resp *http.Response
			err  error
		}
		br := bufio.NewReader(conn)
		got := make(chan reply, 1)
		go func() {
			resp, err := http.ReadResponse(br, nil)
			if err == nil {
				_, err = io.ReadAll(resp.Body)
				resp.Body.Close()
			}
			got <- reply{resp, err}
		}()
		var rep reply
		select {
		case rep = <-got:
		case <-time.After(2 * time.Second):
			t.Fatalf("%s: no reply 2s after the headers while the body is withheld", wire)
		}
		if rep.err != nil {
			t.Fatalf("%s: reading the reply: %v", wire, rep.err)
		}
		// The body arrives late; the connection, whose unread body can
		// no longer be told from the next request, is already closed.
		conn.Write(body)
		if err := conn.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
			t.Fatal(err)
		}
		if _, err := br.ReadByte(); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("%s: connection still open after the 504 (read: %v)", wire, err)
		}
		if rep.resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("%s: status %d, want 504", wire, rep.resp.StatusCode)
		}
		if ct := rep.resp.Header.Get("Content-Type"); ct != contentType {
			t.Fatalf("%s: reply Content-Type %q, want the request's wire %q", wire, ct, contentType)
		}
		if got := s.tenants.resolve(tenant).classReq[ClassBatch].Value(); got != 1 {
			t.Fatalf("%s: tenant %s charged %d requests, want 1", wire, tenant, got)
		}
		traced := false
		for _, tr := range s.tracer.ring.Snapshot(0) {
			traced = traced || (tr.Status == http.StatusGatewayTimeout && traceJSON(&tr).Tenant == tenant)
		}
		if !traced {
			t.Fatalf("%s: no 504 trace for tenant %s", wire, tenant)
		}
	}
	if n := s.adm.inFlight(); n != 0 {
		t.Fatalf("%d requests still admitted", n)
	}
	if st := s.Stats(); st.Arena.Outstanding != 0 {
		t.Fatalf("%d request arenas outstanding", st.Arena.Outstanding)
	}
}

// TestShedResponseBothWires pins the honest-shedding contract of a 429:
// a derived Retry-After header on both wires (satellite of the
// hard-coded "Retry-After: 1" bug), a trace_id echo in the error body,
// an admission-stage stamped trace in the ring, and the shed counted in
// the per-wire endpoint metrics.
func TestShedResponseBothWires(t *testing.T) {
	// TenantQueue: -1 disables queueing so the second request sheds
	// immediately instead of parking.
	s, ts := newTestServer(t, Config{Procs: 1, Admission: AdmissionConfig{MaxInFlight: 1, Queue: -1}})
	l := testFactor(8)
	body := solveBody(t, l, true, [][]float64{randVec(l.N, 1)})
	stallRequest(t, s, ts.URL, body)

	// JSON wire.
	status, e, retry := postTenant(t, ts.URL, "shedme", body)
	if status != http.StatusTooManyRequests {
		t.Fatalf("JSON shed: status %d, want 429", status)
	}
	if n, err := strconv.Atoi(retry); err != nil || n < 1 {
		t.Fatalf("JSON shed: Retry-After %q, want an integer >= 1", retry)
	}
	if len(e.TraceID) != 16 {
		t.Fatalf("JSON shed: trace_id %q, want 16 hex digits", e.TraceID)
	}

	// Binary wire: the regression this pins is the binary path shedding
	// without a Retry-After (and without any frame body at all).
	lower := true
	frame, err := EncodeRequestFrame(&SolveRequest{N: l.N, RowPtr: l.RowPtr, ColIdx: l.ColIdx,
		Val: l.Val, Lower: &lower, B: [][]float64{randVec(l.N, 2)}})
	if err != nil {
		t.Fatal(err)
	}
	bstatus, wr, hdr := postFrameHdr(t, ts.URL, frame)
	if bstatus != http.StatusTooManyRequests {
		t.Fatalf("binary shed: status %d, want 429", bstatus)
	}
	if n, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || n < 1 {
		t.Fatalf("binary shed: Retry-After %q, want an integer >= 1", hdr.Get("Retry-After"))
	}
	if wr.ErrMsg == "" || len(wr.TraceID) != 16 {
		t.Fatalf("binary shed: error frame = msg %q trace %q, want both populated", wr.ErrMsg, wr.TraceID)
	}

	// Both sheds are traced with the whole rejection charged to the
	// admission stage, carrying the tenant that was refused.
	traces := s.tracer.ring.Snapshot(0)
	seen := map[string]bool{}
	for i := range traces {
		tr := &traces[i]
		if tr.Status != http.StatusTooManyRequests {
			continue
		}
		tj := traceJSON(tr)
		if tj.Stages["admission"] != tj.TotalMs {
			t.Fatalf("shed trace (%s): admission stage %.3fms of %.3fms total, want all of it",
				tj.Wire, tj.Stages["admission"], tj.TotalMs)
		}
		seen[tj.Wire] = true
		if tj.Wire == "json" {
			if tj.Tenant != "shedme" || tj.Class != "batch" {
				t.Fatalf("JSON shed trace tenant/class = %q/%q, want shedme/batch", tj.Tenant, tj.Class)
			}
			if tj.TraceID != e.TraceID {
				t.Fatalf("JSON shed trace id %q, body echoed %q", tj.TraceID, e.TraceID)
			}
		}
	}
	if !seen["json"] || !seen["binary"] {
		t.Fatalf("shed traces by wire = %v, want both json and binary", seen)
	}

	// And the per-wire endpoint metrics counted them.
	if got := s.solveEP[obs.WireJSON].codes[429].Value(); got != 1 {
		t.Fatalf("JSON endpoint 429 counter = %d, want 1", got)
	}
	if got := s.solveEP[obs.WireBinary].codes[429].Value(); got != 1 {
		t.Fatalf("binary endpoint 429 counter = %d, want 1", got)
	}
	if got := s.solveEP[obs.WireBinary].hist.Count(); got < 1 {
		t.Fatal("binary endpoint latency histogram did not observe the shed")
	}

	// Tenant accounting: the JSON shed was attributed to its tenant.
	if got := s.tenants.resolve("shedme").shed.Value(); got != 1 {
		t.Fatalf("tenant shed counter = %d, want 1", got)
	}
}

// TestDraining503EchoesTraceID pins the drain-path trace contract on
// both wires: a 503 carries a trace_id and lands in the ring with the
// admission stamp.
func TestDraining503EchoesTraceID(t *testing.T) {
	s, ts := newTestServer(t, Config{Procs: 1})
	s.draining.Store(true)
	defer s.draining.Store(false)
	l := testFactor(8)
	body := solveBody(t, l, true, [][]float64{randVec(l.N, 1)})
	status, e, _ := postTenant(t, ts.URL, "", body)
	if status != http.StatusServiceUnavailable || len(e.TraceID) != 16 {
		t.Fatalf("JSON drain: status %d trace %q, want 503 with a trace id", status, e.TraceID)
	}
	lower := true
	frame, err := EncodeRequestFrame(&SolveRequest{N: l.N, RowPtr: l.RowPtr, ColIdx: l.ColIdx,
		Val: l.Val, Lower: &lower, B: [][]float64{randVec(l.N, 1)}})
	if err != nil {
		t.Fatal(err)
	}
	bstatus, wr := postFrame(t, ts.URL, frame)
	if bstatus != http.StatusServiceUnavailable || len(wr.TraceID) != 16 {
		t.Fatalf("binary drain: status %d trace %q, want 503 with a trace id", bstatus, wr.TraceID)
	}
	found := false
	for _, tr := range s.tracer.ring.Snapshot(0) {
		if tr.Status == http.StatusServiceUnavailable {
			found = true
		}
	}
	if !found {
		t.Fatal("no 503 trace in the ring")
	}
}

// TestTenantHeaderRejectedBothWires checks malformed tenant headers are
// rejected with 400 before any body is read, on both wires.
func TestTenantHeaderRejectedBothWires(t *testing.T) {
	_, ts := newTestServer(t, Config{Procs: 1})
	l := testFactor(8)
	body := solveBody(t, l, true, [][]float64{randVec(l.N, 1)})
	status, e, _ := postTenant(t, ts.URL, "bad tenant name", body)
	if status != http.StatusBadRequest || e.Error == "" {
		t.Fatalf("JSON bad tenant header: status %d error %q, want 400", status, e.Error)
	}
	lower := true
	frame, err := EncodeRequestFrame(&SolveRequest{N: l.N, RowPtr: l.RowPtr, ColIdx: l.ColIdx,
		Val: l.Val, Lower: &lower, B: [][]float64{randVec(l.N, 1)}})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", ts.URL+"/v1/trisolve", bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", FrameContentType)
	req.Header.Set(TenantHeader, "also;class=wat")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("binary bad tenant header: status %d, want 400", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != FrameContentType {
		t.Fatalf("binary bad tenant header answered on the %q wire, want a frame", ct)
	}
}

// TestTenantAttributionBothWires checks solves land in the right
// tenant's stats: the JSON path from the header, the binary path from
// the frame's tenant section (which overrides the header attribution).
func TestTenantAttributionBothWires(t *testing.T) {
	s, ts := newTestServer(t, Config{Procs: 1})
	l := testFactor(8)
	body := solveBody(t, l, true, [][]float64{randVec(l.N, 1)})
	if status, _, _ := postTenant(t, ts.URL, "jsonten;class=latency", body); status != http.StatusOK {
		t.Fatalf("JSON tenant solve: status %d", status)
	}
	lower := true
	frame, err := EncodeRequestFrame(&SolveRequest{N: l.N, RowPtr: l.RowPtr, ColIdx: l.ColIdx,
		Val: l.Val, Lower: &lower, B: [][]float64{randVec(l.N, 1)},
		Tenant: "binten", Class: "latency"})
	if err != nil {
		t.Fatal(err)
	}
	if status, _ := postFrame(t, ts.URL, frame); status != http.StatusOK {
		t.Fatalf("binary tenant solve: status %d", status)
	}
	st := s.Stats()
	byName := map[string]TenantStats{}
	for _, ten := range st.Tenants {
		byName[ten.Name] = ten
	}
	if got := byName["jsonten"]; got.LatencyRequests != 1 {
		t.Fatalf("jsonten stats = %+v, want one latency request", got)
	}
	if got := byName["binten"]; got.LatencyRequests != 1 {
		t.Fatalf("binten stats = %+v, want one latency request", got)
	}
	if _, ok := byName[DefaultTenant]; !ok {
		t.Fatal("default tenant missing from stats")
	}

	// The per-tenant metric families render with {tenant} labels.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{"loops_tenant_requests_total", `tenant="jsonten"`, `tenant="binten"`, "loops_admission_queued"} {
		if !bytes.Contains([]byte(text), []byte(want)) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}

// TestChaosTenantFairness is the adversarial-mix chaos test the CI race
// matrix runs: one latency tenant against seven flooding batch tenants
// over a small admission capacity, with a drain landing under fire. It
// asserts liveness and honesty (every request is answered 200/429/503,
// the latency tenant makes progress, shed accounting matches) rather
// than wall-clock numbers, so it is meaningful under -race.
func TestChaosTenantFairness(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Procs:     1,
		Admission: AdmissionConfig{MaxInFlight: 2, Queue: 4},
		Tenant:    TenantConfig{Quota: 2, Weights: map[string]int{"lat-0": 4}},
	})
	l := testFactor(8)
	body := solveBody(t, l, true, [][]float64{randVec(l.N, 1)})

	const clients = 8
	const perClient = 25
	var ok, refused, failed [clients]int
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			hdr := fmt.Sprintf("batch-%d", cl)
			if cl == 0 {
				hdr = "lat-0;class=latency"
			}
			for i := 0; i < perClient; i++ {
				req, err := http.NewRequest("POST", ts.URL+"/v1/trisolve", bytes.NewReader(body))
				if err != nil {
					failed[cl]++
					continue
				}
				req.Header.Set("Content-Type", "application/json")
				req.Header.Set(TenantHeader, hdr)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					failed[cl]++
					continue
				}
				switch resp.StatusCode {
				case http.StatusOK:
					ok[cl]++
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					refused[cl]++
				default:
					failed[cl]++
				}
				resp.Body.Close()
			}
		}(cl)
	}
	wg.Wait()

	totalOK, totalFailed := 0, 0
	for cl := 0; cl < clients; cl++ {
		totalOK += ok[cl]
		totalFailed += failed[cl]
	}
	if totalFailed != 0 {
		t.Fatalf("%d requests failed with unexpected statuses", totalFailed)
	}
	if totalOK == 0 {
		t.Fatal("no request succeeded under the chaos mix")
	}
	if ok[0] == 0 {
		t.Fatal("the latency tenant was starved: zero successes against the batch flood")
	}
	st := s.Stats()
	var acc, shed uint64
	for _, ten := range st.Tenants {
		acc += ten.Accepted
		shed += ten.Shed
	}
	if acc != st.Accepted || shed != st.Shed {
		t.Fatalf("per-tenant accounting (acc %d shed %d) disagrees with totals (acc %d shed %d)",
			acc, shed, st.Accepted, st.Shed)
	}

	// Drain under (residual) fire: a request racing the drain is
	// answered 503, and the drain completes.
	drainErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drainErr <- s.Shutdown(ctx)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for !s.draining.Load() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	status, _, _ := postTenant(t, ts.URL, "lat-0;class=latency", body)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("post-drain request: status %d, want 503", status)
	}
	if err := <-drainErr; err != nil {
		t.Fatalf("drain under fire: %v", err)
	}
}
