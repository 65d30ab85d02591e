// Package client is the exported, typed client for the doconsider
// serving tier. It is the one place request encoding lives: both wire
// formats (JSON with base64-packed right-hand sides, and the DCWF
// binary frame), tenant/class identification, trace-ID propagation,
// and the error contract (typed *APIError carrying the status, the
// server's message, the echoed trace ID and any Retry-After hint).
//
// Everything in the repo that talks to a server goes through this
// package: the load generator (cmd/loops loadgen), the worked example
// (examples/server) and the distributed front door's backend legs
// (internal/router). A Client is cheap and safe for concurrent use;
// derive per-tenant clients with Client.ForTenant.
//
// The recurring-traffic idioms — register a factor once, resubmit by
// content fingerprint, fall back to a full ship when the server evicted
// it, and evolve the structure with base_fp+edits drift requests — are
// packaged in Factor (see factor.go), which keeps the fingerprint/
// matrix pair consistent under concurrent drift.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"doconsider/internal/server"
)

// Wire selects the request encoding.
type Wire string

const (
	// WireJSON posts application/json bodies with right-hand sides
	// packed as base64 little-endian float64 (b_b64).
	WireJSON Wire = "json"
	// WireBinary posts DCWF frames (Content-Type
	// application/x-doconsider-frame) that the server decodes zero-copy
	// into pooled arena memory.
	WireBinary Wire = "binary"
)

// Re-exported request/response types: the client speaks the server's
// own schema, so callers never translate between parallel structs.
type (
	// Request is a triangular-solve submission (POST /v1/trisolve).
	Request = server.SolveRequest
	// Response is the solve reply on either wire.
	Response = server.SolveResponse
	// Stats is the GET /v1/stats snapshot.
	Stats = server.StatsResponse
)

// APIError is a non-2xx reply from the server: the tier's error
// contract made typed. Transport failures (connection refused, timeout)
// are NOT APIErrors — they surface as the underlying *url.Error, which
// is how callers distinguish "the server said no" from "no server".
type APIError struct {
	Status     int           // HTTP status code
	Msg        string        // server's error message
	TraceID    string        // echoed trace ID, when the server minted one
	RetryAfter time.Duration // parsed Retry-After hint; 0 when absent
}

func (e *APIError) Error() string {
	if e.Msg == "" {
		return fmt.Sprintf("server: status %d", e.Status)
	}
	return fmt.Sprintf("server: status %d: %s", e.Status, e.Msg)
}

// Overloaded reports whether the error is an honest-shedding reply
// (429 admission shed or 503 drain) that a caller may retry after the
// advisory delay rather than treat as a failure.
func (e *APIError) Overloaded() bool {
	return e.Status == http.StatusTooManyRequests || e.Status == http.StatusServiceUnavailable
}

// StatusOf extracts the HTTP status from an error, or 0 when err is not
// an *APIError (transport failure, encoding error, nil).
func StatusOf(err error) int {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Status
	}
	return 0
}

// Client posts requests to one doconsider server (or front door — the
// router speaks the same surface). The zero value is not usable; create
// with New.
type Client struct {
	base    string
	httpc   *http.Client
	wire    Wire
	tenant  string
	class   string // "latency" or "batch"; "" lets the server default
	retries int
	backoff time.Duration
}

// Option configures a Client at construction.
type Option func(*Client)

// WithWire selects the request encoding (default WireJSON).
func WithWire(w Wire) Option { return func(c *Client) { c.wire = w } }

// WithHTTPClient substitutes the underlying *http.Client (connection
// pool, timeout, transport). Clients derived with ForTenant share it.
func WithHTTPClient(h *http.Client) Option { return func(c *Client) { c.httpc = h } }

// WithTimeout sets a per-request timeout on the default http.Client.
// Ignored if WithHTTPClient is also given (set the timeout there).
func WithTimeout(d time.Duration) Option { return func(c *Client) { c.httpc.Timeout = d } }

// WithTenant stamps every request with a tenant identity and priority
// class ("latency" or "batch"; empty class defaults server-side to
// batch). Requests that carry their own Tenant field override this.
func WithTenant(name, class string) Option {
	return func(c *Client) { c.tenant, c.class = name, class }
}

// WithRetry enables Solve's bounded retry of overload replies (429/503)
// and transport errors: up to max extra attempts, sleeping the server's
// Retry-After when it gave one and an exponential backoff from base
// otherwise. Do never retries regardless.
func WithRetry(max int, base time.Duration) Option {
	return func(c *Client) { c.retries, c.backoff = max, base }
}

// New builds a client for the server at baseURL (e.g.
// "http://127.0.0.1:8080"; a trailing slash is trimmed).
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base:    strings.TrimRight(baseURL, "/"),
		httpc:   &http.Client{},
		wire:    WireJSON,
		backoff: 50 * time.Millisecond,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// ForTenant returns a shallow copy of c that identifies as the given
// tenant/class, sharing the underlying http.Client and its connection
// pool. This is how a pool of per-tenant workers rides one transport.
func (c *Client) ForTenant(name, class string) *Client {
	d := *c
	d.tenant, d.class = name, class
	return &d
}

// BaseURL returns the server address the client was built with.
func (c *Client) BaseURL() string { return c.base }

// Wire returns the configured request encoding.
func (c *Client) Wire() Wire { return c.wire }

// tenantHeaderValue renders the effective tenant identity for a request
// in X-Doconsider-Tenant form ("name" or "name;class=latency"), or ""
// for untagged traffic.
func (c *Client) tenantHeaderValue(req *Request) string {
	name, class := c.tenant, c.class
	if req != nil && req.Tenant != "" {
		name, class = req.Tenant, req.Class
	}
	if name == "" {
		return ""
	}
	if class == "" {
		return name
	}
	return name + ";class=" + class
}

// Do posts one solve request and decodes the reply. Non-2xx statuses
// return a nil response and an *APIError; transport failures return the
// underlying error. Do never mutates req (the JSON wire packs B into
// b_b64 on a copy) and never retries — use Solve for the retry policy.
func (c *Client) Do(ctx context.Context, req *Request) (*Response, error) {
	if c.wire == WireBinary {
		return c.doFrame(ctx, req)
	}
	return c.doJSON(ctx, req)
}

// Solve is Do plus the client's retry policy: overload replies
// (429/503) and transport errors are retried up to WithRetry's budget,
// honoring the server's Retry-After hint when it gave one. With no
// WithRetry option Solve is exactly Do.
func (c *Client) Solve(ctx context.Context, req *Request) (*Response, error) {
	resp, err := c.Do(ctx, req)
	for attempt := 0; attempt < c.retries && err != nil; attempt++ {
		var ae *APIError
		delay := c.backoff << attempt
		if errors.As(err, &ae) {
			if !ae.Overloaded() {
				return nil, err // 4xx/5xx that retrying cannot fix
			}
			if ae.RetryAfter > delay {
				delay = ae.RetryAfter
			}
		}
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		resp, err = c.Do(ctx, req)
	}
	return resp, err
}

func (c *Client) doJSON(ctx context.Context, req *Request) (*Response, error) {
	// Work on a copy: packing B into b_b64 must not scribble on the
	// caller's request (they may resubmit it).
	r := *req
	if len(r.B) > 0 {
		packed := make([][]byte, len(r.B))
		for j, row := range r.B {
			packed[j] = server.PackFloats(row)
		}
		r.B64, r.B = packed, nil
	}
	body, err := json.Marshal(&r)
	if err != nil {
		return nil, err
	}
	resp, err := c.post(ctx, "/v1/trisolve", "application/json", c.tenantHeaderValue(req), body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, apiErrorFromJSON(resp)
	}
	buf := replyBufs.Get().(*bytes.Buffer)
	defer replyBufs.Put(buf)
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, fmt.Errorf("reading response: %w", err)
	}
	var sr Response
	if err := server.DecodeSolveResponse(buf.Bytes(), &sr); err != nil {
		return nil, fmt.Errorf("decoding response: %w", err)
	}
	return &sr, nil
}

// replyBufs recycles JSON reply buffers: a decoded Response owns its
// memory, so the raw reply is dead once decoded.
var replyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// doFrame posts the request as a DCWF frame. Errors raised before the
// server's frame handler takes over (admission 429, drain 503) arrive
// as JSON bodies; the response Content-Type says which decoder applies.
// The tenant rides twice on purpose: the header drives admission (read
// before the body) and the frame's tenant section attributes the solve
// after decode.
func (c *Client) doFrame(ctx context.Context, req *Request) (*Response, error) {
	r := *req
	if r.Tenant == "" && c.tenant != "" {
		r.Tenant, r.Class = c.tenant, c.class
	}
	body, err := server.EncodeRequestFrame(&r)
	if err != nil {
		return nil, err
	}
	resp, err := c.post(ctx, "/v1/trisolve", server.FrameContentType, c.tenantHeaderValue(req), body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if !strings.HasPrefix(resp.Header.Get("Content-Type"), server.FrameContentType) {
		return nil, apiErrorFromJSON(resp)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	wr, err := server.DecodeResponseFrame(raw)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &APIError{
			Status:     resp.StatusCode,
			Msg:        wr.ErrMsg,
			TraceID:    wr.TraceID,
			RetryAfter: parseRetryAfter(resp.Header),
		}
	}
	return &Response{
		X: wr.X, Fp: wr.Fp, Fused: wr.Fused, Width: wr.Width,
		Strategy: wr.Strategy, Executed: wr.Executed, TraceID: wr.TraceID,
	}, nil
}

// post issues one POST with the wire headers set. The caller owns the
// response body.
func (c *Client) post(ctx context.Context, path, contentType, tenant string, body []byte) (*http.Response, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", contentType)
	if tenant != "" {
		hreq.Header.Set(server.TenantHeader, tenant)
	}
	return c.httpc.Do(hreq)
}

// Post is the raw escape hatch for callers that relay bodies verbatim
// (the router's forward leg): one POST to path with the given
// Content-Type and optional pre-rendered tenant header value, returning
// the raw *http.Response. The caller owns the body.
func (c *Client) Post(ctx context.Context, path, contentType, tenant string, body []byte) (*http.Response, error) {
	return c.post(ctx, path, contentType, tenant, body)
}

// Stats fetches the server's /v1/stats snapshot.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	var st Stats
	err := c.GetJSON(ctx, "/v1/stats", &st)
	return st, err
}

// Healthy probes /healthz: true only for a 200 (a draining server
// answers 503 and counts as unhealthy).
func (c *Client) Healthy(ctx context.Context) bool {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := c.httpc.Do(hreq)
	if err != nil {
		return false
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// GetJSON fetches path and decodes the JSON reply into out. Non-2xx
// replies return an *APIError built from the server's error envelope.
func (c *Client) GetJSON(ctx context.Context, path string, out any) error {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.httpc.Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return apiErrorFromJSON(resp)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// PostJSON posts in as JSON to path and decodes the reply into out
// (out may be nil to discard it).
func (c *Client) PostJSON(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	resp, err := c.post(ctx, path, "application/json", "", body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return apiErrorFromJSON(resp)
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// apiErrorFromJSON drains a non-2xx response into an *APIError using
// the server's JSON error envelope {"error": ..., "trace_id": ...}. An
// undecodable body still yields a status-only APIError.
func apiErrorFromJSON(resp *http.Response) *APIError {
	var e struct {
		Error   string `json:"error"`
		TraceID string `json:"trace_id"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&e)
	_, _ = io.Copy(io.Discard, resp.Body)
	return &APIError{
		Status:     resp.StatusCode,
		Msg:        e.Error,
		TraceID:    e.TraceID,
		RetryAfter: parseRetryAfter(resp.Header),
	}
}

// parseRetryAfter reads the delay-seconds form of Retry-After (the only
// form the server emits).
func parseRetryAfter(h http.Header) time.Duration {
	raw := h.Get("Retry-After")
	if raw == "" {
		return 0
	}
	secs, err := strconv.Atoi(raw)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}
