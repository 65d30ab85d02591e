package server

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"
)

// BenchmarkJSONRequest measures the packed JSON wire through the HTTP
// handler. fp-warm is BenchmarkBinaryRequest/fp-warm's request on the
// JSON wire: a by-fingerprint b_b64 resubmission of a warm factor. CI
// pins its allocs/op: the packed rows live in the request arena, so what
// it counts is net/http and encoding/json's small members.
func BenchmarkJSONRequest(b *testing.B) {
	b.Run("fp-warm", func(b *testing.B) {
		s, frame := warmBinaryServer(b, 16)
		wr, err := DecodeResponseFrame(mustSolveOnce(b, s, frame))
		if err != nil {
			b.Fatal(err)
		}
		lower := true
		body, err := json.Marshal(SolveRequest{Fp: wr.Fp, Lower: &lower,
			B64: [][]byte{PackFloats(randVec(16*16, 2))}})
		if err != nil {
			b.Fatal(err)
		}
		h := s.Handler()
		serve := func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/trisolve", bytes.NewReader(body)))
			if rec.Code != 200 {
				b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
			}
		}
		serve() // fills the request pools
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serve()
		}
	})
}

// BenchmarkServerTrisolveRequest measures the full request path — JSON
// decode, validation, plan-cache lookup, executor pass, JSON encode
// — on a 16x16 mesh factor. CI gates its allocs/op: a regression here
// means per-request garbage crept into the serving hot path.
func BenchmarkServerTrisolveRequest(b *testing.B) {
	s, err := New(Config{Procs: 2})
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
