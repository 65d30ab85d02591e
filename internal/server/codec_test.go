package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"testing"
	"time"

	"doconsider/internal/sparse"
)

// edgeState is the request state the HTTP edge hands solve for a request
// on c from the default tenant.
func edgeState(s *Server, c *codec) *reqState {
	return s.getReqState(c, s.tenants.def, ClassBatch, time.Now())
}

// solveVia runs one request body through the pipeline under c, below
// the HTTP edge, and returns a copy of the response body and its status.
func solveVia(s *Server, c *codec, body []byte) ([]byte, int) {
	st := edgeState(s, c)
	defer s.putReqState(st)
	out, status := s.solve(context.Background(), body, nil, st)
	return append([]byte(nil), out...), status
}

// TestJSONNonFiniteSolution: a solution value JSON numbers cannot carry
// is an honest 500 on the x encoding, not a 200 with an empty body; the
// packed encoding carries the same value bit for bit.
func TestJSONNonFiniteSolution(t *testing.T) {
	s, err := New(Config{Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer assertDrained(t, s)()
	lower := true
	// 1e-300 * x = 1e300 overflows to +Inf.
	req := SolveRequest{N: 1, RowPtr: []int32{0, 1}, ColIdx: []int32{0}, Val: []float64{1e-300},
		Lower: &lower, B: [][]float64{{1e300}}}
	out, status := solveVia(s, jsonCodec, mustJSON(t, req))
	var e errorResponse
	if err := json.Unmarshal(out, &e); err != nil || status != http.StatusInternalServerError || e.Error == "" || len(e.TraceID) != 16 {
		t.Fatalf("x encoding: status %d body %q, want a 500 error envelope with a trace id", status, out)
	}
	req.B, req.B64 = nil, [][]byte{PackFloats([]float64{1e300})}
	out, status = solveVia(s, jsonCodec, mustJSON(t, req))
	var sr SolveResponse
	if err := json.Unmarshal(out, &sr); err != nil || status != http.StatusOK {
		t.Fatalf("x_b64 encoding: status %d, err %v", status, err)
	}
	if xs, err := sr.Solutions(); err != nil || !math.IsInf(xs[0][0], 1) {
		t.Fatalf("x_b64 solution = %v, %v, want +Inf", xs, err)
	}
}

// FuzzJSONDecode throws arbitrary bytes at the JSON codec through the
// whole pipeline: any input must come back as a clean status, never a
// panic. When the body is a decodable request it is re-encoded as a
// DCWF frame, and the two wires must then agree on the status and — on
// success — on the fingerprint and every solution bit.
func FuzzJSONDecode(f *testing.F) {
	s, err := New(Config{Procs: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(assertDrained(f, s))
	l := testFactor(3)
	lower := true
	inline := SolveRequest{N: l.N, RowPtr: l.RowPtr, ColIdx: l.ColIdx, Val: l.Val, Lower: &lower,
		B: [][]float64{randVec(l.N, 1)}, TimeoutMs: 30_000}
	mustSeed := func(req SolveRequest) {
		data, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// Register the seed factor so the by-fingerprint and drift seeds reach
	// the solve, not just the 404.
	pin, fp := s.registerFactor(&residentFactor{l: l.Clone(), lower: true})
	pin.Release()
	hexFp := fmt.Sprintf("%016x", fp)
	mustSeed(inline)
	mustSeed(SolveRequest{Fp: hexFp, Lower: &lower, B64: [][]byte{PackFloats(randVec(l.N, 2))}})
	mustSeed(SolveRequest{BaseFp: hexFp, Lower: &lower, B: [][]float64{randVec(l.N, 3)},
		Edits: []sparse.RowEdit{{Row: int32(l.N - 1), Insert: []sparse.EditEntry{{Col: 0, Val: -0.25}}}}})
	mustSeed(SolveRequest{Fp: "00000000deadbeef", B: [][]float64{{1}}, TraceID: "beef"})
	f.Add([]byte("{nope"))
	f.Add([]byte(`{"n":1,"rowptr":[0,1],"colidx":[0],"val":[2],"b":[[4]],"b_b64":["AAAAAAAAAAA="]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		jOut, jStatus := solveVia(s, jsonCodec, data)
		var in SolveRequest
		if json.Unmarshal(data, &in) != nil {
			if jStatus != http.StatusBadRequest {
				t.Fatalf("undecodable body answered %d, want 400", jStatus)
			}
			return
		}
		// The frame encoder narrows n and the timeout to 32 bits and has
		// no b_b64; keep to requests both wires can say the same way, and
		// off deadlines short enough to race the solve.
		if in.N < 0 || in.N > math.MaxInt32 || in.TimeoutMs > math.MaxInt32 || in.TimeoutMs < math.MinInt32 ||
			(in.TimeoutMs > 0 && in.TimeoutMs < 10_000) || (len(in.B) > 0 && len(in.B64) > 0) {
			return
		}
		packed := len(in.B64) > 0
		for _, raw := range in.B64 {
			row, err := UnpackFloats(raw)
			if err != nil {
				return
			}
			in.B = append(in.B, row)
		}
		in.B64 = nil
		for _, row := range in.B {
			if len(row) == 0 {
				// A frame cannot carry zero-length vectors: its decoder
				// refuses the section before the pipeline would 404 or 400.
				return
			}
		}
		frame, err := EncodeRequestFrame(&in)
		if err != nil {
			return
		}
		fOut, fStatus := solveVia(s, frameCodec, frame)
		fr, err := DecodeResponseFrame(fOut)
		if err != nil {
			t.Fatalf("frame response does not decode: %v", err)
		}
		nonFinite := false
		for _, x := range fr.X {
			for _, v := range x {
				nonFinite = nonFinite || math.IsInf(v, 0) || math.IsNaN(v)
			}
		}
		if fStatus == http.StatusOK && nonFinite && !packed {
			// The x encoding has no form for these values.
			if jStatus != http.StatusInternalServerError {
				t.Fatalf("non-finite solution on the x encoding answered %d, want 500", jStatus)
			}
			return
		}
		if jStatus != fStatus {
			t.Fatalf("JSON answered %d, the same request as a frame %d (%s)", jStatus, fStatus, fr.ErrMsg)
		}
		if jStatus != http.StatusOK {
			return
		}
		var jr SolveResponse
		if err := json.Unmarshal(jOut, &jr); err != nil {
			t.Fatalf("JSON response does not decode: %v", err)
		}
		jx, err := jr.Solutions()
		if err != nil {
			t.Fatal(err)
		}
		checkSameSolutions(t, "fuzz", jx, fr.X)
		if jr.Fp != fr.Fp {
			t.Fatalf("JSON fp %q, binary fp %q", jr.Fp, fr.Fp)
		}
	})
}

// TestHexFingerprintSpellings pins the one text spelling of a
// fingerprint — 1 to 16 hex digits, nothing else — at every place a
// caller can hand one in: the JSON decoder, the client-side frame
// encoder and the router's RouteKey. A prefix, sign, space or trailing
// junk is malformed everywhere (a lenient scan once read "8BX0" as 0x8B
// on the encoder and router while the JSON server answered 400).
func TestHexFingerprintSpellings(t *testing.T) {
	s, err := New(Config{Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer assertDrained(t, s)()
	lower := true
	for _, tc := range []struct {
		fp string
		ok bool
	}{
		{"8b", true},
		{"00000000DEADBEEF", true},
		{"0x8b", false},
		{" 8b", false},
		{"8b ", false},
		{"+8b", false},
		{"8BX0", false},
		{"10000000000000000", false}, // 17 digits: past 64 bits
	} {
		for _, req := range []*SolveRequest{
			{Fp: tc.fp, Lower: &lower, B: [][]float64{{1}}},
			{BaseFp: tc.fp, Lower: &lower, B: [][]float64{{1}},
				Edits: []sparse.RowEdit{{Row: 0, Insert: []sparse.EditEntry{{Col: 0, Val: 1}}}}},
		} {
			body := mustJSON(t, req)
			// A well-spelled fingerprint names no resident factor here: 404.
			wantStatus := http.StatusBadRequest
			if tc.ok {
				wantStatus = http.StatusNotFound
			}
			if _, status := solveVia(s, jsonCodec, body); status != wantStatus {
				t.Errorf("fp %q: JSON solve answered %d, want %d", tc.fp, status, wantStatus)
			}
			if _, _, err := RouteKey(body, false); (err == nil) != tc.ok {
				t.Errorf("fp %q: RouteKey(json) err = %v, well-spelled=%v", tc.fp, err, tc.ok)
			}
			frame, err := EncodeRequestFrame(req)
			if (err == nil) != tc.ok {
				t.Errorf("fp %q: EncodeRequestFrame err = %v, well-spelled=%v", tc.fp, err, tc.ok)
			}
			if err != nil {
				continue
			}
			want, _ := parseHexFp(tc.fp)
			if key, _, err := RouteKey(frame, true); err != nil || key != want {
				t.Errorf("fp %q: RouteKey(frame) = %x, %v, want %x", tc.fp, key, err, want)
			}
		}
	}
}
