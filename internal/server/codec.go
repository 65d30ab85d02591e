package server

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"doconsider/internal/obs"
	"doconsider/internal/sparse"
)

// A codec is one wire format of POST /v1/trisolve. The solve pipeline
// (solve.go) is wire-neutral: a codec only decodes body bytes into the
// request value, places the solver's output rows in the request arena,
// and renders success and rejection bodies. Codecs are stateless: what
// one needs between begin and finish rides in the pooled reqState.
type codec struct {
	wire        obs.Wire
	contentType string
	// decode fills st.req from body. Slices in st.req may view body or
	// st.arena, so body must stay valid for the life of the request.
	decode func(body []byte, st *reqState) error
	// begin places k solution rows of length n and returns them; the
	// solver writes the response's solution bytes through these rows.
	begin func(st *reqState, k, n int) [][]float64
	// finish renders the response to a completed solve (frames, x_b64: in
	// arena memory, valid until putReqState) with its HTTP status.
	finish func(st *reqState, fp uint64, info SolveInfo) ([]byte, int)
	// reject renders an error body on the heap. tid 0 means the request
	// never got a trace ID.
	reject func(status int, msg string, tid uint64) []byte
}

var (
	jsonCodec = &codec{wire: obs.WireJSON, contentType: "application/json",
		decode: decodeJSON, begin: beginJSON, finish: finishJSON, reject: rejectJSON}
	frameCodec = &codec{wire: obs.WireBinary, contentType: FrameContentType,
		decode: decodeFrame, begin: beginFrame, finish: finishFrame, reject: encodeErrorFrame}
)

// codecFor picks the request's codec from its Content-Type: the binary
// media type (parameters after it tolerated) selects DCWF frames,
// anything else is JSON.
func codecFor(r *http.Request) *codec {
	rest, ok := strings.CutPrefix(r.Header.Get("Content-Type"), FrameContentType)
	if ok && (rest == "" || rest[0] == ';' || rest[0] == ' ') {
		return frameCodec
	}
	return jsonCodec
}

// writeBody emits a response body in the codec's content type.
func (c *codec) writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", c.contentType)
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// The DCWF codec: frame.go holds the format, beginFrame and finishFrame.

func decodeFrame(body []byte, st *reqState) error {
	return parseRequestFrame(body, st.arena, &st.req, st.sects)
}

// The JSON codec. encoding/json parses the small members (an inline body
// whole); around it the frame codec's discipline holds — b_b64 rows decode
// into arena memory viewed in place, and x_b64 encodes the solver's rows.

func decodeJSON(body []byte, st *reqState) error {
	var in SolveRequest
	var err error
	if st.rows, err = unmarshalPacked(body, "b_b64", &in, &in.B64, st.rows, st.arena.Bytes); err != nil {
		return err
	}
	q := &st.req
	*q = wireRequest{lower: in.Lower == nil || *in.Lower, n: in.N,
		rowPtr: in.RowPtr, colIdx: in.ColIdx, val: in.Val,
		edits: in.Edits, timeoutMs: in.TimeoutMs, rhs: in.B}
	if q.hasFp = in.Fp != ""; q.hasFp {
		if q.fp, err = parseHexFp(in.Fp); err != nil {
			return err
		}
	}
	if q.hasBaseFp = in.BaseFp != ""; q.hasBaseFp {
		if q.baseFp, err = parseHexFp(in.BaseFp); err != nil {
			return err
		}
	}
	if in.TraceID != "" {
		if q.traceID, err = parseHexFp(in.TraceID); err != nil || q.traceID == 0 {
			return fmt.Errorf("malformed trace_id %q", in.TraceID)
		}
	}
	if len(in.B64) > 0 {
		if len(in.B) > 0 {
			return errors.New("request carries both b and b_b64; send one")
		}
		q.packed = true
		q.rhs = st.arena.Rows(len(in.B64))
		for j, raw := range in.B64 {
			if len(raw)%8 != 0 {
				return fmt.Errorf("b_b64[%d]: packed float array has %d bytes, not a multiple of 8", j, len(raw))
			}
			q.rhs[j] = sectionFloat64s(raw, st.arena)
		}
	}
	return nil
}

func beginJSON(st *reqState, k, n int) [][]float64 {
	st.out = st.arena.Bytes(8 * k * n)
	return solutionRows(st.arena, st.out, k, n)
}

func finishJSON(st *reqState, fp uint64, info SolveInfo) ([]byte, int) {
	xs := st.xs
	resp := SolveResponse{
		Fused: info.Fused, Width: info.Width, Strategy: info.Strategy,
		Executed: info.Metrics.Executed,
		TraceID:  fmt.Sprintf("%016x", st.tr.ID),
	}
	if fp != 0 {
		resp.Fp = fmt.Sprintf("%016x", fp)
	}
	if st.req.packed {
		// x_b64 is the first member json.Marshal emits, and fp follows it:
		// this is json.Marshal of the whole response, byte for byte.
		rest, _ := json.Marshal(resp)
		k, n := len(xs), len(xs[0])
		flushSolutions(st.out, xs, n)
		out := st.arena.Bytes(len(rest) + k*(base64.StdEncoding.EncodedLen(8*n)+3) + 10)
		out = append(out[:0], `{"x_b64":[`...)
		for j := 0; j < k; j++ {
			out = append(base64.StdEncoding.AppendEncode(append(out, '"'), st.out[8*j*n:8*(j+1)*n]), `",`...)
		}
		return append(append(out[:len(out)-1], "],"...), rest[1:]...), http.StatusOK
	}
	resp.X = xs
	out, err := json.Marshal(resp)
	if err != nil {
		// A non-finite solution value has no JSON number form (x_b64 and
		// frames carry it bit for bit).
		const code = http.StatusInternalServerError
		return rejectJSON(code, "encoding response: "+err.Error(), st.tr.ID), code
	}
	return out, http.StatusOK
}

func rejectJSON(_ int, msg string, tid uint64) []byte {
	e := errorResponse{Error: msg}
	if tid != 0 {
		e.TraceID = fmt.Sprintf("%016x", tid)
	}
	body, _ := json.Marshal(e) // two strings: cannot fail
	return body
}

// wireRequest is a decoded /v1/trisolve request, whichever codec read
// it. The slices may view the request body or arena memory; they are
// valid for the lifetime of the request arena.
type wireRequest struct {
	lower  bool
	n      int
	rowPtr []int32
	colIdx []int32
	val    []float64
	// borrowed marks matrix slices that view request memory (frames):
	// the factor must be cloned before anything outlives the request.
	borrowed  bool
	rhs       [][]float64
	packed    bool // JSON: RHS arrived as b_b64, so solutions go back as x_b64
	fp        uint64
	hasFp     bool
	baseFp    uint64
	hasBaseFp bool
	edits     []sparse.RowEdit
	timeoutMs int
	traceID   uint64 // client-chosen trace ID; 0 = none
	tenant    []byte // frame tenant section (a view); empty when absent
	class     Class  // the tenant section's class
}
