package server

import (
	"encoding/binary"
	"strings"
	"testing"

	"doconsider/internal/arena"
	"doconsider/internal/executor"
	"doconsider/internal/sparse"
)

// testArena hands out one arena from a private pool and releases it
// with the test.
func testArena(t testing.TB) *arena.Arena {
	t.Helper()
	p := arena.NewPool(arena.Config{RegionBytes: 1 << 22, SlabBytes: 1 << 18, MinBlock: 1 << 12})
	a := p.Get()
	t.Cleanup(a.Release)
	return a
}

func lowerTrue() *bool { b := true; return &b }

// TestFrameRoundTripInline encodes every request field the inline form
// carries and checks the decode reproduces them exactly.
func TestFrameRoundTripInline(t *testing.T) {
	req := &SolveRequest{
		N:      3,
		RowPtr: []int32{0, 1, 3, 5},
		ColIdx: []int32{0, 0, 1, 1, 2},
		Val:    []float64{2, -1, 3, -0.5, 4},
		Lower:  lowerTrue(),
		B:      [][]float64{{1, 2, 3}, {4, 5, 6}},
	}
	buf, err := EncodeRequestFrame(req)
	if err != nil {
		t.Fatal(err)
	}
	a := testArena(t)
	var q wireRequest
	if err := parseRequestFrame(buf, a, &q, nil); err != nil {
		t.Fatal(err)
	}
	if !q.lower || q.n != 3 || len(q.rhs) != 2 || q.hasFp || q.hasBaseFp || q.timeoutMs != 0 {
		t.Fatalf("decoded header fields wrong: %+v", q)
	}
	for i, v := range req.RowPtr {
		if q.rowPtr[i] != v {
			t.Fatalf("rowptr[%d] = %d, want %d", i, q.rowPtr[i], v)
		}
	}
	for i, v := range req.ColIdx {
		if q.colIdx[i] != v {
			t.Fatalf("colidx[%d] = %d, want %d", i, q.colIdx[i], v)
		}
	}
	for i, v := range req.Val {
		if q.val[i] != v {
			t.Fatalf("val[%d] = %v, want %v", i, q.val[i], v)
		}
	}
	for j := 0; j < 2; j++ {
		for i := 0; i < 3; i++ {
			if q.rhs[j][i] != req.B[j][i] {
				t.Fatalf("rhs[%d][%d] = %v, want %v", j, i, q.rhs[j][i], req.B[j][i])
			}
		}
	}
}

// TestFrameRoundTripForms covers the fingerprint, drift and timeout
// forms.
func TestFrameRoundTripForms(t *testing.T) {
	a := testArena(t)
	var q wireRequest

	upper := false
	buf, err := EncodeRequestFrame(&SolveRequest{
		Fp: "00deadbeef001234", Lower: &upper,
		B: [][]float64{{1, 2}}, TimeoutMs: 1500,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := parseRequestFrame(buf, a, &q, nil); err != nil {
		t.Fatal(err)
	}
	if q.lower || !q.hasFp || q.fp != 0x00deadbeef001234 || q.timeoutMs != 1500 || len(q.rhs) != 1 {
		t.Fatalf("fp form decoded wrong: %+v", q)
	}

	buf, err = EncodeRequestFrame(&SolveRequest{
		BaseFp: "0000000000000042",
		Edits: []sparse.RowEdit{
			{Row: 2, Insert: []sparse.EditEntry{{Col: 0, Val: -1.5}, {Col: 1, Val: 2.5}}, Delete: []int32{7}},
			{Row: 5, Delete: []int32{3, 4}},
		},
		B: [][]float64{{1, 2, 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := parseRequestFrame(buf, a, &q, nil); err != nil {
		t.Fatal(err)
	}
	if !q.hasBaseFp || q.baseFp != 0x42 || len(q.edits) != 2 {
		t.Fatalf("drift form decoded wrong: %+v", q)
	}
	e := q.edits[0]
	if e.Row != 2 || len(e.Insert) != 2 || len(e.Delete) != 1 ||
		e.Insert[0] != (sparse.EditEntry{Col: 0, Val: -1.5}) ||
		e.Insert[1] != (sparse.EditEntry{Col: 1, Val: 2.5}) || e.Delete[0] != 7 {
		t.Fatalf("edit record 0 decoded wrong: %+v", e)
	}
	if e := q.edits[1]; e.Row != 5 || len(e.Insert) != 0 || len(e.Delete) != 2 {
		t.Fatalf("edit record 1 decoded wrong: %+v", e)
	}
}

// TestFrameZeroCopy pins the tentpole property: on a little-endian
// host the decoded numeric sections are views into the frame buffer,
// not copies.
func TestFrameZeroCopy(t *testing.T) {
	if !arena.HostLittleEndian() {
		t.Skip("zero-copy views need a little-endian host")
	}
	buf, err := EncodeRequestFrame(&SolveRequest{
		N: 2, RowPtr: []int32{0, 1, 2}, ColIdx: []int32{0, 1}, Val: []float64{1, 1},
		B: [][]float64{{3, 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	a := testArena(t)
	var q wireRequest
	if err := parseRequestFrame(buf, a, &q, nil); err != nil {
		t.Fatal(err)
	}
	// Writing through the decoded view must edit the frame bytes.
	q.val[0] = 42
	reparsed := wireRequest{}
	if err := parseRequestFrame(buf, a, &reparsed, nil); err != nil {
		t.Fatal(err)
	}
	if reparsed.val[0] != 42 {
		t.Fatal("decoded val slice is a copy, want a view into the frame")
	}
}

// corrupt returns a copy of frame with edit applied.
func corrupt(frame []byte, edit func(b []byte)) []byte {
	b := append([]byte(nil), frame...)
	edit(b)
	return b
}

// TestFrameDecodeErrors drives the decoder through the malformed-frame
// space: every case must produce a clean error, never a panic or
// over-read.
func TestFrameDecodeErrors(t *testing.T) {
	good, err := EncodeRequestFrame(&SolveRequest{
		N: 2, RowPtr: []int32{0, 1, 2}, ColIdx: []int32{0, 1}, Val: []float64{1, 1},
		B: [][]float64{{3, 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	bad := map[string][]byte{
		"empty":     {},
		"short":     good[:frameHeaderLen-1],
		"magic":     corrupt(good, func(b []byte) { b[0] = 'X' }),
		"version":   corrupt(good, func(b []byte) { b[4] = 99 }),
		"badTotal":  corrupt(good, func(b []byte) { binary.LittleEndian.PutUint64(b[8:16], uint64(len(good))+8) }),
		"truncated": good[:len(good)-8], // declared total no longer matches
		"manySections": corrupt(good, func(b []byte) {
			binary.LittleEndian.PutUint16(b[6:8], maxFrameSections+1)
		}),
		"tableOverrun": corrupt(good, func(b []byte) {
			binary.LittleEndian.PutUint16(b[6:8], uint16((len(good)-frameHeaderLen)/frameSectionLen+1))
		}),
		"misalignedOffset": corrupt(good, func(b []byte) {
			// Knock the rowptr payload offset off 8-alignment.
			binary.LittleEndian.PutUint32(b[frameHeaderLen+frameSectionLen+8:], 4)
		}),
		"payloadOverrun": corrupt(good, func(b []byte) {
			binary.LittleEndian.PutUint32(b[frameHeaderLen+12:], uint32(len(good)))
		}),
		"duplicateSection": corrupt(good, func(b []byte) {
			// Rewrite section 1 (rowptr) to repeat section 0's type (dim).
			binary.LittleEndian.PutUint16(b[frameHeaderLen+frameSectionLen:], secDim)
		}),
		"unknownSection": corrupt(good, func(b []byte) {
			binary.LittleEndian.PutUint16(b[frameHeaderLen:], 31)
		}),
		"unknownSectionHigh": corrupt(good, func(b []byte) {
			binary.LittleEndian.PutUint16(b[frameHeaderLen:], 4097)
		}),
		"rowptrLength": corrupt(good, func(b []byte) {
			// rowptr is section 1: shrink its declared count below its length.
			binary.LittleEndian.PutUint32(b[frameHeaderLen+frameSectionLen+4:], 1)
		}),
		"zeroDim": corrupt(good, func(b []byte) {
			binary.LittleEndian.PutUint32(b[frameHeaderLen+4:], 0)
		}),
	}
	a := testArena(t)
	for name, frame := range bad {
		var q wireRequest
		if err := parseRequestFrame(frame, a, &q, nil); err == nil {
			t.Errorf("%s: malformed frame accepted", name)
		}
	}
}

// TestFrameEditsDecodeErrors exercises truncation inside the edit
// record stream specifically.
func TestFrameEditsDecodeErrors(t *testing.T) {
	frame, err := EncodeRequestFrame(&SolveRequest{
		BaseFp: "01",
		Edits:  []sparse.RowEdit{{Row: 0, Insert: []sparse.EditEntry{{Col: 0, Val: 1}}}},
		B:      [][]float64{{1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	a := testArena(t)
	// Inflate the record's declared insert count past the payload.
	for _, count := range []uint32{2, 1 << 30} {
		bad := append([]byte(nil), frame...)
		// Locate the edits section payload via a fresh parse of the table.
		_, sects, err := parseSections(bad, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range sects {
			if s.typ == secEdits {
				binary.LittleEndian.PutUint32(bad[s.off+4:], count)
			}
		}
		var q wireRequest
		if err := parseRequestFrame(bad, a, &q, nil); err == nil {
			t.Errorf("insert count %d: truncated edit record accepted", count)
		}
	}
}

// TestResponseFrameRoundTrip writes a response through the arena path
// and decodes it with the client decoder.
func TestResponseFrameRoundTrip(t *testing.T) {
	a := testArena(t)
	const k, n = 2, 3
	st := &reqState{arena: a}
	xs := beginFrame(st, k, n)
	if len(xs) != k {
		t.Fatalf("got %d solution rows, want %d", len(xs), k)
	}
	for j := range xs {
		for i := range xs[j] {
			xs[j][i] = float64(10*j + i)
		}
	}
	st.xs, st.tr.ID = xs, 0xabc123
	out, _ := finishFrame(st, 0xfeed, SolveInfo{
		Fused: 2, Width: 5, Strategy: "pooled",
		Metrics: executor.Metrics{Executed: 123},
	})
	resp, err := DecodeResponseFrame(out)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Fp != "000000000000feed" || resp.Fused != 2 || resp.Width != 5 ||
		resp.Strategy != "pooled" || resp.Executed != 123 || resp.Status != 0 ||
		resp.TraceID != "0000000000abc123" {
		t.Fatalf("decoded response wrong: %+v", resp)
	}
	for j := 0; j < k; j++ {
		for i := 0; i < n; i++ {
			if resp.X[j][i] != float64(10*j+i) {
				t.Fatalf("x[%d][%d] = %v", j, i, resp.X[j][i])
			}
		}
	}

	// A zero fingerprint (collision path) must come back empty, and an
	// oversized strategy name must be truncated, not overrun its reserve.
	xs = beginFrame(st, 1, 1)
	xs[0][0] = 1
	st.xs, st.tr.ID = xs, 0
	out, _ = finishFrame(st, 0, SolveInfo{Strategy: strings.Repeat("s", 99)})
	resp, err = DecodeResponseFrame(out)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Fp != "" || len(resp.Strategy) != strategyReserve || resp.TraceID != "" {
		t.Fatalf("collision/truncation response wrong: %+v", resp)
	}
}

// TestErrorFrameRoundTrip checks the error envelope.
func TestErrorFrameRoundTrip(t *testing.T) {
	resp, err := DecodeResponseFrame(encodeErrorFrame(404, "no such factor", 0))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 404 || resp.ErrMsg != "no such factor" {
		t.Fatalf("error frame decoded wrong: %+v", resp)
	}
}

// FuzzFrameDecode throws arbitrary bytes at both decoders. The only
// acceptable outcomes are a clean decode or a clean error — any panic
// or out-of-range read (the race/asan builds catch the latter) fails.
func FuzzFrameDecode(f *testing.F) {
	inline, _ := EncodeRequestFrame(&SolveRequest{
		N: 2, RowPtr: []int32{0, 1, 2}, ColIdx: []int32{0, 1}, Val: []float64{1, 1},
		B: [][]float64{{3, 4}}, TimeoutMs: 50,
	})
	fp, _ := EncodeRequestFrame(&SolveRequest{Fp: "beef", B: [][]float64{{1, 2}}})
	drift, _ := EncodeRequestFrame(&SolveRequest{
		BaseFp: "beef",
		Edits:  []sparse.RowEdit{{Row: 1, Insert: []sparse.EditEntry{{Col: 0, Val: 2}}, Delete: []int32{1}}},
		B:      [][]float64{{1, 2}},
	})
	f.Add(inline)
	f.Add(fp)
	f.Add(drift)
	f.Add(encodeErrorFrame(400, "bad", 7))
	f.Add([]byte(frameMagic))
	f.Add(inline[:frameHeaderLen])

	pool := arena.NewPool(arena.Config{RegionBytes: 1 << 22, SlabBytes: 1 << 18, MinBlock: 1 << 12})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		a := pool.Get()
		defer a.Release()
		var q wireRequest
		if err := parseRequestFrame(data, a, &q, nil); err == nil {
			// A frame that decodes must be internally consistent enough to
			// index: touch every decoded slice end to end.
			for _, v := range q.rowPtr {
				_ = v
			}
			for _, v := range q.colIdx {
				_ = v
			}
			for _, v := range q.val {
				_ = v
			}
			for _, row := range q.rhs {
				for _, v := range row {
					_ = v
				}
			}
		}
		_, _ = DecodeResponseFrame(data)
	})
}
