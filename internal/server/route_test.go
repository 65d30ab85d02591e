package server

import (
	"encoding/json"
	"fmt"
	"testing"

	"doconsider/internal/arena"
	"doconsider/internal/sparse"
)

// FuzzRouteKey throws arbitrary bodies at the front door's parser on
// both wires. RouteKey must never panic, and it must agree with the
// replica: on a body the server's own decoder accepts and that names
// exactly one factor form, RouteKey returns that form's kind and the
// key the replica resolves — the fp or base_fp the body carries, or
// the content fingerprint of the inline matrix. An inline matrix the
// replica would refuse owes no key, but any key RouteKey gives for it
// is still its content fingerprint.
func FuzzRouteKey(f *testing.F) {
	l := testFactor(3)
	lower := true
	fp := fmt.Sprintf("%016x", l.ContentFingerprint())
	for _, req := range []*SolveRequest{
		{N: l.N, RowPtr: l.RowPtr, ColIdx: l.ColIdx, Val: l.Val, Lower: &lower, B: [][]float64{randVec(l.N, 1)}},
		{Fp: fp, Lower: &lower, B: [][]float64{randVec(l.N, 2)}},
		{BaseFp: fp, Lower: &lower, B: [][]float64{randVec(l.N, 3)},
			Edits: []sparse.RowEdit{{Row: int32(l.N - 1), Insert: []sparse.EditEntry{{Col: 0, Val: -0.25}}}}},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body, false)
		frame, err := EncodeRequestFrame(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame, true)
	}

	pool := arena.NewPool(arena.Config{RegionBytes: 1 << 22, SlabBytes: 1 << 18, MinBlock: 1 << 12})
	f.Fuzz(func(t *testing.T, body []byte, binaryWire bool) {
		if len(body) > 1<<20 {
			return
		}
		key, kind, keyErr := RouteKey(body, binaryWire)

		st := &reqState{arena: pool.Get()}
		defer st.arena.Release()
		decode := decodeJSON
		if binaryWire {
			decode = decodeFrame
		}
		if decode(body, st) != nil {
			return
		}
		q := &st.req
		inline := q.n != 0 || q.rowPtr != nil || q.colIdx != nil || q.val != nil
		forms := 0
		for _, has := range [...]bool{q.hasFp, q.hasBaseFp, inline} {
			if has {
				forms++
			}
		}
		if forms != 1 {
			return
		}
		switch {
		case q.hasFp:
			if keyErr != nil || kind != RouteFp || key != q.fp {
				t.Fatalf("fp request: RouteKey = %x, %v, %v; want %x, fp", key, kind, keyErr, q.fp)
			}
		case q.hasBaseFp:
			if keyErr != nil || kind != RouteDrift || key != q.baseFp {
				t.Fatalf("drift request: RouteKey = %x, %v, %v; want %x, drift", key, kind, keyErr, q.baseFp)
			}
		default:
			m := sparse.View(q.n, q.rowPtr, q.colIdx, q.val)
			if keyErr == nil && (kind != RouteInline || key != m.ContentFingerprint()) {
				t.Fatalf("inline request: RouteKey = %x, %v; want %x, inline", key, kind, m.ContentFingerprint())
			}
			if keyErr != nil && validateFactor(m, q.lower) == nil {
				t.Fatalf("inline request the replica accepts: RouteKey failed: %v", keyErr)
			}
		}
	})
}
