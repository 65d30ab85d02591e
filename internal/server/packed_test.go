package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"doconsider/internal/arena"
	"doconsider/internal/executor"
)

// FuzzPackedJSON is the differential oracle of the packed decode: for
// arbitrary bytes, the request decode (rows into arena memory, as the
// JSON codec runs it) and DecodeSolveResponse must each agree with
// json.Unmarshal into SolveRequest and SolveResponse — the same error,
// or on success the same value in every field, b_b64 and x_b64 rows
// byte for byte.
func FuzzPackedJSON(f *testing.F) {
	for _, seed := range []string{
		`{"fp":"00000000deadbeef","lower":true,"b_b64":["AAAAAAAA8D8=","AAAAAAAAAEA="],"timeout_ms":5}`,
		`{"b_b64":["AAAAAAAA8D8="],"b_b64":["AAAAAAAAAEA="]}`,
		`{"B_B64":["AAAAAAAAAEA="],"b_b64":["AAAAAAAA8D8="]}`,
		`{"b_b64":["AAAAAAAA8D8="],"B_B64":["AAAAAAAAAEA="]}`,
		`{"b_b64":["AAAAAAAA8D8="],"B_B64":null}`,
		`{"b\u005fb64":["AAAAAAAAAEA="],"b_b64":["AAAAAAAA8D8="]}`,
		`{"b_b64":["AAAAAAAA8D8="],"b\u005fb64":["AAAAAAAAAEA="]}`,
		`{"b_b64":["AAAAAAAA8D8="],"b\u005fb64":null}`,
		`{"b_b64":null}`,
		`{"b_b64":[]}`,
		`{"b_b64":[""]}`,
		"{\"b_b64\":[\"AAAA\nAAAA8D8=\"]}",
		`{"b_b64":["AAAAAAAA\/D8="]}`,
		" \t{\r\n\"fp\" : \"8b\" ,\n\"b_b64\" :\t[ \"AAAAAAAA8D8=\" , \"AAAAAAAAAEA=\" ]\r, \"edits\" : [ { \"row\" : 0 } ] } \n",
		`{"b_b64":["AAAAAAAA8D8="]} x`,
		`{"b_b64":["AAAAAAAA8D8="]}{}`,
		`["AAAAAAAA8D8="]`,
		`"b_b64"`,
		`{"b_b64":["AAAAAAAA8D8"]}`,
		`{"b_b64":["AAAAAAA!8D8="]}`,
		`{"b_b64":["AAAAAAAA8D8=",null]}`,
		`{"n":"x","b_b64":["AAAAAAAA8D8="]}`,
		`{"val":[1,{"b_b64":[2]}],"b_b64":["AAAAAAAA8D8="],"rowptr":[0,1]}`,
	} {
		// Rows long enough that the array is most of the body, as on the
		// wire; shorter bodies go to json.Unmarshal whole.
		seed = strings.ReplaceAll(seed, `"AAAA`, `"`+strings.Repeat("AAAA", 64)+"AAAA")
		f.Add([]byte(seed))
		// The same shapes as responses.
		r := strings.NewReplacer("b_b64", "x_b64", "B_B64", "X_B64", `b\u005fb64`, `x\u005fb64`)
		f.Add([]byte(r.Replace(seed)))
	}
	f.Add([]byte(`{"x_b64":["` + strings.Repeat("AAAA", 64) + `AAAAAAAA8D8="],"fp":"00000000deadbeef","fused":1,"width":1,"strategy":"sequential","executed":3,"trace_id":"0000000000000001"}`))
	pool := arena.NewPool(arena.Config{RegionBytes: 1 << 22, SlabBytes: 1 << 18, MinBlock: 1 << 12})

	f.Fuzz(func(t *testing.T, data []byte) {
		var wantReq, gotReq SolveRequest
		wantErr := json.Unmarshal(data, &wantReq)
		a := pool.Get()
		defer a.Release()
		_, gotErr := unmarshalPacked(data, "b_b64", &gotReq, &gotReq.B64, nil, a.Bytes)
		samePacked(t, "request", wantErr, gotErr, wantReq, gotReq)

		var wantResp, gotResp SolveResponse
		wantErr = json.Unmarshal(data, &wantResp)
		gotErr = DecodeSolveResponse(data, &gotResp)
		samePacked(t, "response", wantErr, gotErr, wantResp, gotResp)
	})
}

// TestSplitPacked pins which bodies the walker splits and which it
// leaves to encoding/json whole.
func TestSplitPacked(t *testing.T) {
	for _, tc := range []struct {
		body string
		rows []string
	}{
		{`{"fp":"8b","b_b64":["AAAA","BBBB"],"n":1}`, []string{"AAAA", "BBBB"}},
		{" {\"e\":[{\"b_b64\":1},\"]\\\"\"], \"b_b64\" : [ \"\" ] } x", []string{""}},
		{`{"b_b64":[]}`, nil},
		{`{"b_b64":["AAAA",]}`, nil},
		{`{"b_b64":["AAAA" "BBBB"]}`, nil},
		{`{"b_b64":["AAAA"`, nil},
		{`{"fp":"8b"}`, nil},
		{`{"b_b64":null}`, nil},
		{`{"b_b64":["AA\/A"]}`, nil},
		{"{\"b_b64\":[\"AA\nAA\"]}", nil},
		{`{"b_b64":["AAAA"],"b_b64":[]}`, nil},
		{`{"B_b64":1,"b_b64":["AAAA"]}`, nil},
		{`{"b_b64":["AAAA"],"b\u005fb64":1}`, nil},
		{`["AAAA"]`, nil},
	} {
		rows, start, end, ok := splitPacked([]byte(tc.body), "b_b64", nil)
		if ok != (tc.rows != nil) {
			t.Errorf("%s: ok = %v", tc.body, ok)
			continue
		}
		if !ok {
			continue
		}
		if got := tc.body[start:end]; !strings.HasPrefix(got, "[") || !strings.HasSuffix(got, "]") {
			t.Errorf("%s: span %q is not the array", tc.body, got)
		}
		if len(rows) != len(tc.rows) {
			t.Errorf("%s: rows %q, want %q", tc.body, rows, tc.rows)
			continue
		}
		for j := range rows {
			if string(rows[j]) != tc.rows[j] {
				t.Errorf("%s: rows %q, want %q", tc.body, rows, tc.rows)
			}
		}
	}
}

// TestPackedInlineFallsBack: a body that is mostly not the array (an
// inline matrix with its right-hand side) goes to json.Unmarshal whole
// and takes no memory for a copy of the rest.
func TestPackedInlineFallsBack(t *testing.T) {
	body := []byte(`{"n":2,"rowptr":[0,1,3],"colidx":[0,0,1],"val":[1,2,3],"b_b64":["AAAAAAAA8D8="]}`)
	var req SolveRequest
	mem := func(int) []byte { t.Fatal("the walker split an inline body"); return nil }
	if _, err := unmarshalPacked(body, "b_b64", &req, &req.B64, nil, mem); err != nil || req.N != 2 || len(req.B64) != 1 {
		t.Fatalf("err %v, decoded %+v", err, req)
	}
}

func samePacked[T any](t *testing.T, what string, wantErr, gotErr error, want, got T) {
	t.Helper()
	if fmt.Sprint(wantErr) != fmt.Sprint(gotErr) {
		t.Fatalf("%s: error %v, json.Unmarshal's %v", what, gotErr, wantErr)
	}
	if wantErr == nil && !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: decoded %+v, json.Unmarshal decoded %+v", what, got, want)
	}
}

// TestPackedResponseBytes: the JSON codec's x_b64 response, base64
// written around the marshalled small members, is byte for byte
// json.Marshal of the response.
func TestPackedResponseBytes(t *testing.T) {
	pool := arena.NewPool(arena.Config{})
	for _, tc := range []struct {
		k, n      int
		fp        uint64
		nonFinite bool
	}{
		{1, 5, 0x8b, false}, {2, 7, 0, false}, {3, 1, 0xdeadbeef, true}, {4, 16, 0, true},
		{1, 0, 0x8b, false}, {2, 0, 0, false},
	} {
		st := &reqState{arena: pool.Get()}
		st.req.packed = true
		st.tr.ID = 0x1234
		st.xs = beginJSON(st, tc.k, tc.n)
		for j, x := range st.xs {
			copy(x, randVec(tc.n, int64(j)))
			if tc.nonFinite && tc.n > 0 {
				x[0], x[tc.n-1] = math.Inf(-1), math.NaN()
			}
		}
		info := SolveInfo{Fused: 1, Width: tc.k, Strategy: "pooled", Metrics: executor.Metrics{Executed: 42}}
		want := SolveResponse{Fused: 1, Width: tc.k, Strategy: "pooled", Executed: 42, TraceID: "0000000000001234"}
		if tc.fp != 0 {
			want.Fp = fmt.Sprintf("%016x", tc.fp)
		}
		for _, x := range st.xs {
			want.X64 = append(want.X64, PackFloats(x))
		}
		wantBody, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		got, status := finishJSON(st, tc.fp, info)
		if status != 200 || !bytes.Equal(got, wantBody) {
			t.Errorf("k=%d n=%d fp=%x: status %d\n got %s\nwant %s", tc.k, tc.n, tc.fp, status, got, wantBody)
		}
		st.arena.Release()
	}
}
