package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"testing"

	"doconsider/internal/sparse"
	"doconsider/internal/synthetic"
	"doconsider/internal/trisolve"
)

// driftFactor builds a random lower factor large enough that plan repair
// beats rebuild in the planner's pricing.
func driftFactor(rng *rand.Rand, n int) *sparse.CSR {
	var ts []sparse.Triplet
	for i := 0; i < n; i++ {
		ts = append(ts, sparse.Triplet{Row: i, Col: i, Val: 2 + rng.Float64()})
		for j := 0; j < rng.Intn(4) && i > 0; j++ {
			ts = append(ts, sparse.Triplet{Row: i, Col: rng.Intn(i), Val: rng.NormFloat64()})
		}
	}
	return sparse.MustAssemble(n, n, ts)
}

// TestServerDriftRequest drives the base_fp+edits request form end to
// end: a full submission registers the base and a by-fp resubmission
// builds its plan (the structure's second sight); a drift request ships
// only the edit set and is answered before any repair is paid (its
// structure's first sight); the reply must match solving the drifted
// factor shipped whole; and the drifted factor's next solve is served by
// a repair of the base's plan, not a rebuild.
func TestServerDriftRequest(t *testing.T) {
	s, ts := newTestServer(t, Config{Procs: 2})
	rng := rand.New(rand.NewSource(23))
	base := driftFactor(rng, 400)

	bs := [][]float64{randVec(base.N, 5)}
	resp, sr := postSolve(t, ts.URL, solveBody(t, base, true, bs))
	if resp.StatusCode != http.StatusOK || sr.Fp == "" {
		t.Fatalf("base submission: status %d fp %q", resp.StatusCode, sr.Fp)
	}
	lower := true
	baseAgain, _ := json.Marshal(SolveRequest{Fp: sr.Fp, Lower: &lower, B: bs})
	if resp, _ := postSolve(t, ts.URL, baseAgain); resp.StatusCode != http.StatusOK {
		t.Fatalf("base resubmission: status %d", resp.StatusCode)
	}

	edits := synthetic.DriftLower(rng, base, nil, 8, 0.3)
	if len(edits) == 0 {
		t.Fatal("no drift edits generated")
	}
	req := SolveRequest{BaseFp: sr.Fp, Edits: edits, Lower: &lower, B: bs}
	body, _ := json.Marshal(req)
	resp2, sr2 := postSolve(t, ts.URL, body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("drift request: status %d", resp2.StatusCode)
	}
	if sr2.Fp == "" || sr2.Fp == sr.Fp {
		t.Fatalf("drift response fp %q (base %q): want a fresh registered fingerprint", sr2.Fp, sr.Fp)
	}
	if sr2.Strategy != "sequential" {
		t.Fatalf("drift request ran %q, want the uninspected sequential loop", sr2.Strategy)
	}
	if st := s.Stats(); st.Delta != (trisolve.DeltaStats{}) {
		t.Fatalf("delta stats after first drift request: %+v, want no repair yet", st.Delta)
	}

	// The drifted solution matches solving the edited factor directly.
	edited, err := base.ApplyRowEdits(edits)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := trisolve.NewPlan(edited, true, trisolve.WithProcs(2))
	if err != nil {
		t.Fatal(err)
	}
	defer plan.Close()
	want := make([]float64, edited.N)
	plan.Solve(want, bs[0])
	for i := range want {
		if sr2.X[0][i] != want[i] {
			t.Fatalf("x[%d] = %v, want %v (drift solve diverged)", i, sr2.X[0][i], want[i])
		}
	}

	// Resubmitting the drifted factor by its new fingerprint works.
	req3 := SolveRequest{Fp: sr2.Fp, Lower: &lower, B: bs}
	body3, _ := json.Marshal(req3)
	resp3, sr3 := postSolve(t, ts.URL, body3)
	if resp3.StatusCode != http.StatusOK || sr3.Fp != sr2.Fp {
		t.Fatalf("fp resubmission of drifted factor: status %d fp %q", resp3.StatusCode, sr3.Fp)
	}
	if st := s.Stats(); st.Delta.Repairs != 1 {
		t.Fatalf("delta stats after drifted resubmission: %+v, want 1 repair", st.Delta)
	}
	for i := range want {
		if sr3.X[0][i] != want[i] {
			t.Fatalf("x[%d] = %v, want %v (repaired solve diverged)", i, sr3.X[0][i], want[i])
		}
	}

	// /metrics exposes the repair counters.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`loops_plan_repair{event="repairs"} 1`)) {
		t.Fatalf("metrics missing repair counter:\n%s", buf.String())
	}
}

// TestServerDriftErrors pins the failure modes of the drift form.
func TestServerDriftErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Procs: 2})
	rng := rand.New(rand.NewSource(29))
	base := driftFactor(rng, 60)
	bs := [][]float64{randVec(base.N, 6)}
	resp, sr := postSolve(t, ts.URL, solveBody(t, base, true, bs))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("base submission: status %d", resp.StatusCode)
	}
	lower := true
	post := func(req SolveRequest) int {
		t.Helper()
		body, _ := json.Marshal(req)
		r, _ := postSolve(t, ts.URL, body)
		return r.StatusCode
	}
	if code := post(SolveRequest{BaseFp: "ffffffffffffffff",
		Edits: []sparse.RowEdit{{Row: 1, Delete: []int32{0}}}, Lower: &lower, B: bs}); code != http.StatusNotFound {
		t.Errorf("unknown base_fp: status %d, want 404", code)
	}
	if code := post(SolveRequest{BaseFp: sr.Fp, Lower: &lower, B: bs}); code != http.StatusBadRequest {
		t.Errorf("base_fp without edits: status %d, want 400", code)
	}
	if code := post(SolveRequest{BaseFp: sr.Fp, Fp: sr.Fp,
		Edits: []sparse.RowEdit{{Row: 1, Insert: []sparse.EditEntry{{Col: 0, Val: 1}}}},
		Lower: &lower, B: bs}); code != http.StatusBadRequest {
		t.Errorf("base_fp and fp together: status %d, want 400", code)
	}
	// An edit that inserts an upper entry breaks triangularity.
	if code := post(SolveRequest{BaseFp: sr.Fp,
		Edits: []sparse.RowEdit{{Row: 1, Insert: []sparse.EditEntry{{Col: 5, Val: 1}}}},
		Lower: &lower, B: bs}); code != http.StatusBadRequest {
		t.Errorf("upper-entry edit: status %d, want 400", code)
	}
	// Deleting the diagonal is rejected.
	if code := post(SolveRequest{BaseFp: sr.Fp,
		Edits: []sparse.RowEdit{{Row: 3, Delete: []int32{3}}},
		Lower: &lower, B: bs}); code != http.StatusBadRequest {
		t.Errorf("diagonal delete: status %d, want 400", code)
	}
	// A structurally bogus edit (delete of an absent column) is rejected.
	if code := post(SolveRequest{BaseFp: sr.Fp,
		Edits: []sparse.RowEdit{{Row: 2, Delete: []int32{1, 1}}},
		Lower: &lower, B: bs}); code != http.StatusBadRequest {
		t.Errorf("double delete: status %d, want 400", code)
	}
}
