package server

import (
	"encoding/json"
	"net/http"
	"sync"
	"testing"

	"doconsider/internal/sparse"
)

// TestServerFirstSight pins the plan cache's second-sight rule on the
// serving routes: a structure's first request is answered by the
// uninspected sequential loop and leaves no plan on its factor, the
// second builds the plan the factor then holds, and every answer —
// inline, by fingerprint, concurrent, level-sampled — is bit-identical
// to ForwardSeq.
func TestServerFirstSight(t *testing.T) {
	t.Run("cold inline then by-fp build", func(t *testing.T) {
		s, ts := newTestServer(t, Config{Procs: 2})
		l := testFactor(12)
		b := randVec(l.N, 1)
		resp, sr := postSolve(t, ts.URL, solveBody(t, l, true, [][]float64{b}))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cold inline: status %d", resp.StatusCode)
		}
		if sr.Strategy != "sequential" || sr.Executed != int64(l.N) {
			t.Fatalf("cold inline ran %q over %d rows, want the sequential loop over %d", sr.Strategy, sr.Executed, l.N)
		}
		assertBitIdentical(t, sr.X[0], seqSolve(t, l, true, b), "cold inline")
		st := s.Stats()
		if st.PlanCache.Misses != 1 || st.PlanCache.Resident != 0 || st.Planner.Counts["sequential"] != 1 {
			t.Fatalf("after first sight: plan cache %+v, decisions %v; want one miss, nothing resident, one sequential answer",
				st.PlanCache, st.Planner.Counts)
		}
		if d := st.Planner.Decisions; len(d) != 1 || !d[0].Deferred {
			t.Fatalf("decision log %+v, want one deferred record", d)
		}

		lower := true
		b2 := randVec(l.N, 2)
		body, _ := json.Marshal(SolveRequest{Fp: sr.Fp, Lower: &lower, B: [][]float64{b2}})
		resp2, sr2 := postSolve(t, ts.URL, body)
		if resp2.StatusCode != http.StatusOK {
			t.Fatalf("by-fp: status %d", resp2.StatusCode)
		}
		assertBitIdentical(t, sr2.X[0], seqSolve(t, l, true, b2), "by-fp second sight")
		st = s.Stats()
		if st.PlanCache.Misses != 2 || st.PlanCache.Resident != 1 {
			t.Fatalf("after second sight: plan cache %+v, want the build resident", st.PlanCache)
		}
		if d := st.Planner.Decisions; len(d) != 2 || d[1].Deferred || d[1].Edges == 0 {
			t.Fatalf("decision log %+v, want the inspected build after the deferred answer", d)
		}
		fp, err := parseHexFp(sr.Fp)
		if err != nil {
			t.Fatal(err)
		}
		pin, err := s.factorByFp(fp, true)
		if err != nil {
			t.Fatal(err)
		}
		if f := pin.Value(); f.p == nil || f.p.Wf == nil {
			t.Fatal("the factor does not hold the plan its second solve built")
		}
		pin.Release()
	})

	t.Run("concurrent first sights", func(t *testing.T) {
		// Four structures, each seen once, solved at the same time: every
		// one is its own uninspected pass on the shared first-sight
		// executor.
		s, ts := newTestServer(t, Config{Procs: 2})
		const structures = 4
		ls := make([]*sparse.CSR, structures)
		bs := make([][]float64, structures)
		for i := range ls {
			ls[i] = testFactor(9 + i)
			bs[i] = randVec(ls[i].N, int64(i))
		}
		replies := make([]wireReply, structures)
		errs := make([]error, structures)
		lower := true
		var wg sync.WaitGroup
		for i := range ls {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				l := ls[i]
				replies[i], errs[i] = postWire(ts.URL, "json", "", &SolveRequest{N: l.N, RowPtr: l.RowPtr,
					ColIdx: l.ColIdx, Val: l.Val, Lower: &lower, B: [][]float64{bs[i]}})
			}(i)
		}
		wg.Wait()
		for i, rep := range replies {
			if errs[i] != nil || rep.status != http.StatusOK {
				t.Fatalf("structure %d: status %d, err %v", i, rep.status, errs[i])
			}
			if rep.fused != 1 || rep.strategy != "sequential" {
				t.Fatalf("structure %d: fused %d strategy %q, want its own uninspected pass", i, rep.fused, rep.strategy)
			}
			assertBitIdentical(t, rep.xs[0], seqSolve(t, ls[i], true, bs[i]), "concurrent first sight")
		}
		if st := s.Stats(); st.PlanCache.Misses != structures || st.PlanCache.Resident != 0 {
			t.Fatalf("plan cache %+v, want %d first-sight misses and nothing built", st.PlanCache, structures)
		}
	})

	t.Run("sampled trace at first sight", func(t *testing.T) {
		_, ts := newTestServer(t, Config{Procs: 2, TraceSampleEvery: 1})
		l := testFactor(10)
		b := randVec(l.N, 3)
		resp, sr := postSolve(t, ts.URL, solveBody(t, l, true, [][]float64{b}))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		assertBitIdentical(t, sr.X[0], seqSolve(t, l, true, b), "sampled first sight")
		var tr *TraceJSON
		traces := getTraces(t, ts.URL+"/v1/trace")
		for i := range traces.Traces {
			if traces.Traces[i].TraceID == sr.TraceID {
				tr = &traces.Traces[i]
			}
		}
		if tr == nil {
			t.Fatalf("trace %s not recorded", sr.TraceID)
		}
		if tr.Strategy != "sequential" || len(tr.Levels) != 1 || tr.Levels[0] <= 0 {
			t.Fatalf("trace %+v, want the sequential pass charged to level 0 alone", tr)
		}
	})
}
