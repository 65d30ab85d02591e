package server

import (
	"net/http"
	"runtime"
	"testing"
	"time"
)

// TestConfigDefaultProcs pins the processor count's default to the
// process's GOMAXPROCS: with GOMAXPROCS set to 3, an unset Config.Procs
// builds plans for 3 processors, and /v1/stats reports it.
func TestConfigDefaultProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	if got := (Config{}).withDefaults().Procs; got != 3 {
		t.Errorf("default Procs = %d, want GOMAXPROCS = 3", got)
	}
	if got := (Config{Procs: 5}).withDefaults().Procs; got != 5 {
		t.Errorf("explicit Procs = %d, want 5", got)
	}
	s, _ := newTestServer(t, Config{})
	if got := s.Stats().Planner.Procs; got != 3 {
		t.Errorf("stats report %d procs/plan, want 3", got)
	}
}

// TestGoroutinesIndependentOfCacheCap builds one pooled skeleton per
// structure for sixteen structures: their passes borrow the process's
// shared worker set, so the goroutine count after the sixteenth skeleton
// is the count after the first. (A worker pool per skeleton would grow it
// by Procs each time.)
func TestGoroutinesIndependentOfCacheCap(t *testing.T) {
	s, ts := newTestServer(t, Config{Kind: "pooled", Procs: 4, CacheCap: 16})
	// settled closes the client's idle keep-alive connections — whose
	// server, read and write goroutines otherwise wind down at their own
	// pace — and returns the goroutine count once it has held still for
	// 50 ms.
	settled := func() int {
		http.DefaultClient.CloseIdleConnections()
		deadline := time.Now().Add(5 * time.Second)
		n, still := runtime.NumGoroutine(), 0
		for still < 50 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
			if m := runtime.NumGoroutine(); m != n {
				n, still = m, 0
			} else {
				still++
			}
		}
		return n
	}
	var afterFirst int
	for k := 0; k < 16; k++ {
		l := testFactor(6 + k)
		b := randVec(l.N, int64(k))
		for sight := 0; sight < 2; sight++ {
			resp, sr := postSolve(t, ts.URL, solveBody(t, l, true, [][]float64{b}))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("structure %d: status %d", k, resp.StatusCode)
			}
			assertBitIdentical(t, sr.X[0], seqSolve(t, l, true, b), "pooled solve")
		}
		if k == 0 {
			afterFirst = settled()
		}
	}
	if st := s.Stats(); st.PlanCache.Resident != 16 {
		t.Fatalf("%d skeletons resident, want 16", st.PlanCache.Resident)
	}
	if n := settled(); n != afterFirst {
		t.Errorf("%d goroutines after 16 pooled skeletons, %d after the first", n, afterFirst)
	}
}
