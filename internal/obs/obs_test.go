package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func TestStageNames(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < NumStages; i++ {
		name := Stage(i).String()
		if name == "" || name == "unknown" {
			t.Fatalf("stage %d has no name", i)
		}
		if seen[name] {
			t.Fatalf("duplicate stage name %q", name)
		}
		seen[name] = true
	}
	if Stage(NumStages).String() != "unknown" {
		t.Fatalf("out-of-range stage should render as unknown")
	}
	if WireJSON.String() != "json" || WireBinary.String() != "binary" {
		t.Fatalf("wire names changed: %q/%q", WireJSON, WireBinary)
	}
}

// The core invariant of the lap protocol: the per-stage durations of a
// finished trace partition the total exactly.
func TestTraceStageSumEqualsTotal(t *testing.T) {
	var tr Trace
	tr.Begin(WireJSON, time.Now())
	tr.Lap(StageAdmission)
	time.Sleep(time.Millisecond)
	tr.Lap(StageDecode)
	tr.Lap(StageFactor)
	tr.AttributeSubmit(100, 40) // tiny beside the real lap
	time.Sleep(time.Millisecond)
	tr.Finish(StageEncode, 200)

	if tr.TotalNs <= 0 {
		t.Fatalf("TotalNs = %d, want > 0", tr.TotalNs)
	}
	if got := tr.StageSum(); got != tr.TotalNs {
		t.Fatalf("StageSum() = %d, TotalNs = %d; laps must partition the total", got, tr.TotalNs)
	}
	if tr.Status != 200 {
		t.Fatalf("Status = %d, want 200", tr.Status)
	}
}

// AttributeSubmit must partition its lap exactly even when the plan
// timings exceed the measured lap or are negative garbage.
func TestAttributeSubmitClamps(t *testing.T) {
	cases := []struct{ plan, repair int64 }{
		{0, 0},
		{1 << 60, 0},
		{-5, -5},
		{1 << 60, 1 << 61},
		{10, 1 << 61},
	}
	for _, c := range cases {
		var tr Trace
		tr.Begin(WireBinary, time.Now())
		time.Sleep(time.Millisecond)
		tr.AttributeSubmit(c.plan, c.repair)
		tr.Finish(StageEncode, 200)
		if got := tr.StageSum(); got != tr.TotalNs {
			t.Fatalf("case %+v: StageSum() = %d != TotalNs = %d", c, got, tr.TotalNs)
		}
		for s, ns := range tr.Stages {
			if ns < 0 {
				t.Fatalf("case %+v: stage %s went negative: %d", c, Stage(s), ns)
			}
		}
	}
}

func TestTraceSetInfoTruncatesStrategy(t *testing.T) {
	var tr Trace
	long := "a-strategy-name-much-longer-than-the-inline-reserve"
	tr.SetInfo(100, 2, 3, 6, long)
	if got := tr.Strategy(); got != long[:StrategyLen] {
		t.Fatalf("Strategy() = %q, want %q", got, long[:StrategyLen])
	}
	tr.SetInfo(100, 2, 3, 6, "pooled")
	if got := tr.Strategy(); got != "pooled" {
		t.Fatalf("Strategy() = %q after re-set, want pooled", got)
	}
}

func TestRingPutSnapshot(t *testing.T) {
	r := NewRing(16)
	if r.Cap() != 16 {
		t.Fatalf("Cap() = %d, want 16", r.Cap())
	}
	for i := 0; i < 40; i++ {
		var tr Trace
		tr.Begin(WireJSON, time.Now())
		tr.ID = uint64(i + 1)
		tr.Finish(StageEncode, 200)
		r.Put(&tr)
	}
	got := r.Snapshot(0)
	if len(got) != 16 {
		t.Fatalf("Snapshot returned %d traces, want 16 (ring capacity)", len(got))
	}
	// Only the newest 16 survive, newest first.
	for k, tr := range got {
		want := uint64(40 - k)
		if tr.ID != want {
			t.Fatalf("Snapshot[%d].ID = %d, want %d", k, tr.ID, want)
		}
	}
	if limited := r.Snapshot(4); len(limited) != 4 || limited[0].ID != 40 {
		t.Fatalf("Snapshot(4) = %d traces, first ID %d; want 4 and 40", len(limited), limited[0].ID)
	}
}

func TestRingSizeRounding(t *testing.T) {
	if got := NewRing(0).Cap(); got != 16 {
		t.Fatalf("NewRing(0).Cap() = %d, want 16", got)
	}
	if got := NewRing(100).Cap(); got != 128 {
		t.Fatalf("NewRing(100).Cap() = %d, want 128", got)
	}
}

// Hammer the ring from concurrent writers and readers; run under -race
// this pins the per-slot CAS protocol (no torn reads, no data races).
func TestRingConcurrent(t *testing.T) {
	r := NewRing(32)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var tr Trace
				tr.Begin(WireBinary, time.Now())
				tr.ID = uint64(w)<<32 | uint64(i)
				tr.Stages[StageExecute] = int64(i)
				tr.Finish(StageEncode, 200)
				r.Put(&tr)
			}
		}(w)
	}
	for rd := 0; rd < 3; rd++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, tr := range r.Snapshot(0) {
					if tr.Status != 200 {
						panic("torn trace observed")
					}
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	if len(r.Snapshot(0)) == 0 {
		t.Fatal("ring empty after concurrent writes")
	}
}

func TestLevelClock(t *testing.T) {
	var c LevelClock
	c.Add(0, 100)
	c.Add(2, 300)
	c.Add(2, 50)
	c.Add(-1, 999) // ignored
	if c.Levels() != 3 {
		t.Fatalf("Levels() = %d, want 3", c.Levels())
	}
	var tr Trace
	c.FillTrace(&tr)
	if !tr.Sampled || tr.NumLevels != 3 {
		t.Fatalf("FillTrace: sampled=%v levels=%d, want true/3", tr.Sampled, tr.NumLevels)
	}
	if tr.LevelNs[0] != 100 || tr.LevelNs[1] != 0 || tr.LevelNs[2] != 350 {
		t.Fatalf("LevelNs = %v", tr.LevelNs[:3])
	}
	// Overflowing levels fold into the last slot but keep the true count.
	c.Reset()
	c.Add(MaxLevels+5, 70)
	c.Add(MaxLevels-1, 30)
	if c.Levels() != MaxLevels+6 {
		t.Fatalf("Levels() = %d, want %d", c.Levels(), MaxLevels+6)
	}
	c.FillTrace(&tr)
	if tr.LevelNs[MaxLevels-1] != 100 {
		t.Fatalf("overflow bucket = %d, want 100", tr.LevelNs[MaxLevels-1])
	}
}

func TestSampler(t *testing.T) {
	if (*Sampler)(nil).Sample() {
		t.Fatal("nil sampler must never sample")
	}
	if NewSampler(0).Sample() {
		t.Fatal("0-rate sampler must never sample")
	}
	every := NewSampler(1)
	for i := 0; i < 5; i++ {
		if !every.Sample() {
			t.Fatal("1-rate sampler must always sample")
		}
	}
	third := NewSampler(3)
	hits := 0
	for i := 0; i < 30; i++ {
		if third.Sample() {
			hits++
		}
	}
	if hits != 10 {
		t.Fatalf("1-in-3 sampler hit %d of 30", hits)
	}
}

func TestReadRuntime(t *testing.T) {
	rs := ReadRuntime()
	if rs.Goroutines < 1 {
		t.Fatalf("Goroutines = %d, want >= 1", rs.Goroutines)
	}
	if rs.HeapBytes == 0 || rs.TotalBytes == 0 {
		t.Fatalf("heap=%d total=%d, want > 0", rs.HeapBytes, rs.TotalBytes)
	}
	if rs.GOMAXPROCS < 1 || rs.NumCPU < 1 {
		t.Fatalf("GOMAXPROCS=%d NumCPU=%d", rs.GOMAXPROCS, rs.NumCPU)
	}
}

func TestDebugHandler(t *testing.T) {
	h := DebugHandler()
	for _, path := range []string{"/", "/debug/pprof/", "/debug/runtime"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d, want 200", path, rec.Code)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/runtime", nil))
	var rs RuntimeStats
	if err := json.Unmarshal(rec.Body.Bytes(), &rs); err != nil {
		t.Fatalf("bad /debug/runtime JSON: %v", err)
	}
	if rs.Goroutines < 1 {
		t.Fatalf("debug runtime snapshot empty: %+v", rs)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/nope", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("GET /nope = %d, want 404", rec.Code)
	}
}
