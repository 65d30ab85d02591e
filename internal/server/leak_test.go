package server

import (
	"context"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"
)

// assertDrained is the leak check server tests defer. Call it right
// after New — New starts no goroutines, so the count taken here is the
// pre-New baseline — and run the returned function once the test's own
// listeners are closed: it shuts s down and requires that nothing
// outlives that: no request arena outstanding, no pin left on either
// cache (so every factor, skeleton lease and worker pool was released)
// and the goroutine count back at the baseline.
func assertDrained(tb testing.TB, s *Server) func() {
	base := goroutines()
	return func() {
		tb.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			tb.Errorf("shutdown: %v", err)
		}
		st := s.Stats()
		if st.Arena.Outstanding != 0 {
			tb.Errorf("%d request arenas outstanding after shutdown: %+v", st.Arena.Outstanding, st.Arena)
		}
		if st.FactorCache.Pinned != 0 || st.PlanCache.Pinned != 0 {
			tb.Errorf("pins outstanding after shutdown: %d factors, %d plan skeletons", st.FactorCache.Pinned, st.PlanCache.Pinned)
		}
		// Client connections the test left idle hold two goroutines each
		// until closed; pool workers and those unwind asynchronously.
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
		deadline := time.Now().Add(5 * time.Second)
		for goroutines() > base && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := goroutines(); n > base {
			buf := make([]byte, 1<<16)
			tb.Errorf("%d goroutines after shutdown, %d before New:\n%s", n, base, buf[:runtime.Stack(buf, true)])
		}
	}
}

// goroutines counts the live goroutines except the os/signal loop, which
// the fuzzing engine starts after a fuzz target's setup has taken its
// baseline and which lives as long as the process.
func goroutines() int {
	buf := make([]byte, 1<<20)
	return runtime.NumGoroutine() - strings.Count(string(buf[:runtime.Stack(buf, true)]), "os/signal.signal_recv")
}
