package server

import (
	"context"
	"net/http"
	"runtime"
	"testing"
	"time"

	"doconsider/internal/executor"
)

// assertDrained is the leak check server tests defer. Call it right
// after New — New starts no goroutines, so the count taken here is the
// pre-New baseline — and run the returned function once the test's own
// listeners are closed: it shuts s down and requires that nothing
// outlives that: no request arena outstanding, no pin left on either
// cache (so every factor and skeleton lease was released) and the
// goroutine count back at the baseline.
func assertDrained(tb testing.TB, s *Server) func() {
	base := executor.Goroutines()
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
		// until closed, and unwind asynchronously.
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
		deadline := time.Now().Add(5 * time.Second)
		for executor.Goroutines() > base && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := executor.Goroutines(); n > base {
			buf := make([]byte, 1<<16)
			tb.Errorf("%d goroutines after shutdown, %d before New:\n%s", n, base, buf[:runtime.Stack(buf, true)])
		}
	}
}
