package barrier

import (
	"runtime"
	"sync"
	"testing"
)

// BenchmarkSenseReversing measures rounds/sec of repeated barrier
// crossings — the paper's Tsynch.
func BenchmarkSenseReversing(b *testing.B) {
	parties := max(runtime.GOMAXPROCS(0), 2)
	bar := NewSenseReversing(parties)
	b.ResetTimer()
	var wg sync.WaitGroup
	for p := 0; p < parties; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < b.N; i++ {
				bar.Wait()
			}
		}()
	}
	wg.Wait()
}
