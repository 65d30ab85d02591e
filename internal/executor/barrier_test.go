package executor

import (
	"sync"
	"sync/atomic"
	"testing"
)

// newBarrier returns a barrier reset to n parties.
func newBarrier(n int) *barrier {
	b := new(barrier)
	b.reset(n)
	return b
}

// checkBarrier verifies phase separation: within each of rounds phases all
// parties increment a counter; after the barrier every party must observe
// the full count for the phase.
func checkBarrier(t *testing.T, b *barrier, parties, rounds int) {
	t.Helper()
	if b.parties != parties {
		t.Fatalf("parties = %d, want %d", b.parties, parties)
	}
	counts := make([]atomic.Int64, rounds)
	var wg sync.WaitGroup
	errs := make(chan string, parties*rounds)
	for p := 0; p < parties; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				counts[r].Add(1)
				b.wait()
				if got := counts[r].Load(); got != int64(parties) {
					errs <- "phase leak"
				}
				b.wait() // second barrier so nobody races into round r+1
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func TestSenseReversing(t *testing.T) {
	for _, parties := range []int{1, 2, 3, 8, 16} {
		checkBarrier(t, newBarrier(parties), parties, 50)
	}
}

// TestSenseReversingReset reuses one barrier at a different width after
// every run, as a pass state does between passes.
func TestSenseReversingReset(t *testing.T) {
	var b barrier
	for _, parties := range []int{3, 1, 4, 2, 4} {
		b.reset(parties)
		checkBarrier(t, &b, parties, 20)
	}
}

func TestSenseReversingManyMoreGoroutinesThanCPUs(t *testing.T) {
	checkBarrier(t, newBarrier(64), 64, 20)
}

func TestBadParties(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("reset(0) did not panic")
		}
	}()
	newBarrier(0)
}

func TestSingleParty(t *testing.T) {
	b := newBarrier(1)
	for i := 0; i < 100; i++ {
		b.wait() // must never block
	}
}
