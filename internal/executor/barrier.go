package executor

import (
	"runtime"
	"sync/atomic"
)

// barrier is the global synchronization of the barrier discipline, which
// separates consecutive wavefront phases (paper Figure 5, line 1d): a
// classic sense-reversing centralized barrier. Arrivals decrement a
// shared counter; the last arrival flips the global sense, releasing the
// spinners. Spinning yields to the Go scheduler so a pass stays live with
// more participants than OS threads. The zero value is unusable until
// reset.
type barrier struct {
	parties int
	count   atomic.Int32
	sense   atomic.Uint32
}

// reset sets the barrier to n parties (n >= 1) without allocating, so one
// barrier serves passes of any width. It must not be called while a party
// is inside wait.
func (b *barrier) reset(n int) {
	if n < 1 {
		panic("executor: barrier parties must be >= 1")
	}
	b.parties = n
	b.count.Store(int32(n))
}

// wait blocks until all parties arrive.
func (b *barrier) wait() {
	local := b.sense.Load()
	if b.count.Add(-1) == 0 {
		b.count.Store(int32(b.parties))
		b.sense.Store(local ^ 1)
		return
	}
	for b.sense.Load() == local {
		runtime.Gosched()
	}
}
