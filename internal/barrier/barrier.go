// Package barrier provides the reusable synchronization barrier of the
// pre-scheduled discipline, which separates consecutive wavefront phases
// with a global synchronization (paper Figure 5, line 1d).
package barrier

import (
	"runtime"
	"sync/atomic"
)

// SenseReversing is a classic two-phase sense-reversing centralized barrier.
// Arrivals decrement a shared counter; the last arrival flips the global
// sense, releasing the spinners. Spinning yields to the Go scheduler so the
// executor remains live even with more participants than OS threads. The
// zero value is unusable until Reset.
type SenseReversing struct {
	parties int
	count   atomic.Int32
	sense   atomic.Uint32
}

// NewSenseReversing returns a sense-reversing barrier for n parties (n >= 1).
func NewSenseReversing(n int) *SenseReversing {
	b := new(SenseReversing)
	b.Reset(n)
	return b
}

// Reset sets the barrier to n parties (n >= 1) without allocating, so one
// barrier serves runs of any width. It must not be called while a party
// is inside Wait.
func (b *SenseReversing) Reset(n int) {
	if n < 1 {
		panic("barrier: parties must be >= 1")
	}
	b.parties = n
	b.count.Store(int32(n))
}

// Parties returns the number of participants.
func (b *SenseReversing) Parties() int { return b.parties }

// Wait blocks until all parties arrive.
func (b *SenseReversing) Wait() {
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
