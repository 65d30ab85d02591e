package executor

import (
	"math"
	"testing"
)

// SetMaxWidth caps every pooled pass at width w (0 lifts the cap) until
// the test ends. It is the one way to pin a pass's width, and it exists
// only in this package's test builds, for the width grids.
func SetMaxWidth(t testing.TB, w int) {
	c := int32(math.MaxInt32)
	if w > 0 {
		c = int32(w - 1)
	}
	old := crewCap.Swap(c)
	t.Cleanup(func() { crewCap.Store(old) })
}

// HelperSet reports the shared set's size and how many of its helpers
// are idle right now.
func HelperSet() (size, idle int) {
	helpers.mu.Lock()
	defer helpers.mu.Unlock()
	return helpers.size, len(helpers.idle)
}
