package executor

import (
	"math"
	"testing"
)

// TestCalibrateOrderings checks what holds at any width the runner
// grants, GOMAXPROCS=1 included: every cost is positive and finite, one
// pass costs more than one ready-check, and so does one spin round, which
// is a check and a yield.
func TestCalibrateOrderings(t *testing.T) {
	c := Calibrate()
	if c.Width < 1 || c.Width > helpers.size+1 {
		t.Errorf("width %d outside 1..%d", c.Width, helpers.size+1)
	}
	for _, v := range []float64{c.Flop, c.Row, c.Check, c.Synch, c.Pass, c.Spin} {
		if !(v > 0) || math.IsInf(v, 0) {
			t.Fatalf("cost %v is not positive and finite: %+v", v, c)
		}
	}
	if c.Pass <= c.Check || c.Spin <= c.Check {
		t.Errorf("a pass (%v s) or a spin round (%v s) costs no more than a check (%v s)", c.Pass, c.Spin, c.Check)
	}
}
