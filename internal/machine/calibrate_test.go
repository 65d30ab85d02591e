package machine

import (
	"math"
	"testing"

	"doconsider/internal/schedule"
)

// TestCalibrateSanity checks what holds at any width the runner grants,
// GOMAXPROCS=1 included: Tflop is the unit and every constant is positive
// and finite.
func TestCalibrateSanity(t *testing.T) {
	c := Calibrate()
	if c.Tflop != 1 {
		t.Errorf("Tflop = %v, want 1 (normalized)", c.Tflop)
	}
	for _, v := range []float64{c.Tsynch, c.Tcheck, c.Tinc, c.Overhead} {
		if !(v > 0) || math.IsInf(v, 0) {
			t.Errorf("calibrated cost %v is not positive and finite: %+v", v, c)
		}
	}
}

func TestCalibrateUsableInSimulation(t *testing.T) {
	d, wf, work := meshProblem(8, 8)
	c := Calibrate()
	// Simulating with host-calibrated costs must work end to end.
	r, err := SimulateSelfExecuting(schedule.Global(wf, 4), d, work, c)
	if err != nil {
		t.Fatal(err)
	}
	if r.Makespan <= 0 || r.Efficiency <= 0 || r.Efficiency > 1 {
		t.Errorf("implausible calibrated simulation: %+v", r)
	}
}
