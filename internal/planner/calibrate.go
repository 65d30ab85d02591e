package planner

import (
	"runtime"

	"doconsider/internal/executor"
)

// Calibrate returns the planner's cost constants measured on the host:
// executor.Calibrate's passes of the runner, mapped onto the model — the
// dependent multiply-add (TDep), a flags-pass index's dispatch (TRow), a
// ready-check (TCheck), a not-ready spin round (TSpin) and an empty
// pass's fixed cost (TPass). The run takes a few milliseconds. Nothing
// calls it implicitly: a nil model always means Default, and a caller
// that wants host constants passes Calibrate's result to core.WithModel
// or trisolve.WithModel.
//
// Measurements on a loaded machine wobble, so consumers should rely on
// coarse ordering only; the selection thresholds the constants feed are
// order-of-magnitude decisions.
func Calibrate() *CostModel {
	c := executor.Calibrate()
	m := Default()
	m.Parallelism = runtime.GOMAXPROCS(0)
	m.TDep, m.TRow, m.TCheck, m.TSpin, m.TPass = c.Flop, c.Row, c.Check, c.Spin, c.Pass
	if err := m.Validate(); err != nil {
		// Timer too coarse or the host too hostile: fall back whole-hog
		// rather than mixing measured and default constants arbitrarily.
		return Default()
	}
	return m
}
