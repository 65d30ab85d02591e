package machine

import (
	"math"

	"doconsider/internal/executor"
)

// Calibrate returns the host's per-operation costs, normalized so Tflop =
// 1 (the cost of one dependent multiply-add): executor.Calibrate's
// measurement on real passes of the runner, at the width it granted.
// Tcheck is a ready-check; Tinc takes a flags-pass index's whole fixed
// cost, since the runner's stamp cannot be timed apart from the dispatch
// around it; Tsynch is one barrier of a pre-scheduled pass. Overhead keeps
// the Multimax default. Use the result in place of MultimaxCosts to
// simulate "this host, if it had that many real processors".
//
// The measurement is best-effort: on a loaded machine the constants
// wobble, so rely on positivity and coarse ordering only. A constant that
// is not positive and finite (a timer too coarse) yields MultimaxCosts.
func Calibrate() Costs {
	c := executor.Calibrate()
	synch, check, inc := c.Synch/c.Flop, c.Check/c.Flop, c.Row/c.Flop
	if !(min(synch, check, inc) > 0) || math.IsInf(max(synch, check, inc), 1) {
		return MultimaxCosts()
	}
	return Costs{Tflop: 1, Tsynch: synch, Tcheck: check, Tinc: inc, Overhead: 0.5}
}
