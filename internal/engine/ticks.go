package engine

// Bare-chip loops: the experiment reproductions and examples drive a
// chip.Chip (and usually a control.System) directly, without the full
// Simulator wrapper — calibration sweeps, convergence windows,
// measurement windows with per-tick collection. These helpers are the
// engine-owned form of those loops; call sites supply only the per-tick
// consumption. Unlike Run, a dead core does not stop these loops:
// chip.Step skips dead cores but still consumes the same randomness, so
// characterization sweeps that ride through crashes (reviving cores,
// counting fatalities) stay byte-identical to the historical behavior.

import (
	"eccspec/internal/chip"
	"eccspec/internal/control"
)

// TickFunc consumes one bare-chip tick: t is the 0-based loop index,
// rep the chip's report (valid until the next Step), and acts the
// controller's actions this tick (nil when the loop runs without a
// controller; valid until the next Tick). Returning false stops the
// loop after this tick.
type TickFunc func(t int, rep chip.TickReport, acts []control.Action) bool

// Ticks advances c by n control ticks, driving ctl after each chip step
// when non-nil, and invoking fn (when non-nil) with each tick's report
// and actions. It returns the number of ticks completed, which is less
// than n only if fn stopped the loop.
func Ticks(c *chip.Chip, ctl *control.System, n int, fn TickFunc) int {
	for t := 0; t < n; t++ {
		rep := c.Step()
		var acts []control.Action
		if ctl != nil {
			acts = ctl.Tick()
		}
		if fn != nil && !fn(t, rep, acts) {
			return t + 1
		}
	}
	return n
}
