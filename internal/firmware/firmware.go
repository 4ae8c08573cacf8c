// Package firmware implements the software/firmware-only voltage
// speculation baseline the paper compares against (its reference [4],
// the authors' earlier system).
//
// Unlike the hardware design (internal/monitor + internal/control), the
// firmware system has no targeted probing. It watches the correctable
// errors that the *running workload* happens to trigger when it touches
// sensitive cache lines, and it pays a firmware trap cost for every
// handled error. Two consequences, both demonstrated in the paper's
// Figs. 17 and 18:
//
//   - Conservatism. Because a workload may not exercise the weakest
//     lines (or may idle), silence is ambiguous: the system cannot tell
//     a healthy margin from an untested one. It therefore refuses to go
//     below a per-domain safe floor determined by off-line calibration
//     (the voltage at which a calibration sweep first sees correctable
//     errors), lowers voltage only after long error-free periods, and
//     backs off several steps the moment any error appears. Most
//     domains end up pinned at their calibrated floor, well above the
//     hardware system's operating point — exactly the behaviour the
//     paper reports for [4].
//   - Overhead. Each correctable error costs HandlingSeconds of firmware
//     time on the affected core. Pushed to low voltages the error rate
//     explodes and the energy *per unit of work* turns back up — the
//     divergence in Fig. 18.
package firmware

import (
	"eccspec/internal/chip"
	"eccspec/internal/rng"
	"eccspec/internal/stats"
)

// Config tunes the firmware baseline.
type Config struct {
	// QuietTicksToLower is how many consecutive error-free ticks a
	// domain needs before lowering its rail one step.
	QuietTicksToLower int
	// BackoffSteps is the immediate rail increase on any observed
	// error ("raise the voltage to a safe level").
	BackoffSteps int
	// HoldTicksAfterBackoff freezes downward speculation after a
	// backoff.
	HoldTicksAfterBackoff int
	// HandlingSeconds is the firmware cost of servicing one
	// correctable-error trap (context save, logging, decision). Unlike
	// the logging path, the firmware handler runs for *every* corrected
	// event, so overhead is charged on the chip's true event rate.
	HandlingSeconds float64
	// MaxOverhead caps the lost-cycle fraction per tick; even a core
	// drowning in error traps retires some instructions between them.
	MaxOverhead float64
}

// DefaultConfig returns parameters representative of the prior-work
// firmware system: cautious stepping and a ~60 microsecond handler.
func DefaultConfig() Config {
	return Config{
		QuietTicksToLower:     100,
		BackoffSteps:          4,
		HoldTicksAfterBackoff: 1000,
		HandlingSeconds:       60e-6,
		MaxOverhead:           0.95,
	}
}

// System is the firmware speculation baseline for one chip.
type System struct {
	Chip *chip.Chip
	Cfg  Config

	quiet  []int
	hold   []int
	floors []float64
	stream *rng.Stream
	// trueCorrected reads a core's true corrected-event rate for the
	// last tick; chip.TrueCorrected outside tests.
	trueCorrected func(core int) float64
}

// New attaches the firmware system to a chip. Floors default to zero
// (no off-line calibration); feed SetFloor with per-domain onset
// voltages (e.g. from control.FindOnset) to model the safe levels
// of [4].
func New(c *chip.Chip, cfg Config) *System {
	return &System{
		Chip:          c,
		Cfg:           cfg,
		quiet:         make([]int, len(c.Domains)),
		hold:          make([]int, len(c.Domains)),
		floors:        make([]float64, len(c.Domains)),
		stream:        rng.NewStream(c.P.Seed, 0xF1A4),
		trueCorrected: c.TrueCorrected,
	}
}

// SetFloor sets one domain's off-line calibrated safe level: Adapt never
// steps the rail below it.
func (s *System) SetFloor(domain int, v float64) {
	s.floors[domain] = v
}

// Floor returns a domain's calibrated safe level.
func (s *System) Floor(domain int) float64 { return s.floors[domain] }

// overheadFor converts a core's true corrected-event rate into the
// lost-cycle fraction of the next tick, capped at MaxOverhead.
func (s *System) overheadFor(trueRate float64) float64 {
	frac := trueRate * s.Cfg.HandlingSeconds / s.Chip.P.TickSeconds
	if frac > s.Cfg.MaxOverhead {
		frac = s.Cfg.MaxOverhead
	}
	return frac
}

// ApplyOverhead charges each core the firmware handling cost for the
// errors it incurred this tick, expressed as a lost-cycle fraction of
// the next tick. Like Adapt, it follows the chip.Step that returned rep. It returns the total reported errors. Use it alone when
// the voltage is being forced externally (energy-vs-voltage sweeps).
func (s *System) ApplyOverhead(rep chip.TickReport) int {
	total := 0
	for _, cr := range rep.Cores {
		s.Chip.Cores[cr.CoreID].SetOverheadFraction(s.overheadFor(s.trueCorrected(cr.CoreID)))
		total += cr.CorrectedD + cr.CorrectedI + cr.CorrectedRF
	}
	return total
}

// Adapt runs one firmware policy iteration on the tick's report: charge
// handling overhead, then adjust each domain's rail. Call it after the
// chip.Step that returned rep and before the next: the true event rates
// are read from the chip's last Step.
func (s *System) Adapt(rep chip.TickReport) {
	for _, d := range s.Chip.Domains {
		total := 0
		for _, id := range d.CoreIDs {
			// The firmware handler is invoked for every corrected event
			// — there is no logging throttle in front of it — so the
			// policy reacts to draws from the true event rate, which is
			// what makes the baseline so much jumpier than the
			// monitor-driven controller. The overhead lands on the next
			// tick, so charging it here leaves this tick's draws alone.
			trueRate := s.trueCorrected(id)
			total += stats.SamplePoisson(s.stream, trueRate)
			s.Chip.Cores[id].SetOverheadFraction(s.overheadFor(trueRate))
		}
		switch {
		case total > 0:
			d.Rail.StepUp(s.Cfg.BackoffSteps)
			s.hold[d.ID] = s.Cfg.HoldTicksAfterBackoff
			s.quiet[d.ID] = 0
		case s.hold[d.ID] > 0:
			s.hold[d.ID]--
		default:
			s.quiet[d.ID]++
			if s.quiet[d.ID] >= s.Cfg.QuietTicksToLower &&
				d.Rail.Target() > s.floors[d.ID]+1e-9 {
				d.Rail.StepDown(1)
				s.quiet[d.ID] = 0
			}
		}
	}
}
