// Package eccspec is a simulation-based reproduction of "Using ECC
// Feedback to Guide Voltage Speculation in Low-Voltage Processors"
// (Bacha and Teodorescu, MICRO 2014).
//
// The paper proposes running a processor's supply voltage far below its
// rated level by continuously probing the chip's weakest ECC-protected
// cache lines: a small hardware monitor per cache controller writes and
// reads a designated weak line, and a voltage controller keeps that
// line's correctable-error rate inside a benign band (1-5%), stepping
// the rail 5 mV at a time. Correctable errors are early, harmless and —
// on real silicon — deterministic, so they make a precise live gauge of
// the remaining voltage margin.
//
// The original work ran on an HP Integrity server with Intel Itanium
// 9560 processors. This package substitutes a detailed simulation of
// that platform: SRAM cells with process variation, SECDED-protected
// caches, per-core-pair voltage rails with a resonant power-delivery
// model, workload demand profiles, and both the proposed hardware
// speculation system and the firmware-only baseline it is compared
// against. See DESIGN.md for the substitution map and EXPERIMENTS.md
// for measured-vs-paper results.
//
// # Quick start
//
//	sim, err := eccspec.NewSimulator(eccspec.Options{Seed: 42})
//	if err != nil { ... }
//	if err := sim.Calibrate(); err != nil { ... }
//	sim.Run(2.0) // simulate two seconds under closed-loop speculation
//	fmt.Printf("domain 0 now at %.3f V\n", sim.DomainVoltage(0))
//
// The underlying subsystems are available for finer control via the
// Chip and Control accessors; the reproduction experiments themselves
// live behind RunExperiment and the eccspec CLI.
package eccspec

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"

	"eccspec/internal/chip"
	"eccspec/internal/control"
	"eccspec/internal/engine"
	"eccspec/internal/experiments"
	"eccspec/internal/policy"
	"eccspec/internal/workload"
)

// ErrUnknownWorkload is returned by NewSimulator when Options.Workload
// names no known benchmark profile. Use errors.Is to test for it; the
// wrapped message lists the valid names.
var ErrUnknownWorkload = errors.New("eccspec: unknown workload")

// ErrUnknownPolicy is returned by NewSimulator when Options.Policy names
// no registered speculation policy. Use errors.Is to test for it; the
// wrapped message lists the valid names.
var ErrUnknownPolicy = errors.New("eccspec: unknown policy")

// ErrUnknownFidelity is returned by NewSimulator when Options.Fidelity
// names no known fidelity mode. Use errors.Is to test for it.
var ErrUnknownFidelity = errors.New("eccspec: unknown fidelity")

// Fidelity modes accepted by Options.Fidelity.
const (
	// FidelityFull runs the exact per-line sampling kernels every tick;
	// outputs are byte-identical to the pre-kernel implementation.
	FidelityFull = "full"
	// FidelityAdaptive lets the chip fast-forward through aggregate
	// per-bank sampling once the control loop has been stable for
	// several decision windows, dropping back to full fidelity on any
	// control-loop event. Deterministic (same seed, same decisions
	// across runs) but statistically rather than bitwise equivalent to
	// full fidelity.
	FidelityAdaptive = "adaptive"
)

// PolicyNames lists the registered speculation policies, sorted.
func PolicyNames() []string { return policy.Names() }

// Options selects the simulated platform.
type Options struct {
	// Seed fixes the chip specimen: the entire weak-cell map, logic
	// floors and rail resonances derive from it. Two simulators with
	// the same seed are identical chips.
	Seed uint64
	// HighVoltagePoint selects the nominal 2.53 GHz / 1.1 V operating
	// point instead of the default low-voltage 340 MHz / 800 mV point.
	HighVoltagePoint bool
	// FullGeometry uses the paper's full Table I cache sizes instead of
	// the 1/8-scaled default (slower to characterize, same shapes).
	FullGeometry bool
	// Workload names the benchmark each core runs (see
	// internal/workload's Table II inventory); empty selects the
	// characterization stress test.
	Workload string
	// Policy names the speculation policy driving the voltage control
	// system (see internal/policy's registry); empty selects the paper's
	// floor/ceiling ladder.
	Policy string
	// Fidelity selects the event-sampling fidelity: FidelityFull (or
	// empty) for exact per-line sampling, FidelityAdaptive for
	// stability-gated fast-forward. Anything else is rejected with
	// ErrUnknownFidelity.
	Fidelity string
}

// Simulator couples a simulated chip with the paper's voltage
// speculation system.
type Simulator struct {
	opts Options
	chip *chip.Chip
	ctl  *control.System
}

// NewSimulator builds a chip and its control system, assigns the
// configured workload to every core and characterizes the specimen
// (chip.Chip.Characterize), so neither Calibrate nor the first Step
// pays for it. The rails start at nominal; call Calibrate and then Run
// to engage speculation. An unrecognized Options.Workload returns an
// error wrapping ErrUnknownWorkload.
func NewSimulator(o Options) (*Simulator, error) {
	name := o.Workload
	if name == "" {
		name = workload.StressTest().Name
	}
	p, ok := workload.ByName(name)
	if !ok {
		return nil, fmt.Errorf("%w %q (valid: %s)", ErrUnknownWorkload, name,
			strings.Join(workload.Names(), ", "))
	}
	polName := policy.Resolve(o.Policy)
	pol, err := policy.New(polName)
	if err != nil {
		return nil, fmt.Errorf("%w %q (valid: %s)", ErrUnknownPolicy, polName,
			strings.Join(policy.Names(), ", "))
	}
	switch o.Fidelity {
	case "", FidelityFull:
		// Full fidelity is recorded as the empty string so checkpoints
		// of full-fidelity runs keep their historical shape.
		o.Fidelity = ""
	case FidelityAdaptive:
	default:
		return nil, fmt.Errorf("%w %q (valid: %s, %s)", ErrUnknownFidelity,
			o.Fidelity, FidelityFull, FidelityAdaptive)
	}
	c := chip.New(chip.DefaultParams(o.Seed, !o.HighVoltagePoint, o.FullGeometry))
	if o.Fidelity == FidelityAdaptive {
		c.SetAdaptiveFidelity(true)
	}
	for _, co := range c.Cores {
		co.SetWorkload(p, o.Seed)
	}
	c.Characterize()
	o.Workload = name  // record the resolved names for Opts/checkpoints
	o.Policy = polName //
	return &Simulator{
		opts: o,
		chip: c,
		ctl:  control.NewWithPolicy(c, control.DefaultConfig(), pol),
	}, nil
}

// Opts returns the options the simulator was built from, with the
// workload and policy names resolved (never empty). Checkpointing uses
// this to rebuild an identical specimen before restoring mutable state.
func (s *Simulator) Opts() Options { return s.opts }

// Chip exposes the underlying chip model.
func (s *Simulator) Chip() *chip.Chip { return s.chip }

// Control exposes the underlying voltage control system.
func (s *Simulator) Control() *control.System { return s.ctl }

// FidelityAdaptive reports whether the simulator was built with
// adaptive fidelity (Options.Fidelity == FidelityAdaptive).
func (s *Simulator) FidelityAdaptive() bool { return s.chip.AdaptiveFidelity() }

// Calibrate runs the boot-time calibration: each voltage domain sweeps
// its L2 caches to locate its weakest line, de-configures it, and points
// the domain's ECC monitor at it.
func (s *Simulator) Calibrate() error {
	_, err := s.ctl.Calibrate()
	return err
}

// EnableUncoreSpeculation extends speculation to the uncore rail (an
// extension beyond the paper, which leaves the uncore at nominal): the
// shared L3 is swept for its weakest line and the uncore supply is then
// regulated from that line's error rate alongside the core domains.
func (s *Simulator) EnableUncoreSpeculation() error {
	_, err := s.ctl.AttachUncore()
	return err
}

// UncoreVoltage returns the uncore rail's current setpoint in volts.
func (s *Simulator) UncoreVoltage() float64 {
	return s.chip.UncoreRail.Target()
}

// Step advances the simulation by one control tick (chip activity, then
// one controller iteration) and reports whether all cores remain alive.
func (s *Simulator) Step() bool {
	s.chip.Step()
	s.ctl.Tick()
	for _, co := range s.chip.Cores {
		if !co.Alive() {
			return false
		}
	}
	return true
}

// Run simulates the given number of seconds under closed-loop
// speculation and returns the number of ticks executed. It stops early
// if a core dies (which, with calibration in place, indicates a
// misconfigured experiment). Run is a thin wrapper over engine.Run; use
// RunEngine to attach observers.
func (s *Simulator) Run(seconds float64) int {
	start := s.Ticks()
	rep, _ := engine.Run(context.Background(), s, engine.Config{
		Start: start,
		Until: start + int(seconds/s.chip.P.TickSeconds),
	})
	return rep.Tick - start
}

// RunContext is Run with cooperative cancellation: it checks ctx
// between control ticks and returns early with ctx.Err() when the
// context is cancelled. The returned tick count covers the work
// actually done, so partial results (voltages, energy, error rates)
// remain valid after an interrupted run.
func (s *Simulator) RunContext(ctx context.Context, seconds float64) (int, error) {
	start := s.Ticks()
	rep, err := engine.Run(ctx, s, engine.Config{
		Start: start,
		Until: start + int(seconds/s.chip.P.TickSeconds),
	})
	return rep.Tick - start, err
}

// RunEngine exposes the canonical loop with observer composition: it
// advances the simulator ticks control ticks from wherever it currently
// stands, firing the observers each tick. See internal/engine for the
// observer contract; the fleet engine, the CLI and the daemon all build
// on this entry point.
func (s *Simulator) RunEngine(ctx context.Context, ticks int, obs ...engine.Observer) (engine.Report, error) {
	start := s.Ticks()
	return engine.Run(ctx, s, engine.Config{
		Start:     start,
		Until:     start + ticks,
		Observers: obs,
	})
}

// TickSeconds returns the simulated duration of one control tick.
func (s *Simulator) TickSeconds() float64 { return s.chip.P.TickSeconds }

// Ticks returns the number of control ticks executed so far, counted by
// the chip's integer tick counter.
func (s *Simulator) Ticks() int { return s.chip.Ticks() }

// CoresAlive reports whether every core is still functioning; false
// means speculation drove a rail below a core's crash margin.
func (s *Simulator) CoresAlive() bool {
	for _, co := range s.chip.Cores {
		if !co.Alive() {
			return false
		}
	}
	return true
}

// Time returns the simulated time elapsed, in seconds.
func (s *Simulator) Time() float64 { return s.chip.Time() }

// NumDomains returns the number of core voltage domains.
func (s *Simulator) NumDomains() int { return len(s.chip.Domains) }

// NumCores returns the core count.
func (s *Simulator) NumCores() int { return len(s.chip.Cores) }

// NominalVoltage returns the operating point's rated supply in volts.
func (s *Simulator) NominalVoltage() float64 { return s.chip.P.Point.NominalVdd }

// DomainVoltage returns a domain's current regulator setpoint in volts.
func (s *Simulator) DomainVoltage(domain int) float64 {
	return s.chip.Domains[domain].Rail.Target()
}

// CoreVoltage returns the setpoint of the domain supplying the core.
func (s *Simulator) CoreVoltage(core int) float64 {
	return s.chip.DomainOf(core).Rail.Target()
}

// AverageReduction returns the mean relative voltage reduction across
// domains, e.g. 0.18 for the paper's headline 18%.
func (s *Simulator) AverageReduction() float64 {
	sum := 0.0
	for _, d := range s.chip.Domains {
		sum += 1 - d.Rail.Target()/s.NominalVoltage()
	}
	return sum / float64(len(s.chip.Domains))
}

// CoreEnergy returns a core's accumulated energy in joules.
func (s *Simulator) CoreEnergy(core int) float64 {
	return s.chip.Cores[core].Energy()
}

// TotalPower returns the chip's current average power in watts (cores
// plus uncore) since accounting began.
func (s *Simulator) TotalPower() float64 {
	if s.chip.Time() == 0 {
		return 0
	}
	return s.chip.TotalEnergy() / s.chip.Time()
}

// MonitorErrorRate returns the correctable-error rate of the domain's
// ECC monitor at the most recent controller decision (0 before
// calibration or the first decision).
func (s *Simulator) MonitorErrorRate(domain int) float64 {
	return s.ctl.LastErrorRate(domain)
}

// ExperimentIDs lists the paper-reproduction experiments.
func ExperimentIDs() []string {
	var ids []string
	for _, e := range experiments.All() {
		ids = append(ids, e.ID)
	}
	return ids
}

// RunExperiment executes one table/figure reproduction by id and writes
// its report to w. Fast shortens the measurement windows ~10x.
func RunExperiment(id string, seed uint64, fast bool, w io.Writer) error {
	e, ok := experiments.ByID(id)
	if !ok {
		return fmt.Errorf("eccspec: unknown experiment %q", id)
	}
	res, err := e.Run(experiments.Options{Seed: seed, Fast: fast})
	if err != nil {
		return err
	}
	return res.Write(w)
}
