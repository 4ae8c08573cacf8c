// Package pdn models the power delivery network: per-domain voltage rails
// with a stepping regulator, static IR drop, and a resonant response to
// oscillating load current.
//
// The Itanium 9560 exposes one supply line per pair of cores plus a
// separate uncore line, each independently adjustable (paper §IV-A). The
// regulator moves in 5 mV steps, the granularity the voltage control
// system uses.
//
// The effective voltage seen by the circuits is the regulator setpoint
// minus droop. Droop has two parts:
//
//   - a static IR component proportional to mean load current, and
//   - a resonant component: the PDN's RLC impedance peaks at the chip's
//     mid-frequency resonance (tens to hundreds of MHz), so a workload
//     whose power alternates near that frequency — like the paper's
//     FMA/NOP "voltage virus" with ~8 NOPs — produces a much larger
//     droop than a steadier workload of even higher average power
//     (Figs. 15 and 16).
//
// Time scales above the resonance period are treated quasi-statically:
// each control tick supplies the rail with a load summary (mean current,
// oscillation amplitude and frequency) and reads back the worst-case
// effective voltage for that tick.
package pdn

import (
	"math"

	"eccspec/internal/rng"
)

// Params configures a voltage rail.
type Params struct {
	// VNominal is the rail's initial setpoint, in volts.
	VNominal float64
	// VMin and VMax clamp the setpoint range.
	VMin float64
	VMax float64
	// StepV is the regulator step size (paper: 5 mV).
	StepV float64
	// RStatic is the effective static PDN resistance, in ohms: mean
	// current times RStatic gives the IR droop.
	RStatic float64
	// RRes is the peak resonant impedance at the resonance frequency,
	// in ohms.
	RRes float64
	// Q is the resonance quality factor (dimensionless); higher Q means
	// a narrower, sharper peak.
	Q float64
	// FRes is the nominal PDN resonance frequency in Hz. Each
	// manufactured rail deviates a few percent from it.
	FRes float64
	// FResSpread is the relative per-rail resonance variation (e.g.
	// 0.05 for +/-5%).
	FResSpread float64
}

// DefaultParams returns rail parameters representative of a server-class
// PDN at the low-voltage operating point: a 100 MHz resonance with Q ~ 3
// and a resonant impedance several times the static resistance.
func DefaultParams(vNominal float64) Params {
	return Params{
		VNominal:   vNominal,
		VMin:       0.300,
		VMax:       1.250,
		StepV:      0.005,
		RStatic:    0.0020,
		RRes:       0.0110,
		Q:          3.0,
		FRes:       100e6,
		FResSpread: 0.05,
	}
}

// Load summarizes the current demand on a rail over one control tick.
type Load struct {
	// MeanCurrent is the average current draw, in amperes.
	MeanCurrent float64
	// OscAmplitude is the amplitude of the oscillating component of the
	// current, in amperes (zero for steady workloads).
	OscAmplitude float64
	// OscFreqHz is the dominant frequency of the oscillating component.
	OscFreqHz float64
}

// Add combines two load summaries (e.g. the two cores sharing a rail).
// Oscillation components at different frequencies don't cancel; the
// summary keeps the component with the larger resonant droop potential,
// which is what worst-case analysis needs.
func (l Load) Add(other Load, p Params) Load {
	sum := Load{MeanCurrent: l.MeanCurrent + other.MeanCurrent}
	// Keep the oscillation that produces more droop at this rail.
	zl := resonantImpedance(p, l.OscFreqHz) * l.OscAmplitude
	zo := resonantImpedance(p, other.OscFreqHz) * other.OscAmplitude
	if zl >= zo {
		sum.OscAmplitude, sum.OscFreqHz = l.OscAmplitude, l.OscFreqHz
	} else {
		sum.OscAmplitude, sum.OscFreqHz = other.OscAmplitude, other.OscFreqHz
	}
	return sum
}

// Rail is one independently regulated supply line.
type Rail struct {
	name    string
	p       Params
	fRes    float64
	target  float64
	disturb float64
}

// NewRail constructs a rail. The chip seed and rail id determine the
// rail's individual resonance frequency.
func NewRail(name string, seed uint64, id int, p Params) *Rail {
	jitter := 1 + p.FResSpread*(2*rng.UniformAt(seed, 0x9D11, uint64(id))-1)
	return &Rail{
		name:   name,
		p:      p,
		fRes:   p.FRes * jitter,
		target: clamp(p.VNominal, p.VMin, p.VMax),
	}
}

// Name returns the rail's label.
func (r *Rail) Name() string { return r.name }

// Params returns the rail's configuration.
func (r *Rail) Params() Params { return r.p }

// Resonance returns this rail's individual resonance frequency in Hz.
func (r *Rail) Resonance() float64 { return r.fRes }

// Target returns the current regulator setpoint in volts.
func (r *Rail) Target() float64 { return r.target }

// SetTarget moves the setpoint to v, snapped to the step grid and clamped
// to [VMin, VMax]. It returns the setpoint actually applied.
func (r *Rail) SetTarget(v float64) float64 {
	v = math.Round(v/r.p.StepV) * r.p.StepV
	v = clamp(v, r.p.VMin, r.p.VMax)
	r.target = v
	return r.target
}

// StepDown lowers the setpoint by n regulator steps.
func (r *Rail) StepDown(n int) float64 {
	return r.SetTarget(r.target - float64(n)*r.p.StepV)
}

// StepUp raises the setpoint by n regulator steps.
func (r *Rail) StepUp(n int) float64 {
	return r.SetTarget(r.target + float64(n)*r.p.StepV)
}

// resonantImpedance evaluates the band-pass RLC impedance magnitude at
// frequency f: RRes at resonance, rolling off with the classic
// Q*(f/f0 - f0/f) detuning term on either side.
func resonantImpedance(p Params, f float64) float64 {
	if f <= 0 {
		return 0
	}
	return impedanceAt(p.RRes, p.Q, p.FRes, f)
}

func impedanceAt(rres, q, f0, f float64) float64 {
	x := q * (f/f0 - f0/f)
	return rres / math.Sqrt(1+x*x)
}

// Impedance returns this rail's resonant impedance magnitude at f, using
// the rail's individual resonance frequency.
func (r *Rail) Impedance(f float64) float64 {
	if f <= 0 {
		return 0
	}
	return impedanceAt(r.p.RRes, r.p.Q, r.fRes, f)
}

// SetDisturbance injects an external droop d (in volts) on top of the
// load-driven droop: a regulator transient, a board-level event —
// anything the PDN model itself doesn't produce. Zero clears it; a
// negative value models overshoot. Fault injection
// (internal/faultinject) drives this.
func (r *Rail) SetDisturbance(d float64) {
	r.disturb = d
}

// Disturbance returns the currently injected external droop in volts.
func (r *Rail) Disturbance() float64 { return r.disturb }

// Droop returns the worst-case supply droop for the given load, in volts:
// static IR drop plus the resonant response to the load's oscillation,
// plus any injected external disturbance.
func (r *Rail) Droop(l Load) float64 {
	d := r.p.RStatic*l.MeanCurrent + r.disturb
	if l.OscAmplitude > 0 && l.OscFreqHz > 0 {
		d += r.Impedance(l.OscFreqHz) * l.OscAmplitude
	}
	return d
}

// Effective returns the worst-case effective voltage at the load points
// for this tick: setpoint minus droop.
func (r *Rail) Effective(l Load) float64 {
	return r.target - r.Droop(l)
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
