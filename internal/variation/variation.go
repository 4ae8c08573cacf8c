// Package variation models manufacturing process variation and its effect
// on the minimum reliable operating voltage of on-chip memory cells.
//
// The paper's entire mechanism rests on three empirical properties of a
// real low-voltage processor (MICRO 2014, §II):
//
//  1. Caches fail first. SRAM caches use the smallest transistors and are
//     the most sensitive structures; they determine Vccmin. At low voltage
//     only the L2 instruction/data caches report correctable errors, while
//     L1 (larger, more robust cells) and the register file stay clean.
//  2. Failures are deterministic. The same cache lines report correctable
//     errors run after run at the same voltage, because their cells sit in
//     the tail of the process-variation distribution.
//  3. Margins widen at low voltage. The voltage range between the first
//     correctable error and the crash point is ~4x wider at low Vdd, and
//     core-to-core Vmin variation is ~4x larger, because circuit delay
//     becomes far more voltage-sensitive near threshold.
//
// This package encodes those properties as a per-bit critical voltage:
//
//	Vcrit(bit) = mu(kind) + sys(core) + sys(core, kind) + sigma(kind)*N(bit)
//
// where every random term is a pure function of the chip seed and the
// bit's coordinates (see internal/rng), so a chip's weak-cell map is fixed
// at "manufacturing" time. A read at effective voltage V flips the bit
// with probability sigmoid((Vcrit-V)/w): comfortably above Vcrit reads are
// clean, near Vcrit they fail occasionally (the correctable-error regime
// the speculation system lives in), and far below they fail always.
package variation

import (
	"fmt"
	"math"

	"eccspec/internal/rng"
)

// Kind identifies a class of on-chip storage structure. Cell geometry (and
// therefore low-voltage robustness) differs by class: L2 caches use the
// densest, weakest cells; L1 and L3 use larger, more robust designs; the
// register file sits in between; Logic stands for non-SRAM core circuitry
// whose failure is a hard crash with no ECC warning.
type Kind int

const (
	KindL1I Kind = iota
	KindL1D
	KindL2I
	KindL2D
	KindL3
	KindRegFile
	KindLogic
	numKinds
)

// String returns the conventional short name of the structure class.
func (k Kind) String() string {
	switch k {
	case KindL1I:
		return "L1I"
	case KindL1D:
		return "L1D"
	case KindL2I:
		return "L2I"
	case KindL2D:
		return "L2D"
	case KindL3:
		return "L3"
	case KindRegFile:
		return "RegFile"
	case KindLogic:
		return "Logic"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// KindParams holds the Vcrit distribution for one structure class at one
// operating point.
type KindParams struct {
	// Mu is the mean critical voltage of the class's cells, in volts.
	Mu float64
	// SigmaRandom is the per-cell random variation (dopant fluctuation
	// etc.), in volts.
	SigmaRandom float64
	// SigmaStruct is the per-(core, structure) systematic offset sigma,
	// in volts. It models within-die spatial correlation: cells in the
	// same array share part of their fate.
	SigmaStruct float64
}

// Params holds the full variation model configuration for one operating
// point (one frequency/nominal-voltage pair).
type Params struct {
	// Name labels the operating point ("high-2.53GHz", "low-340MHz").
	Name string
	// FrequencyHz is the clock the chip runs at this point.
	FrequencyHz float64
	// NominalVdd is the rated supply at this point, in volts.
	NominalVdd float64
	// Kinds maps each structure class to its Vcrit distribution.
	Kinds [numKinds]KindParams
	// SigmaCore is the per-core systematic variation shared by all
	// structures on the core, in volts.
	SigmaCore float64
	// LogicVminMu / LogicVminSigma describe the per-core hard crash
	// floor for non-SRAM logic, in volts.
	LogicVminMu    float64
	LogicVminSigma float64
	// WidthMin / WidthMax bound the per-cell sigmoid width w (volts).
	// The flip probability of a cell ramps from ~1% to ~99% over about
	// 9*w, so a few millivolts here yields the 20-50 mV per-line ramps
	// of Fig. 13.
	WidthMin float64
	WidthMax float64
	// TempCoeff shifts Vcrit per kelvin above the 40C reference
	// (volts/K). The paper found no measurable effect for +/-20C, so
	// this is small relative to the 5 mV control step.
	TempCoeff float64
	// AgingCoeff scales the NBTI-like Vcrit drift: a cell aged h hours
	// gains AgingCoeff * cellFactor * h^0.2 volts, where cellFactor is
	// a per-cell uniform in [0,1). Weak lines can therefore be
	// overtaken by faster-aging lines, which is why the paper
	// recalibrates periodically (§III-D).
	AgingCoeff float64
}

// HighVoltage returns the model parameters for the nominal operating
// point: 2.53 GHz at 1.1 V, matching the Itanium 9560's rated point.
//
// The constants are chosen so that emergent behaviour matches the paper's
// measurements: the first correctable error appears ~100 mV below nominal
// (the measured guardband), the minimum safe Vdd averages a bit more than
// 10% below nominal, and the correctable-error voltage range is narrow
// (a few tens of millivolts).
func HighVoltage() Params {
	p := Params{
		Name:           "high-2.53GHz",
		FrequencyHz:    2.53e9,
		NominalVdd:     1.100,
		SigmaCore:      0.005,
		LogicVminMu:    0.945,
		LogicVminSigma: 0.006,
		WidthMin:       0.002,
		WidthMax:       0.007,
		TempCoeff:      0.00010,
		AgingCoeff:     0.004,
	}
	p.Kinds[KindL1I] = KindParams{Mu: 0.820, SigmaRandom: 0.010, SigmaStruct: 0.003}
	p.Kinds[KindL1D] = KindParams{Mu: 0.820, SigmaRandom: 0.010, SigmaStruct: 0.003}
	p.Kinds[KindL2I] = KindParams{Mu: 0.880, SigmaRandom: 0.017, SigmaStruct: 0.004}
	p.Kinds[KindL2D] = KindParams{Mu: 0.880, SigmaRandom: 0.017, SigmaStruct: 0.004}
	p.Kinds[KindL3] = KindParams{Mu: 0.820, SigmaRandom: 0.010, SigmaStruct: 0.003}
	p.Kinds[KindRegFile] = KindParams{Mu: 0.910, SigmaRandom: 0.013, SigmaStruct: 0.004}
	p.Kinds[KindLogic] = KindParams{Mu: 0.900, SigmaRandom: 0.008, SigmaStruct: 0.003}
	return p
}

// LowVoltage returns the model parameters for the low-voltage operating
// point: 340 MHz at 800 mV. The 800 mV nominal is how the paper derived
// it: the voltage of the first correctable error at 340 MHz plus the same
// 100 mV guardband measured at the high point.
//
// Relative to HighVoltage, mean critical voltages drop (relaxed timing)
// while both random and systematic spreads grow ~2-4x (delay sensitivity
// amplification near threshold), which produces the 4x wider
// correctable-error range and 4x larger core-to-core Vmin variation the
// paper reports.
func LowVoltage() Params {
	p := Params{
		Name:           "low-340MHz",
		FrequencyHz:    340e6,
		NominalVdd:     0.800,
		SigmaCore:      0.028,
		LogicVminMu:    0.565,
		LogicVminSigma: 0.010,
		WidthMin:       0.006,
		WidthMax:       0.014,
		TempCoeff:      0.00010,
		AgingCoeff:     0.004,
	}
	p.Kinds[KindL1I] = KindParams{Mu: 0.310, SigmaRandom: 0.018, SigmaStruct: 0.006}
	p.Kinds[KindL1D] = KindParams{Mu: 0.310, SigmaRandom: 0.018, SigmaStruct: 0.006}
	p.Kinds[KindL2I] = KindParams{Mu: 0.377, SigmaRandom: 0.050, SigmaStruct: 0.008}
	p.Kinds[KindL2D] = KindParams{Mu: 0.377, SigmaRandom: 0.050, SigmaStruct: 0.008}
	p.Kinds[KindL3] = KindParams{Mu: 0.440, SigmaRandom: 0.022, SigmaStruct: 0.006}
	p.Kinds[KindRegFile] = KindParams{Mu: 0.340, SigmaRandom: 0.015, SigmaStruct: 0.006}
	p.Kinds[KindLogic] = KindParams{Mu: 0.520, SigmaRandom: 0.012, SigmaStruct: 0.005}
	return p
}

// Domain-separation tags for the hash keys below, so draws for different
// quantities never collide even with coincident coordinates.
const (
	tagCoreSys = iota + 0x100
	tagStructSys
	tagCellRandom
	tagCellWidth
	tagLogicVmin
	tagCellAging
)

// Model evaluates the variation model for one chip (one seed) at one
// operating point. Model is immutable and safe for concurrent use.
type Model struct {
	Seed uint64
	P    Params
}

// New returns a Model for the given chip seed and operating point.
func New(seed uint64, p Params) *Model {
	return &Model{Seed: seed, P: p}
}

// CoreSystematic returns the core-wide systematic Vcrit offset, in volts.
// It is deliberately independent of the operating point's name so that a
// chip's "fast" and "slow" cores keep their identity across operating
// points; only the magnitude (SigmaCore) changes.
func (m *Model) CoreSystematic(core int) float64 {
	return m.P.SigmaCore * rng.NormalAt(m.Seed, tagCoreSys, uint64(core))
}

// structSystematic returns the per-(core, structure) systematic offset.
func (m *Model) structSystematic(core int, kind Kind) float64 {
	kp := m.P.Kinds[kind]
	return kp.SigmaStruct * rng.NormalAt(m.Seed, tagStructSys, uint64(core), uint64(kind))
}

// Systematic returns the total systematic Vcrit offset shared by every
// cell of one structure: the core-wide component plus the per-structure
// component. Callers scanning many cells should hoist this out of the
// per-cell loop.
func (m *Model) Systematic(core int, kind Kind) float64 {
	return m.CoreSystematic(core) + m.structSystematic(core, kind)
}

// CellRandom returns the purely random (per-cell) component of a cell's
// critical voltage, in volts: SigmaRandom times an independent standard
// normal deviate keyed by the cell's coordinates. It uses the single-hash
// inverse-CDF sampler because array characterization evaluates millions
// of cells.
func (m *Model) CellRandom(core int, kind Kind, set, way, bit int) float64 {
	kp := m.P.Kinds[kind]
	return kp.SigmaRandom * rng.NormalInvAt(m.Seed, tagCellRandom, uint64(core),
		uint64(kind), uint64(set), uint64(way), uint64(bit))
}

// LineDraws holds the hash prefixes behind one line's per-cell draws.
// CellRandom and CellWidth key every cell by (core, kind, set, way,
// bit), so all of a line's cells share the first keys; with the prefix
// cached, a scan over the line's cells pays one rng.Extend per draw
// instead of a full seven-key Hash. Each method takes the bit's
// rng.KeyMix and returns exactly what the per-cell method would.
type LineDraws struct {
	random, width uint64
	sigma         float64
	wMin, wMax    float64
}

// LineDraws returns the draw prefixes of line (set, way) of a
// structure; coordinates are as for CellVcrit.
func (m *Model) LineDraws(core int, kind Kind, set, way int) LineDraws {
	c, k, s, w := uint64(core), uint64(kind), uint64(set), uint64(way)
	return LineDraws{
		random: rng.Hash(m.Seed, tagCellRandom, c, k, s, w),
		width:  rng.Hash(m.Seed, tagCellWidth, c, k, s, w),
		sigma:  m.P.Kinds[kind].SigmaRandom,
		wMin:   m.P.WidthMin,
		wMax:   m.P.WidthMax,
	}
}

// RandomHash returns the hash CellRandom draws for the bit with key mix
// bitMix. Its top 53 bits order the cells' random components, up to
// the float noise of rng.NormalInv.
func (d *LineDraws) RandomHash(bitMix uint64) uint64 { return rng.Extend(d.random, bitMix) }

// Random converts a RandomHash to the cell's CellRandom value.
func (d *LineDraws) Random(h uint64) float64 { return d.sigma * rng.NormalInv(h) }

// Width returns CellWidth for the bit with key mix bitMix.
func (d *LineDraws) Width(bitMix uint64) float64 {
	u := rng.Uniform(rng.Extend(d.width, bitMix))
	return d.wMin + u*(d.wMax-d.wMin)
}

// CellVcrit returns the critical voltage of one bit cell, in volts,
// before aging and temperature adjustments. Coordinates are
// (core, kind, set, way, bit); for core-external structures (L3) pass the
// structure's fixed id as core. CellVcrit is the convenience composition
// of Mu + Systematic + CellRandom; hot loops should use the parts.
func (m *Model) CellVcrit(core int, kind Kind, set, way, bit int) float64 {
	return m.P.Kinds[kind].Mu + m.Systematic(core, kind) +
		m.CellRandom(core, kind, set, way, bit)
}

// CellWidth returns the flip-probability sigmoid width w of one bit cell,
// in volts, drawn uniformly in [WidthMin, WidthMax].
func (m *Model) CellWidth(core int, kind Kind, set, way, bit int) float64 {
	u := rng.UniformAt(m.Seed, tagCellWidth, uint64(core), uint64(kind),
		uint64(set), uint64(way), uint64(bit))
	return m.P.WidthMin + u*(m.P.WidthMax-m.P.WidthMin)
}

// LogicVmin returns the hard crash floor of a core's non-SRAM logic, in
// volts. Below this voltage the core fails without any ECC warning; in a
// healthy configuration the L2 caches' uncorrectable point sits above it,
// which is exactly why ECC feedback works as an early-warning signal.
func (m *Model) LogicVmin(core int) float64 {
	z := rng.NormalAt(m.Seed, tagLogicVmin, uint64(core))
	return m.P.LogicVminMu + m.CoreSystematic(core) + m.P.LogicVminSigma*z
}

// AgingShift returns the upward Vcrit drift of a cell after ageHours of
// operation, in volts. The drift follows the classic NBTI power law
// (~t^0.2) with a per-cell random coefficient, so the identity of the
// weakest line in a domain can change over the chip's lifetime.
func (m *Model) AgingShift(core int, kind Kind, set, way, bit int, ageHours float64) float64 {
	if ageHours <= 0 || m.P.AgingCoeff == 0 {
		return 0
	}
	u := rng.UniformAt(m.Seed, tagCellAging, uint64(core), uint64(kind),
		uint64(set), uint64(way), uint64(bit))
	return m.P.AgingCoeff * u * math.Pow(ageHours, 0.2)
}

// TempShift returns the Vcrit adjustment for operating temperature tempC,
// in volts, relative to the 40C reference.
func (m *Model) TempShift(tempC float64) float64 {
	return m.P.TempCoeff * (tempC - 40.0)
}

// FlipProbability returns the probability that a cell with critical
// voltage vcrit and ramp width w flips when read at effective voltage v:
// the normal CDF of the voltage deficit — ~0 well above vcrit, 0.5 at
// vcrit, ~1 well below, ramping over roughly 5w.
//
// Gaussian (rather than logistic) tails matter: a structure whose cells
// sit tens of millivolts below the operating range must contribute
// *nothing* even across billions of accesses, which is how the paper's
// L1 caches and (at low voltage) register files stay silent while the L2
// caches chirp.
func FlipProbability(vcrit, w, v float64) float64 {
	if w <= 0 {
		if v < vcrit {
			return 1
		}
		return 0
	}
	x := (vcrit - v) / w
	if x > 8 {
		return 1
	}
	if x < -8 {
		return 0
	}
	return 0.5 * (1 + math.Erf(x/math.Sqrt2))
}
