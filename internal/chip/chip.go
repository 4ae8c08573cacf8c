// Package chip assembles the simulated chip multiprocessor: cores with
// private cache hierarchies, voltage domains shared by core pairs, a
// shared L3 on its own uncore rail, per-core register files, workload
// execution, power accounting, and crash detection.
//
// The geometry follows the paper's evaluation platform (Table I): an
// Intel Itanium 9560 with eight in-order cores, 16 KB L1s, 512 KB L2I,
// 256 KB L2D, a 32 MB shared L3, and independent supply lines for each
// core pair plus the uncore.
//
// Simulation advances in fixed control ticks (default 1 ms). Each tick:
//
//  1. every live core's workload produces a demand (activity, cache
//     traffic, oscillation);
//  2. each voltage domain converts its cores' demands to a PDN load and
//     computes the tick's worst-case effective voltage;
//  3. each core's workload traffic is converted to ECC events by
//     sampling its resident weak cache lines at the effective voltage —
//     the statistical counterpart of executing billions of accesses;
//  4. cores die if the effective voltage falls below their logic floor
//     or any read suffers an uncorrectable error;
//  5. power and useful work are integrated.
//
// The hardware ECC monitor and the voltage controller (internal/monitor,
// internal/control) run *between* ticks, exactly like the paper's service
// processor reading monitor counters and nudging rails.
package chip

import (
	"fmt"
	"math"
	"sort"

	"eccspec/internal/cache"
	"eccspec/internal/kernel"
	"eccspec/internal/mca"
	"eccspec/internal/pdn"
	"eccspec/internal/power"
	"eccspec/internal/rng"
	"eccspec/internal/sram"
	"eccspec/internal/variation"
	"eccspec/internal/workload"
)

// Params configures a chip.
type Params struct {
	// Seed fixes the chip's manufacturing outcome.
	Seed uint64
	// NumCores is the core count (Table I: 8).
	NumCores int
	// CoresPerRail is how many cores share one supply line (Table I: 2).
	CoresPerRail int
	// Point is the operating point's variation parameters.
	Point variation.Params
	// Hier is the cache geometry.
	Hier cache.HierarchyConfig
	// Rail configures the per-domain supply lines.
	Rail pdn.Params
	// CorePower and UncorePower are the power-model constants.
	CorePower   power.CoreParams
	UncorePower power.CoreParams
	// TickSeconds is the control tick length.
	TickSeconds float64
	// AmbientC is the enclosure ambient temperature.
	AmbientC float64
	// ThermalResistance (K/W) and ThermalTau (seconds) form each
	// core's first-order thermal model: steady-state temperature is
	// ambient + R*power, approached with time constant tau. Hotter
	// cores leak more and their cells weaken slightly, closing the
	// loop the other way: lower voltage -> less power -> cooler.
	ThermalResistance float64
	ThermalTau        float64
	// RegFileLines sizes the per-core register file array (Table I:
	// ~0.6 KB total, i.e. a handful of 64-byte rows).
	RegFileLines int
	// UncoreVminMu / UncoreVminSigma describe the uncore's hard floor
	// (memory controllers, interconnect): the analogue of the cores'
	// logic floor, used by the uncore-speculation extension.
	UncoreVminMu    float64
	UncoreVminSigma float64
	// RegFileAccessRate is the effective per-line rate (per second) at
	// which register-file reads can *report* ECC events. Architectural
	// register reads happen every cycle, but machine-check reporting of
	// corrected errors is rate-limited in real hardware; this constant
	// folds both into one observable-event rate.
	RegFileAccessRate float64
	// FatalRateFactor scales the access rate used when sampling
	// uncorrectable (machine-check) faults relative to the reportable
	// rate: double-bit faults bypass log throttling (more exposure)
	// but codeword interleaving and scrubbing suppress pair
	// alignments (less exposure).
	FatalRateFactor float64
	// RazorWindowV, when positive, puts the chip in Razor mode
	// (related work, §VI): timing faults in logic and caches are
	// detected by shadow latches and replayed instead of crashing the
	// core, down to a metastability wall RazorWindowV below the
	// normal logic floor. Replay demand is reported per tick via
	// CoreReport.ReplayRate; a Razor controller converts it to a
	// pipeline overhead.
	RazorWindowV float64
	// TrueEventFactor is the ratio of true corrected-error events to
	// *reported* (logged) events. Workload profiles carry reportable
	// L2 access rates — the raw access stream is ~1000x denser, but
	// corrected-error signalling is throttled. Reported counts drive
	// logging and policy triggers; the true rate drives the firmware
	// baseline's per-error handling overhead, where every event traps.
	TrueEventFactor float64
}

// DefaultParams returns the standard configuration for the given chip
// seed: the low-voltage operating point (340 MHz / 800 mV) with scaled
// cache geometry. Pass full=true for the full Table I geometry and
// low=false for the nominal 2.53 GHz / 1.1 V point.
func DefaultParams(seed uint64, low, full bool) Params {
	point := variation.LowVoltage()
	if !low {
		point = variation.HighVoltage()
	}
	hier := cache.ScaledConfig()
	if full {
		hier = cache.ItaniumConfig()
	}
	rail := pdn.DefaultParams(point.NominalVdd)
	// Place the PDN resonance where the paper's NOP-8 voltage virus
	// oscillates: clock / (8 FMAs + 8 NOPs).
	rail.FRes = point.FrequencyHz / float64(workload.VirusFMACount+8)
	corePower, uncorePower := power.DefaultCoreParams(), power.UncoreParams()
	uncoreVmin, uncoreVminSigma := 0.500, 0.008
	if !low {
		corePower, uncorePower = power.HighVoltageCoreParams(), power.HighVoltageUncoreParams()
		uncoreVmin, uncoreVminSigma = 0.920, 0.006
	}
	return Params{
		Seed:              seed,
		NumCores:          8,
		CoresPerRail:      2,
		Point:             point,
		Hier:              hier,
		Rail:              rail,
		CorePower:         corePower,
		UncorePower:       uncorePower,
		UncoreVminMu:      uncoreVmin,
		UncoreVminSigma:   uncoreVminSigma,
		TickSeconds:       1e-3,
		AmbientC:          45,
		ThermalResistance: 3.0,
		ThermalTau:        2.0,
		RegFileLines:      10,
		RegFileAccessRate: 100,
		FatalRateFactor:   10,
		TrueEventFactor:   1000,
	}
}

// DefaultParamsAt returns the standard configuration for an intermediate
// operating frequency between the paper's two characterized points,
// interpolating the variation model, rated voltage and power constants
// (the §II-A "production low-voltage system" range of 500 MHz - 1 GHz
// sits inside it).
func DefaultParamsAt(seed uint64, freqHz float64, full bool) Params {
	p := DefaultParams(seed, true, full)
	point := variation.PointAt(freqHz)
	t := math.Log(freqHz/variation.LowVoltage().FrequencyHz) /
		math.Log(variation.HighVoltage().FrequencyHz/variation.LowVoltage().FrequencyHz)
	p.Point = point
	p.Rail = pdn.DefaultParams(point.NominalVdd)
	p.Rail.FRes = point.FrequencyHz / float64(workload.VirusFMACount+8)
	p.CorePower = power.InterpolateCoreParams(power.DefaultCoreParams(), power.HighVoltageCoreParams(), t)
	p.UncorePower = power.InterpolateCoreParams(power.UncoreParams(), power.HighVoltageUncoreParams(), t)
	return p
}

// SensLine is one voltage-sensitive cache line on a core.
type SensLine struct {
	Set, Way int
	Profile  *sram.Profile
}

// Core is one processor core.
type Core struct {
	ID   int
	Hier *cache.Hierarchy
	// RegFile is the core's register file array; vulnerable only at the
	// high-voltage operating point.
	RegFile *sram.Array

	wl        *workload.Workload
	alive     bool
	fatal     string
	logicVmin float64
	tempC     float64
	meter     power.Meter
	work      float64
	overhead  float64
	lastEff   float64
	lastAct   float64

	sens map[variation.Kind][]SensLine
	kern map[variation.Kind]*kernel.Table
	// sampled holds the L2D and L2I tables the last Step sampled (nil
	// where it sampled none), which TrueCorrected replays.
	sampled [2]*kernel.Table
}

// Domain is one voltage domain: a supply rail shared by a set of cores.
type Domain struct {
	ID      int
	Rail    *pdn.Rail
	CoreIDs []int
	lastEff float64
}

// LastEffective returns the domain's effective voltage from the most
// recent tick (the setpoint before any tick has run).
func (d *Domain) LastEffective() float64 { return d.lastEff }

// CoreReport is one core's tick outcome.
type CoreReport struct {
	CoreID int
	// Effective is the tick's effective voltage at the core.
	Effective float64
	// CorrectedD / CorrectedI / CorrectedRF count workload-induced
	// correctable errors in the L2 data cache, L2 instruction cache and
	// register file, as *reported* by the throttled logging path.
	CorrectedD, CorrectedI, CorrectedRF int
	// ReplayRate is the expected number of Razor replays this tick
	// (only populated in Razor mode): every detected timing fault in
	// logic or cache costs a pipeline replay.
	ReplayRate float64
	// Fatal is set when the core died this tick; FatalCause says why
	// ("logic" or "uncorrectable").
	Fatal      bool
	FatalCause string
	// PowerW is the core's power draw this tick.
	PowerW float64
	// TempC is the core's temperature at the end of the tick.
	TempC float64
}

// TickReport aggregates one Step.
type TickReport struct {
	Time  float64
	Cores []CoreReport
}

// Chip is the simulated CMP.
type Chip struct {
	P       Params
	Model   *variation.Model
	Cores   []*Core
	Domains []*Domain
	L3      *cache.Cache
	// UncoreRail supplies the L3 and memory controllers; the
	// speculation system leaves it at nominal.
	UncoreRail  *pdn.Rail
	uncoreMeter power.Meter
	// MCA is the corrected-error log: workload-induced ECC events are
	// reported here through per-bank throttling, mirroring the
	// firmware logging hooks of §IV-A4.
	MCA *mca.Log

	time        float64
	ticks       int
	stream      *rng.Stream
	uncoreVmin  float64
	uncoreDead  bool
	uncoreEff   float64
	lastUncoreW float64

	// Per-tick scratch reused across Steps so the steady-state loop
	// allocates nothing.
	repCores []CoreReport
	demands  []workload.Demand
}

// New builds a chip from params.
func New(p Params) *Chip {
	if p.NumCores <= 0 || p.CoresPerRail <= 0 || p.NumCores%p.CoresPerRail != 0 {
		panic("chip: invalid core/rail configuration")
	}
	m := variation.New(p.Seed, p.Point)
	c := &Chip{
		P:      p,
		Model:  m,
		L3:     cache.New(p.Hier.L3, -1, m),
		MCA:    mca.NewLog(mca.DefaultConfig()),
		stream: rng.NewStream(p.Seed, 0xC819),
	}
	c.UncoreRail = pdn.NewRail("uncore", p.Seed, 1000, p.Rail)
	c.uncoreVmin = p.UncoreVminMu + p.UncoreVminSigma*rng.NormalAt(p.Seed, 0x07C0)
	c.uncoreEff = c.UncoreRail.Target()
	for i := 0; i < p.NumCores; i++ {
		core := &Core{
			ID:        i,
			Hier:      cache.NewHierarchy(p.Hier, i, m, c.L3),
			RegFile:   sram.NewArray(m, i, variation.KindRegFile, p.RegFileLines, 1),
			alive:     true,
			logicVmin: m.LogicVmin(i),
			tempC:     p.AmbientC,
			lastEff:   p.Point.NominalVdd,
			sens:      make(map[variation.Kind][]SensLine),
			kern:      make(map[variation.Kind]*kernel.Table),
		}
		core.RegFile.SetTemperature(p.AmbientC)
		core.Hier.L2D.Array().SetTemperature(p.AmbientC)
		core.Hier.L2I.Array().SetTemperature(p.AmbientC)
		c.Cores = append(c.Cores, core)
	}
	for d := 0; d < p.NumCores/p.CoresPerRail; d++ {
		dom := &Domain{
			ID:   d,
			Rail: pdn.NewRail(fmt.Sprintf("dom%d", d), p.Seed, d, p.Rail),
		}
		for k := 0; k < p.CoresPerRail; k++ {
			dom.CoreIDs = append(dom.CoreIDs, d*p.CoresPerRail+k)
		}
		dom.lastEff = dom.Rail.Target()
		c.Domains = append(c.Domains, dom)
	}
	return c
}

// Time returns the accumulated simulated time in seconds.
//
// Time is kept as its own float accumulator (time += TickSeconds each
// Step) rather than derived as Ticks()*TickSeconds: the accumulated sum
// differs from the product in the last ulp from the tenth tick on, and
// recorded telemetry timestamps are full-precision, so switching the
// derivation would silently change every trace ever compared against.
// The integer counter is authoritative for Ticks(); the accumulator is
// authoritative for Time().
func (c *Chip) Time() float64 { return c.time }

// Ticks returns the number of control ticks executed since construction
// (or since the tick count restored by RestoreState).
func (c *Chip) Ticks() int { return c.ticks }

// DomainOf returns the voltage domain containing the core.
func (c *Chip) DomainOf(coreID int) *Domain {
	return c.Domains[coreID/c.P.CoresPerRail]
}

// Core accessors -------------------------------------------------------

// SetWorkload assigns a workload profile to the core (nil profile name
// semantics are not supported; use workload.Idle() to park a core).
func (co *Core) SetWorkload(p workload.Profile, seed uint64) {
	co.wl = workload.New(p, rng.Hash(seed, uint64(co.ID)))
}

// Workload returns the running workload (nil if none assigned).
func (co *Core) Workload() *workload.Workload { return co.wl }

// Alive reports whether the core is still functioning.
func (co *Core) Alive() bool { return co.alive }

// FatalCause returns why the core died ("" while alive).
func (co *Core) FatalCause() string { return co.fatal }

// Revive restores a crashed core to service (experiments use this
// between sweep steps; real hardware would reboot).
func (co *Core) Revive() {
	co.alive = true
	co.fatal = ""
}

// LogicVmin returns the core's non-SRAM crash floor.
func (co *Core) LogicVmin() float64 { return co.logicVmin }

// LastEffective returns the effective voltage the core saw last tick.
func (co *Core) LastEffective() float64 { return co.lastEff }

// LastActivity returns the workload activity factor from the last tick.
func (co *Core) LastActivity() float64 { return co.lastAct }

// Temperature returns the core's current temperature in Celsius.
func (co *Core) Temperature() float64 { return co.tempC }

// Energy returns the core's accumulated energy in joules.
func (co *Core) Energy() float64 { return co.meter.Energy() }

// AveragePower returns the core's mean power so far.
func (co *Core) AveragePower() float64 { return co.meter.AveragePower() }

// Work returns the core's accumulated useful work (instructions).
func (co *Core) Work() float64 { return co.work }

// ResetAccounting clears the core's energy and work accumulators.
func (co *Core) ResetAccounting() {
	co.meter.Reset()
	co.work = 0
}

// SetOverheadFraction sets the fraction of the next ticks' cycles lost
// to firmware error handling (software-speculation baseline). Clamped to
// [0, 1].
func (co *Core) SetOverheadFraction(f float64) {
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	co.overhead = f
}

// SensitiveLines returns the core's voltage-sensitive lines in the given
// structure: every line whose weakest cell sits above the chip's
// relevance floor (anything weaker can never produce an error above the
// crash region). The first call scans the whole array and caches.
func (co *Core) SensitiveLines(kind variation.Kind, floor float64) []SensLine {
	if ls, ok := co.sens[kind]; ok {
		return ls
	}
	arr := co.arrayOf(kind)
	var out []SensLine
	for s := 0; s < arr.Sets; s++ {
		for w := 0; w < arr.Ways; w++ {
			p := arr.LineProfile(s, w)
			if p.Vmax() >= floor {
				out = append(out, SensLine{Set: s, Way: w, Profile: p})
			}
		}
	}
	// Sorted by descending onset voltage so per-tick sampling can stop
	// at the first line too strong to matter at the current voltage.
	sort.Slice(out, func(i, j int) bool {
		return out[i].Profile.Vmax() > out[j].Profile.Vmax()
	})
	co.sens[kind] = out
	return out
}

// InvalidateSensitivity drops cached sensitive-line lists and their
// batch-kernel tables (call after aging changes).
func (co *Core) InvalidateSensitivity() {
	co.sens = make(map[variation.Kind][]SensLine)
	co.kern = make(map[variation.Kind]*kernel.Table)
}

// kernelTable returns the core's batch-kernel table for the structure,
// building it from the sensitive-line list on first use. Cached beside
// the sensitive-line cache and invalidated with it.
func (co *Core) kernelTable(kind variation.Kind, floor float64) *kernel.Table {
	if t, ok := co.kern[kind]; ok {
		return t
	}
	sens := co.SensitiveLines(kind, floor)
	lines := make([]kernel.Line, len(sens))
	for i, sl := range sens {
		lines[i] = kernel.Line{Set: sl.Set, Way: sl.Way, Profile: sl.Profile}
	}
	t := kernel.Build(co.arrayOf(kind), kind, lines)
	co.kern[kind] = t
	return t
}

// Characterize builds, for every core, the weak-cell profiles, batch-
// kernel tables and workload footprints of the structures Step samples
// (L2D, L2I and the register file), which a first Step would otherwise
// build. Call it once workloads are assigned, so a specimen's whole
// characterization is charged to its build; the L1s and the L3, which
// only experiments read, stay lazy. Cached work is not redone.
func (c *Chip) Characterize() {
	floor := c.SensitivityFloor()
	for _, co := range c.Cores {
		for _, kind := range [...]variation.Kind{variation.KindL2D, variation.KindL2I} {
			t := co.kernelTable(kind, floor)
			if co.wl != nil {
				t.EnsureFootprint(co.wl)
			}
		}
		co.kernelTable(variation.KindRegFile, floor)
	}
}

// arrayOf maps a structure kind to the core's SRAM array.
func (co *Core) arrayOf(kind variation.Kind) *sram.Array {
	switch kind {
	case variation.KindL2D:
		return co.Hier.L2D.Array()
	case variation.KindL2I:
		return co.Hier.L2I.Array()
	case variation.KindL1D:
		return co.Hier.L1D.Array()
	case variation.KindL1I:
		return co.Hier.L1I.Array()
	case variation.KindRegFile:
		return co.RegFile
	default:
		panic("chip: no array for kind " + kind.String())
	}
}

// CacheOf maps a structure kind to the core's cache (register file and
// logic have no cache).
func (co *Core) CacheOf(kind variation.Kind) *cache.Cache {
	switch kind {
	case variation.KindL2D:
		return co.Hier.L2D
	case variation.KindL2I:
		return co.Hier.L2I
	case variation.KindL1D:
		return co.Hier.L1D
	case variation.KindL1I:
		return co.Hier.L1I
	default:
		panic("chip: no cache for kind " + kind.String())
	}
}

// SensitivityFloor returns the voltage below which additional weak lines
// are irrelevant: a line whose weakest cell sits more than ~8 ramp widths
// under the lowest voltage any core can survive (the logic floor) has a
// flip probability of zero to double precision.
func (c *Chip) SensitivityFloor() float64 {
	return c.P.Point.LogicVminMu - 4*c.P.Point.LogicVminSigma - 8*c.P.Point.WidthMax
}

// Step advances the chip by one control tick. The returned report's
// Cores slice is scratch owned by the chip and is overwritten by the
// next Step; callers that need a report beyond the current tick must
// copy it.
func (c *Chip) Step() TickReport {
	dt := c.P.TickSeconds
	if c.repCores == nil {
		c.repCores = make([]CoreReport, len(c.Cores))
		c.demands = make([]workload.Demand, len(c.Cores))
	}
	for i := range c.repCores {
		c.repCores[i] = CoreReport{}
		c.demands[i] = workload.Demand{}
	}
	rep := TickReport{Time: c.time, Cores: c.repCores}

	// Phase 1: collect demands.
	demands := c.demands
	for i, co := range c.Cores {
		if co.alive && co.wl != nil {
			demands[i] = co.wl.Demand(dt)
		}
	}

	// Phase 2: per-domain effective voltage.
	f := c.P.Point.FrequencyHz
	for _, dom := range c.Domains {
		var load pdn.Load
		for _, id := range dom.CoreIDs {
			co := c.Cores[id]
			d := demands[id]
			v := dom.Rail.Target()
			mean := c.P.CorePower.Current(v, f, d.Activity, co.tempC)
			osc := c.P.CorePower.Current(v, f, d.OscAmplitude, co.tempC)
			load = load.Add(pdn.Load{
				MeanCurrent:  mean,
				OscAmplitude: osc,
				OscFreqHz:    d.OscFreqHz,
			}, dom.Rail.Params())
		}
		dom.lastEff = dom.Rail.Effective(load)
	}

	// Phase 3-5: per-core events, crashes, accounting.
	for i, co := range c.Cores {
		cr := &rep.Cores[i]
		cr.CoreID = co.ID
		dom := c.DomainOf(co.ID)
		veff := dom.lastEff
		co.lastEff = veff
		cr.Effective = veff
		co.sampled = [2]*kernel.Table{}
		if !co.alive {
			continue
		}
		d := demands[i]
		co.lastAct = d.Activity

		// Crash on the logic floor first: no ECC warning there. Razor
		// shadow latches convert logic timing faults into replays and
		// push the hard wall down to the metastability window.
		logicFloor := co.logicVmin - c.P.RazorWindowV
		if veff < logicFloor {
			co.alive = false
			co.fatal = "logic"
			cr.Fatal, cr.FatalCause = true, co.fatal
			continue
		}
		if c.P.RazorWindowV > 0 {
			cr.ReplayRate += c.logicFaultRate(co, veff) * dt
		}

		if co.wl != nil {
			cd, tD, fatalD := c.sampleWorkloadErrors(co, variation.KindL2D, d.L2DAccesses, veff)
			ci, tI, fatalI := c.sampleWorkloadErrors(co, variation.KindL2I, d.L2IAccesses, veff)
			co.sampled = [2]*kernel.Table{tD, tI}
			rfAccesses := c.P.RegFileAccessRate * dt
			crf, fatalRF := c.sampleRegFileErrors(co, rfAccesses, veff)
			cr.CorrectedD, cr.CorrectedI, cr.CorrectedRF = cd, ci, crf
			if fatalD || fatalI || fatalRF {
				if c.P.RazorWindowV > 0 {
					// Razor detects and replays what would have been
					// an uncorrectable fault.
					cr.ReplayRate++
				} else {
					co.alive = false
					co.fatal = "uncorrectable"
					cr.Fatal, cr.FatalCause = true, co.fatal
					continue
				}
			}
			if c.P.RazorWindowV > 0 {
				// Every corrected-class timing fault is a replay too.
				cr.ReplayRate += c.TrueCorrected(i)
			}
		}

		watts := c.P.CorePower.Total(veff, f, d.Activity, co.tempC)
		co.meter.Accumulate(watts, dt)
		cr.PowerW = watts
		co.work += d.IPC * f * dt * (1 - co.overhead)

		// First-order thermal update; the new temperature feeds the
		// next tick's leakage and the SRAM fault model.
		if c.P.ThermalTau > 0 {
			steady := c.P.AmbientC + c.P.ThermalResistance*watts
			co.tempC += (steady - co.tempC) * dt / c.P.ThermalTau
			co.Hier.L2D.Array().SetTemperature(co.tempC)
			co.Hier.L2I.Array().SetTemperature(co.tempC)
			co.RegFile.SetTemperature(co.tempC)
		}
		cr.TempC = co.tempC
	}

	// Uncore: steady moderate activity at its own rail (left at nominal
	// by the paper's scheme; scaled by the uncore-speculation
	// extension). Droop follows its own current draw.
	uv := c.UncoreRail.Target()
	uw := c.P.UncorePower.Total(uv, f, 0.4, c.P.AmbientC)
	uLoad := pdn.Load{MeanCurrent: c.P.UncorePower.Current(uv, f, 0.4, c.P.AmbientC)}
	c.uncoreEff = c.UncoreRail.Effective(uLoad)
	if c.uncoreEff < c.uncoreVmin {
		c.uncoreDead = true
	}
	if !c.uncoreDead {
		c.uncoreMeter.Accumulate(uw, dt)
	}
	c.lastUncoreW = uw

	c.time += dt
	c.ticks++
	return rep
}

// TrueCorrected returns the expected number of underlying corrected
// events on core id in the last Step (reported x TrueEventFactor,
// analytically), which is what a firmware handler servicing every
// event sees. It replays the exact per-line rates of the L2 tables the
// Step sampled, draws nothing, and is 0 for a core that sampled none.
func (c *Chip) TrueCorrected(id int) float64 {
	var trueD, trueI float64
	co := c.Cores[id]
	if t := co.sampled[0]; t != nil {
		trueD = t.TrueMean()
	}
	if t := co.sampled[1]; t != nil {
		trueI = t.TrueMean()
	}
	return (trueD + trueI) * c.P.TrueEventFactor
}

// sampleWorkloadErrors converts a tick's worth of L2 traffic into ECC
// event counts. Accesses spread uniformly over the workload's footprint;
// each sensitive, exercised line contributes Poisson-distributed
// correctable events (rare per access) and a fatal flag if a double-bit
// read occurs. It returns the table it sampled, nil if it sampled none.
func (c *Chip) sampleWorkloadErrors(co *Core, kind variation.Kind, accesses float64, v float64) (corrected int, sampled *kernel.Table, fatal bool) {
	if accesses <= 0 {
		return 0, nil, false
	}
	arr := co.arrayOf(kind)
	cov := co.wl.P.L2DCoverage
	if kind == variation.KindL2I {
		cov = co.wl.P.L2ICoverage
	}
	footprint := cov * float64(arr.Lines())
	if footprint < 1 {
		return 0, nil, false
	}
	perLine := accesses / footprint
	t := co.kernelTable(kind, c.SensitivityFloor())
	t.EnsureFootprint(co.wl)
	// Lines whose weakest cell sits more than ~8 ramp widths above the
	// current voltage cannot flip; the table is sorted by onset voltage,
	// so the kernel stops at the first line too strong to matter.
	// Uncorrectable errors machine-check the core regardless of report
	// throttling, but codeword interleaving and scrubbing make
	// double-bit alignments far rarer than raw pair probability
	// suggests; the FatalRateFactor folds both effects.
	cutoff := v - 8*c.P.Point.WidthMax
	n, fat, counts := t.Sample(c.stream, v, cutoff, perLine, perLine*c.P.FatalRateFactor)
	for _, lc := range counts {
		c.MCA.Report(mca.Event{Time: c.time, Core: co.ID,
			Bank: kind.String(), Set: lc.Set, Way: lc.Way, Count: lc.N})
	}
	return n, t, fat
}

// sampleRegFileErrors does the same for the register file, which the
// workload exercises continuously and completely.
func (c *Chip) sampleRegFileErrors(co *Core, perLine float64, v float64) (corrected int, fatal bool) {
	if perLine <= 0 {
		return 0, false
	}
	t := co.kernelTable(variation.KindRegFile, c.SensitivityFloor())
	n, fat, counts := t.SampleAll(c.stream, v, math.Inf(-1), perLine, perLine*c.P.FatalRateFactor)
	for _, lc := range counts {
		c.MCA.Report(mca.Event{Time: c.time, Core: co.ID,
			Bank: "RegFile", Set: lc.Set, Way: lc.Way, Count: lc.N})
	}
	return n, fat
}

// logicFaultRate returns the expected per-second rate of detectable
// logic timing faults at effective voltage v (Razor mode): each cycle
// faults with a probability that ramps up through the logic floor.
func (c *Chip) logicFaultRate(co *Core, v float64) float64 {
	const logicRampWidth = 0.004
	p := variation.FlipProbability(co.logicVmin, logicRampWidth, v)
	// Only a small fraction of cycles exercise the true critical path.
	const criticalPathDuty = 1e-3
	return p * criticalPathDuty * c.P.Point.FrequencyHz
}

// UncoreVmin returns the uncore's hard voltage floor.
func (c *Chip) UncoreVmin() float64 { return c.uncoreVmin }

// UncoreAlive reports whether the uncore is still functional (it dies if
// its rail is driven below the uncore floor).
func (c *Chip) UncoreAlive() bool { return !c.uncoreDead }

// ReviveUncore restores a failed uncore (characterization sweeps).
func (c *Chip) ReviveUncore() { c.uncoreDead = false }

// LastUncoreEffective returns the uncore rail's effective voltage from
// the most recent tick.
func (c *Chip) LastUncoreEffective() float64 { return c.uncoreEff }

// LastUncoreWatts returns the uncore power from the most recent tick.
func (c *Chip) LastUncoreWatts() float64 { return c.lastUncoreW }

// UncoreEnergy returns the uncore's accumulated energy in joules.
func (c *Chip) UncoreEnergy() float64 { return c.uncoreMeter.Energy() }

// TotalEnergy returns chip energy (cores + uncore) in joules.
func (c *Chip) TotalEnergy() float64 {
	e := c.uncoreMeter.Energy()
	for _, co := range c.Cores {
		e += co.Energy()
	}
	return e
}
