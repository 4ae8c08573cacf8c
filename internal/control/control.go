// Package control implements the centralized voltage control system
// (§III-B) and the calibration procedure (§III-C) of the paper's
// ECC-guided voltage speculation design.
//
// One controller instance runs per chip, standing in for the service
// microcontroller. After every chip tick it:
//
//  1. lets each voltage domain's active ECC monitor perform its probe
//     cycles at the domain's current effective voltage,
//  2. services any latched emergency interrupt with a large voltage
//     increment, and otherwise
//  3. once enough probes have accumulated, compares the observed
//     correctable-error rate against a floor and a ceiling: above the
//     ceiling the domain's rail steps up 5 mV, below the floor it steps
//     down 5 mV, in between it holds.
//
// Keeping every domain *inside* a band of persistent-but-benign
// correctable errors is the paper's core idea: the error rate of the
// domain's weakest line is a live measurement of remaining margin, so
// the supply tracks process variation, workload swings, and even
// resonant voltage noise without any timing-error recovery hardware.
//
// Calibration finds the line to monitor. It progressively lowers the
// probe voltage from nominal in 5 mV steps, sweeping every line of every
// L2 cache in the domain (data and instruction sides, as in Fig. 6's
// instruction-template sweep) until the first correctable error appears.
// That line — the weakest in the domain — is handed to its cache's ECC
// monitor and de-configured from normal allocation.
//
// The uncore rail (AttachUncore) is one more speculated rail: its sweep
// covers the shared L3, and from then on it runs through the same tick,
// watchdog, self-test, fail-safe and checkpoint code as the core domains.
package control

import (
	"fmt"

	"eccspec/internal/chip"
	"eccspec/internal/ecc"
	"eccspec/internal/monitor"
	"eccspec/internal/pdn"
	"eccspec/internal/policy"
	"eccspec/internal/sram"
	"eccspec/internal/variation"
)

// Config tunes the control system.
type Config struct {
	// FloorRate and CeilRate bound the target correctable-error rate
	// (paper: 1% and 5%).
	FloorRate float64
	CeilRate  float64
	// EmergencySteps is the rail increment used to service an
	// emergency interrupt (a "larger increment", §III-B).
	EmergencySteps int
	// ProbesPerTick is how many self-test cycles each active monitor
	// runs per control tick (hardware probes use idle cache cycles).
	ProbesPerTick int
	// DecisionProbes is the minimum accumulated accesses before a
	// floor/ceiling decision; it sets the rate resolution (1/floor at
	// least).
	DecisionProbes uint64
	// CalibStepV is the sweep's voltage decrement (paper: 5 mV).
	CalibStepV float64
	// CalibReadsPerLine is how many reads per line each sweep pass
	// performs.
	CalibReadsPerLine int
	// CalibFloorV aborts a sweep that somehow finds no errors before
	// reaching clearly unsafe territory.
	CalibFloorV float64
	// WatchdogStalledTicks is how many consecutive ticks a domain's
	// monitor may leave its access counter frozen before the controller
	// declares the sensor dead and fails the domain safe. A healthy
	// monitor advances its counter by ProbesPerTick every tick, so the
	// watchdog never fires without a fault. <= 0 disables it.
	WatchdogStalledTicks int
}

// DefaultConfig returns the paper's operating parameters.
func DefaultConfig() Config {
	return Config{
		FloorRate:            0.01,
		CeilRate:             0.05,
		EmergencySteps:       5,
		ProbesPerTick:        50,
		DecisionProbes:       200,
		CalibStepV:           0.005,
		CalibReadsPerLine:    4,
		CalibFloorV:          0.350,
		WatchdogStalledTicks: 10,
	}
}

// Assignment records which line a domain's speculation is keyed to.
type Assignment struct {
	Domain int
	Core   int
	Kind   variation.Kind
	Set    int
	Way    int
	// OnsetV is the sweep voltage at which the line first reported a
	// correctable error.
	OnsetV float64
}

// String renders the assignment for logs.
func (a Assignment) String() string {
	return fmt.Sprintf("domain %d -> core %d %s set %d way %d (onset %.3f V)",
		a.Domain, a.Core, a.Kind, a.Set, a.Way, a.OnsetV)
}

// ActionKind classifies a controller decision.
type ActionKind int

const (
	// Hold: error rate inside the band; no change.
	Hold ActionKind = iota
	// StepDown: rate below floor; rail lowered one step.
	StepDown
	// StepUp: rate above ceiling; rail raised one step.
	StepUp
	// Emergency: interrupt serviced; rail raised EmergencySteps.
	Emergency
	// Pending: not enough probes accumulated for a decision.
	Pending
	// FailSafe: the domain's monitor failed its self test or stalled;
	// the controller reverted the rail to nominal Vdd and stopped
	// speculating on this domain. Other domains keep speculating.
	FailSafe
)

// String names the action.
func (k ActionKind) String() string {
	switch k {
	case Hold:
		return "hold"
	case StepDown:
		return "down"
	case StepUp:
		return "up"
	case Emergency:
		return "emergency"
	case Pending:
		return "pending"
	case FailSafe:
		return "fail-safe"
	default:
		return "unknown"
	}
}

// Action is one domain's outcome for one controller tick.
type Action struct {
	Domain    int
	Kind      ActionKind
	ErrorRate float64
	NewTarget float64
}

// Prober is the probing-agent surface the controller drives: the
// hardware ECC monitor (monitor.Monitor) and its firmware self-test
// approximation (monitor.FirmwareSelfTest, the paper's §IV methodology)
// both implement it.
type Prober interface {
	Activate(set, way int)
	Deactivate()
	Active() bool
	Target() (set, way int)
	Probe(v float64) bool
	ProbeN(n int, v float64) int
	Counters() (accesses, errors uint64)
	ErrorRate() float64
	ResetCounters()
	TakeEmergency() bool
}

var (
	_ Prober = (*monitor.Monitor)(nil)
	_ Prober = (*monitor.FirmwareSelfTest)(nil)
)

// overheadReporter is implemented by probers whose probing steals core
// cycles (the firmware self-test); the controller charges the cost to
// the core that hosts the probe.
type overheadReporter interface {
	TakeOverheadSeconds() float64
}

// selfTester is implemented by probers with a built-in self test
// (monitor.Monitor). The controller cross-checks it whenever it reads a
// decision's worth of counters; probers without one are trusted.
type selfTester interface {
	SelfTest() bool
}

// System is the per-chip voltage control system. The shared machinery —
// probing, emergency servicing, the stall watchdog, self-test
// cross-checks and fail-safe — lives here; what to do with a completed
// decision window is delegated to a speculation policy
// (internal/policy). The default is the paper's floor/ceiling ladder
// built from Cfg.FloorRate/CeilRate, which reproduces the pre-registry
// controller exactly.
type System struct {
	Chip *chip.Chip
	Cfg  Config

	// pol decides what to do with each completed decision window.
	pol policy.Policy

	// probers holds the provisioned probing agent for every L2 cache
	// controller, keyed by (core, kind), and the L3's under
	// (-1, KindL3); only one per rail is active.
	probers map[monKey]Prober

	// rails holds one record per speculated rail: rails[0] is the
	// uncore, rails[1+d] is domain d (see rail). Tick visits them in
	// this order.
	rails []rail

	// emergencies counts serviced emergency interrupts: process-local
	// telemetry, not checkpoint state.
	emergencies int

	// acts is Tick's scratch, reused so the steady-state loop
	// allocates nothing.
	acts []Action
}

type monKey struct {
	core int
	kind variation.Kind
}

// uncoreKey is the L3 monitor's probers key; uncore assignments carry
// it as their Core and Kind.
var uncoreKey = monKey{-1, variation.KindL3}

// rail is one speculated supply's controller state: a core domain, or
// the uncore. id is its Action.Domain; effective reads the supply's
// effective voltage over the last chip tick; lines are the caches its
// calibration sweep covers, in sweep order. mon is the active probing
// agent (nil before calibration and after a fail-safe) and assign its
// line. lastRate (checkpointed), stalled (the watchdog's count of
// frozen-counter ticks) and failed (the fail-safe reason) are telemetry.
type rail struct {
	id        int
	supply    *pdn.Rail
	effective func() float64
	lines     []monKey

	mon      Prober
	assign   Assignment
	lastRate float64
	stalled  int
	failed   string
}

// rail returns the record of a domain id or UncoreDomainID, or nil.
func (s *System) rail(id int) *rail {
	if i := id - UncoreDomainID; i >= 0 && i < len(s.rails) {
		return &s.rails[i]
	}
	return nil
}

// New provisions the control system on a chip: a hardware ECC monitor on
// every L2 instruction and data cache controller and on the L3, all
// initially inactive. pol decides each completed decision window; nil
// keeps the paper's floor/ceiling ladder built from cfg's band.
func New(c *chip.Chip, cfg Config, pol policy.Policy) *System {
	s := newSystem(c, cfg, func(co *chip.Core, kind variation.Kind) Prober {
		return monitor.New(co.CacheOf(kind), monitor.Config{})
	})
	if pol != nil {
		s.pol = pol
	}
	return s
}

// NewFirmwareApproximation provisions the control system with firmware
// self-test agents instead of hardware monitors — the configuration the
// paper actually measured (§IV): real Itanium silicon has no ECC
// monitor, so the second hardware thread of each core runs the Fig. 7
// targeted test continuously. Probing steals core cycles, which Tick
// charges to the hosting core.
func NewFirmwareApproximation(c *chip.Chip, cfg Config) *System {
	return newSystem(c, cfg, func(co *chip.Core, kind variation.Kind) Prober {
		return monitor.NewFirmwareSelfTest(co.Hier, kind == variation.KindL2D, monitor.Config{})
	})
}

// newSystem builds the uncore's and every domain's rail record; l2
// provisions each L2 controller's agent, the L3 gets a hardware monitor.
func newSystem(c *chip.Chip, cfg Config, l2 func(*chip.Core, variation.Kind) Prober) *System {
	s := &System{
		Chip: c,
		Cfg:  cfg,
		// The default policy is built from this system's own band so
		// experiments that sweep FloorRate/CeilRate (the ablation study)
		// keep working unchanged.
		pol:     policy.NewPaper(cfg.FloorRate, cfg.CeilRate),
		probers: map[monKey]Prober{uncoreKey: monitor.New(c.L3, monitor.Config{})},
		rails: []rail{{id: UncoreDomainID, supply: c.UncoreRail,
			effective: c.LastUncoreEffective, lines: []monKey{uncoreKey}}},
	}
	for _, d := range c.Domains {
		r := rail{id: d.ID, supply: d.Rail, effective: d.LastEffective}
		for _, id := range d.CoreIDs {
			for _, kind := range []variation.Kind{variation.KindL2D, variation.KindL2I} {
				k := monKey{id, kind}
				s.probers[k] = l2(c.Cores[id], kind)
				r.lines = append(r.lines, k)
			}
		}
		s.rails = append(s.rails, r)
	}
	return s
}

// Policy returns the speculation policy driving this system's decisions.
func (s *System) Policy() policy.Policy { return s.pol }

// Monitor returns the provisioned probing agent for a cache controller.
func (s *System) Monitor(core int, kind variation.Kind) Prober {
	return s.probers[monKey{core, kind}]
}

// ActiveMonitor returns the domain's (or, for UncoreDomainID, the
// uncore's) active probing agent: nil before calibration and after a
// fail-safe.
func (s *System) ActiveMonitor(domain int) Prober {
	if r := s.rail(domain); r != nil {
		return r.mon
	}
	return nil
}

// LastErrorRate returns the error rate observed at the domain's (or the
// uncore's) most recent completed controller decision (the monitor's own
// counters reset after every decision, so this is the steady telemetry
// value).
func (s *System) LastErrorRate(domain int) float64 {
	if r := s.rail(domain); r != nil {
		return r.lastRate
	}
	return 0
}

// Assignment returns the domain's (or the uncore's) calibrated target
// line.
func (s *System) Assignment(domain int) (Assignment, bool) {
	if r := s.rail(domain); r != nil && r.mon != nil {
		return r.assign, true
	}
	return Assignment{}, false
}

// calibImage is the line image every calibration sweep writes: the
// 0x5555... test pattern in each codeword.
var calibImage = func() (img [sram.WordsPerLine]ecc.Codeword) {
	for i := range img {
		img[i] = ecc.Encode(0x5555555555555555)
	}
	return img
}()

// sweep locates the weakest line among a rail's caches by progressively
// lowering the probe voltage until a calibration pass reports the first
// correctable error. Each pass writes the test pattern and reads each
// line back CalibReadsPerLine times (cache.Cache.CalibrationSweep, which
// skips the reads of lines that provably cannot flip at v).
func (s *System) sweep(r *rail) (Assignment, error) {
	nominal := s.Chip.P.Point.NominalVdd
	for v := nominal; v >= s.Cfg.CalibFloorV; v -= s.Cfg.CalibStepV {
		for _, k := range r.lines {
			c := s.Chip.L3
			if k != uncoreKey {
				c = s.Chip.Cores[k.core].CacheOf(k.kind)
			}
			if set, way, found := c.CalibrationSweep(&calibImage, v, s.Cfg.CalibReadsPerLine); found {
				return Assignment{Domain: r.id, Core: k.core, Kind: k.kind,
					Set: set, Way: way, OnsetV: v}, nil
			}
		}
	}
	return Assignment{}, fmt.Errorf("control: no correctable errors found above %.3f V in domain %d",
		s.Cfg.CalibFloorV, r.id)
}

// FindOnset locates the weakest L2 line among the domain's cores. It
// does not touch any monitor, so it can also serve as the "off-line
// calibration" step of the software baseline.
func (s *System) FindOnset(d *chip.Domain) (Assignment, error) {
	return s.sweep(s.rail(d.ID))
}

// CalibrateDomain runs FindOnset and activates the corresponding ECC
// monitor on the discovered line. Any previously active monitor in the
// domain is deactivated first (recalibration, §III-D).
func (s *System) CalibrateDomain(d *chip.Domain) (Assignment, error) {
	return s.calibrate(s.rail(d.ID))
}

// calibrate (re)calibrates a rail: it releases any active monitor,
// clears a fail-safe, sweeps for the weakest line and activates that
// line's monitor.
func (s *System) calibrate(r *rail) (Assignment, error) {
	s.release(r)
	r.failed = ""
	a, err := s.sweep(r)
	if err != nil {
		return Assignment{}, err
	}
	s.activate(r, a)
	return a, nil
}

// activate points the assignment's monitor at its line (de-configuring
// it) and binds the rail's characterization to the policy, so schemes
// that need an offline operating point (guardband) have one.
func (s *System) activate(r *rail, a Assignment) {
	mon := s.probers[monKey{a.Core, a.Kind}]
	mon.Activate(a.Set, a.Way)
	r.mon, r.assign = mon, a
	s.pol.BindDomain(policy.DomainInfo{
		Domain:   r.id,
		OnsetV:   a.OnsetV,
		NominalV: s.Chip.P.Point.NominalVdd,
		StepV:    r.supply.Params().StepV,
	})
}

// release deactivates a rail's monitor, returning its line to service,
// and drops the assignment and the watchdog count.
func (s *System) release(r *rail) {
	if r.mon != nil {
		r.mon.Deactivate()
	}
	r.mon, r.assign, r.stalled = nil, Assignment{}, 0
}

// Calibrate runs CalibrateDomain for every domain and returns the
// assignments sorted by domain id.
func (s *System) Calibrate() ([]Assignment, error) {
	var out []Assignment
	for _, d := range s.Chip.Domains {
		a, err := s.CalibrateDomain(d)
		if err != nil {
			return out, err
		}
		out = append(out, a)
	}
	return out, nil
}

// Tick runs one controller iteration: probe every calibrated rail's
// active monitor at its current effective voltage and apply the
// speculation policy, the uncore first, then the domains by id. Call it
// after chip.Step. Rails without an active monitor are skipped. The
// returned slice is scratch owned by the system and is overwritten by
// the next Tick; callers that need actions beyond the current tick must
// copy them.
func (s *System) Tick() []Action {
	out := s.acts[:0]
	for i := range s.rails {
		r := &s.rails[i]
		mon := r.mon
		if mon == nil {
			continue
		}
		accBefore, _ := mon.Counters()
		mon.ProbeN(s.Cfg.ProbesPerTick, r.effective())
		if rep, ok := mon.(overheadReporter); ok {
			frac := rep.TakeOverheadSeconds() / s.Chip.P.TickSeconds
			s.Chip.Cores[r.assign.Core].SetOverheadFraction(frac)
		}
		// Stall watchdog: a monitor that was asked to probe but did not
		// advance its access counter is a dead sensor — its rate would
		// stay stale forever and no decision would ever fire again.
		if accAfter, _ := mon.Counters(); s.Cfg.ProbesPerTick > 0 &&
			s.Cfg.WatchdogStalledTicks > 0 && accAfter == accBefore {
			r.stalled++
			if r.stalled >= s.Cfg.WatchdogStalledTicks {
				out = append(out, s.failSafe(r, "monitor stalled (sensor dropout)"))
				continue
			}
		} else {
			r.stalled = 0
		}
		act := Action{Domain: r.id}
		if mon.TakeEmergency() {
			act.Kind = Emergency
			act.ErrorRate = mon.ErrorRate()
			r.lastRate = act.ErrorRate
			s.emergencies++
			r.supply.StepUp(s.Cfg.EmergencySteps)
			mon.ResetCounters()
		} else if acc, errs := mon.Counters(); acc >= s.Cfg.DecisionProbes {
			// A decision's worth of counters is also when firmware
			// cross-checks the monitor's built-in self test: a stuck
			// datapath reads as a perfect zero rate and would otherwise
			// walk the rail off the voltage cliff.
			if st, ok := mon.(selfTester); ok && !st.SelfTest() {
				out = append(out, s.failSafe(r, "self-test failed"))
				continue
			}
			rate := mon.ErrorRate()
			act.ErrorRate = rate
			r.lastRate = rate
			act.Kind = s.applyDecision(r.supply, s.pol.Decide(policy.Input{
				Domain:    r.id,
				Tick:      s.Chip.Ticks(),
				ErrorRate: rate,
				Accesses:  acc,
				Errors:    errs,
				TargetV:   r.supply.Target(),
				NominalV:  s.Chip.P.Point.NominalVdd,
				StepV:     r.supply.Params().StepV,
			}))
			mon.ResetCounters()
		} else {
			act.Kind = Pending
			act.ErrorRate = mon.ErrorRate()
		}
		act.NewTarget = r.supply.Target()
		out = append(out, act)
	}
	s.acts = out
	return out
}

// applyDecision translates a policy decision into rail operations and
// the matching telemetry kind. SetTarget is classified by the direction
// the setpoint actually moved, so traces stay meaningful for ladder and
// non-ladder policies alike.
func (s *System) applyDecision(r *pdn.Rail, dec policy.Decision) ActionKind {
	switch dec.Verdict {
	case policy.StepUp:
		r.StepUp(stepsOrOne(dec.Steps))
		return StepUp
	case policy.StepDown:
		r.StepDown(stepsOrOne(dec.Steps))
		return StepDown
	case policy.SetTarget:
		before := r.Target()
		after := r.SetTarget(dec.TargetV)
		switch {
		case after > before:
			return StepUp
		case after < before:
			return StepDown
		default:
			return Hold
		}
	default:
		return Hold
	}
}

func stepsOrOne(n int) int {
	if n <= 0 {
		return 1
	}
	return n
}

// failSafe permanently stops speculating on a rail after a monitor
// fault: the monitor is deactivated (its line returns to service), the
// assignment is dropped, and the rail reverts to nominal Vdd where the
// design is unconditionally safe. Sibling rails are untouched.
// Recalibrating the rail (CalibrateDomain, AttachUncore) restores
// speculation.
func (s *System) failSafe(r *rail, reason string) Action {
	rate := r.mon.ErrorRate()
	s.release(r)
	r.failed = reason
	r.supply.SetTarget(s.Chip.P.Point.NominalVdd)
	return Action{Domain: r.id, Kind: FailSafe, ErrorRate: rate,
		NewTarget: r.supply.Target()}
}

// FailedSafe reports whether the controller has failed the domain (or,
// for UncoreDomainID, the uncore) safe, and why.
func (s *System) FailedSafe(domain int) (reason string, ok bool) {
	if r := s.rail(domain); r != nil && r.failed != "" {
		return r.failed, true
	}
	return "", false
}

// FailSafeDomains returns the ids of all failed-safe rails, sorted
// (UncoreDomainID first when the uncore failed safe).
func (s *System) FailSafeDomains() []int {
	var ids []int
	for i := range s.rails {
		if r := &s.rails[i]; r.failed != "" {
			ids = append(ids, r.id)
		}
	}
	return ids
}

// Emergencies returns how many emergency interrupts this system has
// serviced in this process, on every rail. The counter is telemetry, not
// checkpoint state: it restarts at zero after a restore.
func (s *System) Emergencies() int { return s.emergencies }
