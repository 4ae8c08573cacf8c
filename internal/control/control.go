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
package control

import (
	"fmt"
	"sort"

	"eccspec/internal/cache"
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
	// FidelityStableWindows is how many consecutive in-band (Hold)
	// decisions every speculating domain must accumulate before an
	// adaptive-fidelity chip may fast-forward (chip.EnterFastForward).
	// Irrelevant unless the chip has adaptive fidelity enabled; <= 0
	// falls back to the default.
	FidelityStableWindows int
}

// DefaultConfig returns the paper's operating parameters.
func DefaultConfig() Config {
	return Config{
		FloorRate:             0.01,
		CeilRate:              0.05,
		EmergencySteps:        5,
		ProbesPerTick:         50,
		DecisionProbes:        200,
		CalibStepV:            0.005,
		CalibReadsPerLine:     4,
		CalibFloorV:           0.350,
		WatchdogStalledTicks:  10,
		FidelityStableWindows: 4,
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
	// controller, keyed by (core, kind); only one per domain is active.
	probers  map[monKey]Prober
	active   map[int]Prober
	assigns  map[int]Assignment
	lastRate map[int]float64
	uncore   *uncoreState

	// failed records domains the controller has reverted to nominal
	// after a monitor fault, with the reason; stalled counts consecutive
	// frozen-counter ticks per domain for the watchdog; emergencies
	// counts serviced emergency interrupts. All three are process-local
	// telemetry, not checkpoint state.
	failed      map[int]string
	stalled     map[int]int
	emergencies int

	// stableHolds counts, per domain (UncoreDomainID included), the
	// consecutive in-band (Hold) decisions since the last control-loop
	// event. Maintained only when the chip has adaptive fidelity
	// enabled; once every speculating domain has been stable for
	// Cfg.FidelityStableWindows decisions, the chip may fast-forward.
	stableHolds map[int]int

	// acts is Tick's scratch, reused so the steady-state loop
	// allocates nothing.
	acts []Action
}

type monKey struct {
	core int
	kind variation.Kind
}

// New provisions the control system on a chip: a hardware ECC monitor on
// every L2 instruction and data cache controller, all initially inactive.
func New(c *chip.Chip, cfg Config) *System {
	s := newSystem(c, cfg)
	for _, co := range c.Cores {
		s.probers[monKey{co.ID, variation.KindL2D}] = monitor.New(co.Hier.L2D, monitor.Config{})
		s.probers[monKey{co.ID, variation.KindL2I}] = monitor.New(co.Hier.L2I, monitor.Config{})
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
	s := newSystem(c, cfg)
	for _, co := range c.Cores {
		s.probers[monKey{co.ID, variation.KindL2D}] = monitor.NewFirmwareSelfTest(co.Hier, true, monitor.Config{})
		s.probers[monKey{co.ID, variation.KindL2I}] = monitor.NewFirmwareSelfTest(co.Hier, false, monitor.Config{})
	}
	return s
}

// NewWithPolicy provisions the control system like New but drives the
// given speculation policy instead of the default paper ladder. A nil
// policy falls back to the default.
func NewWithPolicy(c *chip.Chip, cfg Config, pol policy.Policy) *System {
	s := New(c, cfg)
	if pol != nil {
		s.pol = pol
	}
	return s
}

func newSystem(c *chip.Chip, cfg Config) *System {
	return &System{
		Chip: c,
		Cfg:  cfg,
		// The default policy is built from this system's own band so
		// experiments that sweep FloorRate/CeilRate (the ablation study)
		// keep working unchanged.
		pol:         policy.NewPaper(cfg.FloorRate, cfg.CeilRate),
		probers:     make(map[monKey]Prober),
		active:      make(map[int]Prober),
		assigns:     make(map[int]Assignment),
		lastRate:    make(map[int]float64),
		failed:      make(map[int]string),
		stalled:     make(map[int]int),
		stableHolds: make(map[int]int),
	}
}

// Policy returns the speculation policy driving this system's decisions.
func (s *System) Policy() policy.Policy { return s.pol }

// PolicyName returns the driving policy's registered name.
func (s *System) PolicyName() string { return s.pol.Name() }

// Monitor returns the provisioned probing agent for a cache controller.
func (s *System) Monitor(core int, kind variation.Kind) Prober {
	return s.probers[monKey{core, kind}]
}

// ActiveMonitor returns the domain's active probing agent (nil before
// calibration).
func (s *System) ActiveMonitor(domain int) Prober {
	return s.active[domain]
}

// LastErrorRate returns the error rate observed at the domain's most
// recent completed controller decision (the monitor's own counters reset
// after every decision, so this is the steady telemetry value).
func (s *System) LastErrorRate(domain int) float64 {
	return s.lastRate[domain]
}

// Assignment returns the domain's calibrated target line.
func (s *System) Assignment(domain int) (Assignment, bool) {
	a, ok := s.assigns[domain]
	return a, ok
}

// sweepCache performs one calibration pass over a cache at probe voltage
// v: write a pattern and read each line back CalibReadsPerLine times,
// stopping at the first line that reports a correctable error. A line
// that provably cannot flip at v has its reads stand in by
// cache.SkipQuietReads, which leaves the cache and the fault stream
// exactly as the reads would; at the sweep's early steps that is nearly
// every line.
func (s *System) sweepCache(c *cache.Cache, v float64) (set, way int, found bool) {
	cfg := c.Config()
	var img [sram.WordsPerLine]ecc.Codeword
	for i := range img {
		img[i] = ecc.Encode(0x5555555555555555)
	}
	for set := 0; set < cfg.Sets; set++ {
		for way := 0; way < cfg.Ways; way++ {
			if c.LineDisabled(set, way) {
				continue
			}
			c.WriteLineEncoded(set, way, &img)
			if c.SkipQuietReads(set, way, v, s.Cfg.CalibReadsPerLine) {
				continue
			}
			for r := 0; r < s.Cfg.CalibReadsPerLine; r++ {
				res := c.ReadLine(set, way, v)
				if len(res.Events) > 0 {
					return set, way, true
				}
			}
		}
	}
	return 0, 0, false
}

// FindOnset locates the weakest L2 line among the domain's cores by
// progressively lowering the probe voltage until a sweep reports the
// first correctable error. It does not touch any monitor, so it can also
// serve as the "off-line calibration" step of the software baseline.
func (s *System) FindOnset(d *chip.Domain) (Assignment, error) {
	nominal := s.Chip.P.Point.NominalVdd
	for v := nominal; v >= s.Cfg.CalibFloorV; v -= s.Cfg.CalibStepV {
		for _, coreID := range d.CoreIDs {
			co := s.Chip.Cores[coreID]
			for _, kind := range []variation.Kind{variation.KindL2D, variation.KindL2I} {
				set, way, found := s.sweepCache(co.CacheOf(kind), v)
				if !found {
					continue
				}
				return Assignment{Domain: d.ID, Core: coreID, Kind: kind,
					Set: set, Way: way, OnsetV: v}, nil
			}
		}
	}
	return Assignment{}, fmt.Errorf("control: no correctable errors found above %.3f V in domain %d",
		s.Cfg.CalibFloorV, d.ID)
}

// CalibrateDomain runs FindOnset and activates the corresponding ECC
// monitor on the discovered line. Any previously active monitor in the
// domain is deactivated first (recalibration, §III-D).
func (s *System) CalibrateDomain(d *chip.Domain) (Assignment, error) {
	if old := s.active[d.ID]; old != nil {
		old.Deactivate()
		delete(s.active, d.ID)
		delete(s.assigns, d.ID)
	}
	delete(s.failed, d.ID)
	delete(s.stalled, d.ID)
	a, err := s.FindOnset(d)
	if err != nil {
		return Assignment{}, err
	}
	mon := s.probers[monKey{a.Core, a.Kind}]
	mon.Activate(a.Set, a.Way)
	s.active[d.ID] = mon
	s.assigns[d.ID] = a
	s.bindPolicyDomain(d.ID, a, d.Rail)
	return a, nil
}

// bindPolicyDomain hands a domain's characterization to the policy so
// schemes that need an offline operating point (guardband) have one.
func (s *System) bindPolicyDomain(domain int, a Assignment, r *pdn.Rail) {
	s.pol.BindDomain(policy.DomainInfo{
		Domain:   domain,
		OnsetV:   a.OnsetV,
		NominalV: s.Chip.P.Point.NominalVdd,
		StepV:    r.Params().StepV,
	})
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
	sort.Slice(out, func(i, j int) bool { return out[i].Domain < out[j].Domain })
	return out, nil
}

// Tick runs one controller iteration: probe every domain's active
// monitor at its current effective voltage and apply the floor/ceiling
// policy. Call it after chip.Step. Domains without an active monitor are
// skipped. The returned slice is scratch owned by the system and is
// overwritten by the next Tick; callers that need actions beyond the
// current tick must copy them.
func (s *System) Tick() []Action {
	out := s.acts[:0]
	if act, ok := s.tickUncore(); ok {
		out = append(out, act)
	}
	for _, d := range s.Chip.Domains {
		mon := s.active[d.ID]
		if mon == nil {
			continue
		}
		accBefore, _ := mon.Counters()
		mon.ProbeN(s.Cfg.ProbesPerTick, d.LastEffective())
		if rep, ok := mon.(overheadReporter); ok {
			a := s.assigns[d.ID]
			frac := rep.TakeOverheadSeconds() / s.Chip.P.TickSeconds
			s.Chip.Cores[a.Core].SetOverheadFraction(frac)
		}
		// Stall watchdog: a monitor that was asked to probe but did not
		// advance its access counter is a dead sensor — its rate would
		// stay stale forever and no decision would ever fire again.
		if accAfter, _ := mon.Counters(); s.Cfg.ProbesPerTick > 0 &&
			s.Cfg.WatchdogStalledTicks > 0 && accAfter == accBefore {
			s.stalled[d.ID]++
			if s.stalled[d.ID] >= s.Cfg.WatchdogStalledTicks {
				out = append(out, s.failSafe(d, mon, "monitor stalled (sensor dropout)"))
				continue
			}
		} else if s.stalled[d.ID] != 0 {
			delete(s.stalled, d.ID)
		}
		act := Action{Domain: d.ID}
		if mon.TakeEmergency() {
			act.Kind = Emergency
			act.ErrorRate = mon.ErrorRate()
			s.lastRate[d.ID] = act.ErrorRate
			s.emergencies++
			d.Rail.StepUp(s.Cfg.EmergencySteps)
			mon.ResetCounters()
		} else if acc, errs := mon.Counters(); acc >= s.Cfg.DecisionProbes {
			// A decision's worth of counters is also when firmware
			// cross-checks the monitor's built-in self test: a stuck
			// datapath reads as a perfect zero rate and would otherwise
			// walk the rail off the voltage cliff.
			if st, ok := mon.(selfTester); ok && !st.SelfTest() {
				out = append(out, s.failSafe(d, mon, "self-test failed"))
				continue
			}
			rate := mon.ErrorRate()
			act.ErrorRate = rate
			s.lastRate[d.ID] = rate
			act.Kind = s.applyDecision(d.Rail, s.pol.Decide(policy.Input{
				Domain:    d.ID,
				Tick:      s.Chip.Ticks(),
				ErrorRate: rate,
				Accesses:  acc,
				Errors:    errs,
				TargetV:   d.Rail.Target(),
				NominalV:  s.Chip.P.Point.NominalVdd,
				StepV:     d.Rail.Params().StepV,
			}))
			mon.ResetCounters()
		} else {
			act.Kind = Pending
			act.ErrorRate = mon.ErrorRate()
		}
		act.NewTarget = d.Rail.Target()
		out = append(out, act)
	}
	s.acts = out
	if s.Chip.AdaptiveFidelity() {
		s.trackFidelity(out)
	}
	return out
}

// trackFidelity drives the adaptive-fidelity state machine from the
// tick's actions: in-band decisions accumulate stability, anything else
// — step decision, emergency, fail-safe (which covers failed self-tests
// and stalled sensors) — zeroes the domain's count and abandons
// fast-forward. When every speculating domain has held for
// Cfg.FidelityStableWindows consecutive decisions, the chip is allowed
// to fast-forward through the aggregate kernel.
func (s *System) trackFidelity(acts []Action) {
	for _, a := range acts {
		switch a.Kind {
		case Hold:
			s.stableHolds[a.Domain]++
		case Pending:
			// No decision completed; stability carries over.
		default:
			s.stableHolds[a.Domain] = 0
			s.Chip.DropFastForward()
		}
	}
	k := s.Cfg.FidelityStableWindows
	if k <= 0 {
		k = DefaultConfig().FidelityStableWindows
	}
	if len(s.active) == 0 && s.uncore == nil {
		// Nothing is speculating; there is no stability signal to
		// justify fast-forwarding.
		return
	}
	for id := range s.active {
		if s.stableHolds[id] < k {
			return
		}
	}
	if s.uncore != nil && s.stableHolds[UncoreDomainID] < k {
		return
	}
	s.Chip.EnterFastForward()
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

// failSafe permanently stops speculating on a domain after a monitor
// fault: the monitor is deactivated (its line returns to service), the
// assignment is dropped, and the rail reverts to nominal Vdd where the
// design is unconditionally safe. Sibling domains are untouched.
// Recalibrating the domain (CalibrateDomain) restores speculation.
func (s *System) failSafe(d *chip.Domain, mon Prober, reason string) Action {
	rate := mon.ErrorRate()
	mon.Deactivate()
	delete(s.active, d.ID)
	delete(s.assigns, d.ID)
	delete(s.stalled, d.ID)
	s.failed[d.ID] = reason
	d.Rail.SetTarget(s.Chip.P.Point.NominalVdd)
	return Action{Domain: d.ID, Kind: FailSafe, ErrorRate: rate,
		NewTarget: d.Rail.Target()}
}

// FailedSafe reports whether the controller has failed the domain safe,
// and why.
func (s *System) FailedSafe(domain int) (reason string, ok bool) {
	reason, ok = s.failed[domain]
	return reason, ok
}

// FailSafeDomains returns the ids of all failed-safe domains, sorted.
func (s *System) FailSafeDomains() []int {
	if len(s.failed) == 0 {
		return nil
	}
	ids := make([]int, 0, len(s.failed))
	for id := range s.failed {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// Emergencies returns how many emergency interrupts this system has
// serviced in this process. The counter is telemetry, not checkpoint
// state: it restarts at zero after a restore.
func (s *System) Emergencies() int { return s.emergencies }
