// Package monitor implements the paper's hardware ECC monitor (§III-A):
// a small unit in each cache controller that continuously probes one
// designated weak cache line and reports its correctable-error rate.
//
// The monitor writes a test pattern into the line, reads it back, and
// counts two things: accesses and ECC-corrected events. Their ratio is
// the line's error rate at the current effective voltage — a direct,
// workload-independent measurement of the remaining timing margin. The
// voltage control system (internal/control) polls these counters to
// steer the supply.
//
// Every cache controller is provisioned with a monitor because the
// location of the weakest line is unknown at design time; calibration
// activates only the monitor guarding the weakest line per voltage
// domain and leaves the rest idle. The targeted line is de-configured
// from normal allocation, so probing steals only idle cache cycles and
// one line of capacity.
//
// An emergency mechanism backs up the periodic polling: when the
// observed error rate crosses the emergency ceiling (default 80%), the
// monitor latches an interrupt that the controller must service with a
// large voltage increment.
package monitor

import (
	"eccspec/internal/cache"
	"eccspec/internal/ecc"
	"eccspec/internal/sram"
)

// DefaultEmergencyCeiling is the error rate that latches the emergency
// interrupt.
const DefaultEmergencyCeiling = 0.80

// defaultPatterns are the march-style test patterns the monitor rotates
// through; alternating and solid patterns exercise both cell polarities.
var defaultPatterns = []uint64{
	0x5555555555555555,
	0xAAAAAAAAAAAAAAAA,
	0x0000000000000000,
	0xFFFFFFFFFFFFFFFF,
}

// patternImages holds the encoded line image of each test pattern.
// Probes rewrite the monitor line every cycle, so the images are
// encoded once here instead of per write.
var patternImages = func() [][sram.WordsPerLine]ecc.Codeword {
	imgs := make([][sram.WordsPerLine]ecc.Codeword, len(defaultPatterns))
	for i, p := range defaultPatterns {
		cw := ecc.Encode(p)
		for j := range imgs[i] {
			imgs[i][j] = cw
		}
	}
	return imgs
}()

// Config tunes a monitor.
type Config struct {
	// EmergencyCeiling is the error rate that latches the emergency
	// interrupt; <= 0 selects DefaultEmergencyCeiling.
	EmergencyCeiling float64
	// MinAccessesForEmergency avoids declaring an emergency from a
	// couple of unlucky reads; the rate check arms only after this many
	// accesses since the last counter reset.
	MinAccessesForEmergency uint64
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.EmergencyCeiling <= 0 {
		c.EmergencyCeiling = DefaultEmergencyCeiling
	}
	if c.MinAccessesForEmergency == 0 {
		c.MinAccessesForEmergency = 20
	}
	return c
}

// FaultMode selects an injected hardware fault for a monitor. The zero
// value is a healthy monitor; the non-zero modes model the sensor
// failures the control loop must survive (internal/faultinject drives
// them, internal/control detects them via SelfTest and its stall
// watchdog).
type FaultMode int

const (
	// FaultNone is a healthy monitor.
	FaultNone FaultMode = iota
	// FaultStuckZero models a stuck-at datapath: probes still consume
	// cache cycles and count accesses, but no error is ever reported —
	// the controller would walk the voltage off a cliff if it trusted
	// the rate. The built-in self test catches it.
	FaultStuckZero
	// FaultDropout models a dead sensor: probes do nothing and the
	// counters freeze, so the controller sees a stale error rate
	// forever. Caught by the controller's stall watchdog.
	FaultDropout
	// FaultDUE models the probed line genuinely failing hard: every
	// probe raises an uncorrectable (detected-uncorrectable) event and
	// latches the emergency interrupt. The monitor itself is healthy —
	// this exercises the paper's emergency path, not the self test.
	FaultDUE
)

// Monitor is one cache controller's ECC monitor.
type Monitor struct {
	cfg   Config
	cache *cache.Cache
	// Target line; valid only while active.
	set, way int
	active   bool
	fault    FaultMode

	accesses  uint64
	errors    uint64
	emergency bool
	pattern   int
}

// New provisions a monitor on a cache controller, initially inactive.
func New(c *cache.Cache, cfg Config) *Monitor {
	return &Monitor{cfg: cfg.withDefaults(), cache: c}
}

// Cache returns the cache this monitor is attached to.
func (m *Monitor) Cache() *cache.Cache { return m.cache }

// Active reports whether the monitor is probing a line.
func (m *Monitor) Active() bool { return m.active }

// Target returns the probed line's coordinates (valid while active).
func (m *Monitor) Target() (set, way int) { return m.set, m.way }

// Activate points the monitor at a line and removes that line from
// normal cache allocation. Counters reset.
func (m *Monitor) Activate(set, way int) {
	if m.active {
		m.Deactivate()
	}
	m.set, m.way = set, way
	m.cache.DisableLine(set, way)
	m.active = true
	m.ResetCounters()
}

// Deactivate stops probing and returns the line to service.
func (m *Monitor) Deactivate() {
	if !m.active {
		return
	}
	m.cache.EnableLine(m.set, m.way)
	m.active = false
	m.ResetCounters()
}

// Probe performs one self-test cycle at effective voltage v: write the
// next test pattern into the target line, read it back, update counters.
// It returns true when the read raised any ECC event. Probe panics if
// the monitor is inactive — activation is a calibration-time invariant.
func (m *Monitor) Probe(v float64) bool {
	if !m.active {
		panic("monitor: probe while inactive")
	}
	if m.fault == FaultDropout {
		// Dead sensor: no access happens, counters stay frozen.
		return false
	}
	m.cache.WriteLineEncoded(m.set, m.way, &patternImages[m.pattern])
	m.pattern = (m.pattern + 1) % len(defaultPatterns)
	events, fatal := m.cache.ProbeLine(m.set, m.way, v)
	m.accesses++
	switch m.fault {
	case FaultStuckZero:
		// The access happened (cell physics advanced as usual) but the
		// error report is stuck at zero.
		return false
	case FaultDUE:
		m.errors++
		m.emergency = true
		return true
	}
	// An uncorrectable on the dedicated test line is not fatal to the
	// program (the line holds no architectural data) but is an
	// immediate emergency signal.
	if fatal {
		m.emergency = true
	}
	// ProbeLine reports only corrected and uncorrectable events.
	hit := len(events) > 0
	if hit {
		m.errors++
	}
	if m.accesses >= m.cfg.MinAccessesForEmergency &&
		m.ErrorRate() >= m.cfg.EmergencyCeiling {
		m.emergency = true
	}
	return hit
}

// ProbeN performs n probe cycles and returns the number that raised
// events.
func (m *Monitor) ProbeN(n int, v float64) int {
	hits := 0
	for i := 0; i < n; i++ {
		if m.Probe(v) {
			hits++
		}
	}
	return hits
}

// Counters returns the access and error counts since the last reset.
func (m *Monitor) Counters() (accesses, errors uint64) {
	return m.accesses, m.errors
}

// ErrorRate returns errors/accesses (0 before any access).
func (m *Monitor) ErrorRate() float64 {
	if m.accesses == 0 {
		return 0
	}
	return float64(m.errors) / float64(m.accesses)
}

// ResetCounters clears the counters (the controller does this after each
// reading, per §III-A).
func (m *Monitor) ResetCounters() {
	m.accesses, m.errors = 0, 0
}

// TakeEmergency returns and clears the latched emergency interrupt.
func (m *Monitor) TakeEmergency() bool {
	e := m.emergency
	m.emergency = false
	return e
}

// SetFault injects (or with FaultNone clears) a hardware fault.
func (m *Monitor) SetFault(f FaultMode) { m.fault = f }

// Fault returns the currently injected fault mode.
func (m *Monitor) Fault() FaultMode { return m.fault }

// SelfTest models the monitor's built-in self test: a pure status check
// with no cache accesses or randomness (hardware BIST runs out-of-band).
// It reports false when the probe datapath is broken — stuck-at or
// sensor dropout. A FaultDUE monitor passes: the sensor works, the line
// under test genuinely fails, and the emergency path handles that.
func (m *Monitor) SelfTest() bool {
	return m.fault != FaultStuckZero && m.fault != FaultDropout
}

// State is a monitor's mutable state for checkpointing. The target line
// itself is recorded by the control system's assignment; State carries
// only what Activate does not reconstruct.
type State struct {
	Accesses  uint64 `json:"accesses"`
	Errors    uint64 `json:"errors"`
	Emergency bool   `json:"emergency,omitempty"`
	Pattern   int    `json:"pattern"`
}

// CaptureState reads the monitor's counters, latched interrupt, and
// pattern-rotation position.
func (m *Monitor) CaptureState() State {
	return State{Accesses: m.accesses, Errors: m.errors,
		Emergency: m.emergency, Pattern: m.pattern}
}

// RestoreState overwrites the counters, latched interrupt, and pattern
// position. Call after Activate (which resets them).
func (m *Monitor) RestoreState(st State) {
	m.accesses, m.errors = st.Accesses, st.Errors
	m.emergency = st.Emergency
	if len(defaultPatterns) > 0 {
		m.pattern = ((st.Pattern % len(defaultPatterns)) + len(defaultPatterns)) % len(defaultPatterns)
	}
}
