package control

import (
	"strings"
	"testing"

	"eccspec/internal/chip"
	"eccspec/internal/monitor"
	"eccspec/internal/variation"
	"eccspec/internal/workload"
)

func TestAttachUncoreCalibratesL3(t *testing.T) {
	c, s := testSystem(31)
	a, err := s.AttachUncore()
	if err != nil {
		t.Fatal(err)
	}
	if a.Domain != UncoreDomainID || a.Kind != variation.KindL3 {
		t.Fatalf("assignment %+v", a)
	}
	if !c.L3.LineDisabled(a.Set, a.Way) {
		t.Fatal("uncore monitor line not de-configured")
	}
	got, ok := s.Assignment(UncoreDomainID)
	if !ok || got != a {
		t.Fatal("Assignment(UncoreDomainID) lookup mismatch")
	}
	// Onset must sit above the uncore's hard floor: the early-warning
	// property, uncore edition.
	if a.OnsetV <= c.UncoreVmin() {
		t.Fatalf("L3 onset %.3f not above uncore floor %.3f", a.OnsetV, c.UncoreVmin())
	}
}

func TestUncoreAssignmentEmptyBeforeAttach(t *testing.T) {
	_, s := testSystem(32)
	if _, ok := s.Assignment(UncoreDomainID); ok {
		t.Fatal("assignment reported before AttachUncore")
	}
}

func TestUncoreTickConverges(t *testing.T) {
	c, s := testSystem(33)
	if _, err := s.Calibrate(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AttachUncore(); err != nil {
		t.Fatal(err)
	}
	sawUncoreAction := false
	for i := 0; i < 1500; i++ {
		c.Step()
		for _, a := range s.Tick() {
			if a.Domain == UncoreDomainID && a.Kind != Pending {
				sawUncoreAction = true
			}
		}
	}
	if !sawUncoreAction {
		t.Fatal("no uncore controller decisions")
	}
	if c.UncoreRail.Target() >= c.P.Point.NominalVdd {
		t.Fatalf("uncore rail never speculated: %.3f", c.UncoreRail.Target())
	}
	if !c.UncoreAlive() {
		t.Fatal("uncore died under its own speculation")
	}
	// The uncore must settle where its monitored line's error
	// probability sits near the control band.
	a, _ := s.Assignment(UncoreDomainID)
	p := c.L3.Array().FlipProbability(a.Set, a.Way, c.LastUncoreEffective())
	if p < s.Cfg.FloorRate/20 || p > s.Cfg.CeilRate*20 {
		t.Fatalf("uncore settled at %.3f where line error prob is %v",
			c.UncoreRail.Target(), p)
	}
}

// TestUncoreFaultStuckZeroFailsSafe breaks the uncore monitor's datapath
// after the uncore rail has speculated below nominal: the self-test
// cross-check must revert the uncore rail to nominal Vdd, exactly as it
// does for a core domain, while the core domains keep speculating.
func TestUncoreFaultStuckZeroFailsSafe(t *testing.T) {
	c, s := testSystem(36)
	if _, err := s.Calibrate(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AttachUncore(); err != nil {
		t.Fatal(err)
	}
	converge(c, s, 1200)
	nominal := c.P.Point.NominalVdd
	if got := c.UncoreRail.Target(); got >= nominal {
		t.Fatalf("uncore rail never speculated: %.3f V", got)
	}

	mon, ok := s.ActiveMonitor(UncoreDomainID).(*monitor.Monitor)
	if !ok {
		t.Fatal("uncore has no active hardware monitor")
	}
	mon.SetFault(monitor.FaultStuckZero)
	converge(c, s, 50)

	reason, ok := s.FailedSafe(UncoreDomainID)
	if !ok || !strings.Contains(reason, "self-test") {
		t.Fatalf("FailedSafe(uncore) = %q, %v; want a self-test reason", reason, ok)
	}
	if got := c.UncoreRail.Target(); got != nominal {
		t.Fatalf("failed uncore rail at %.3f V, want nominal %.3f V", got, nominal)
	}
	if s.ActiveMonitor(UncoreDomainID) != nil {
		t.Fatal("failed uncore still holds a monitor")
	}
	if c.L3.LineDisabled(mon.Target()) {
		t.Fatal("failed uncore monitor line not returned to service")
	}
	for _, d := range c.Domains {
		if got := d.Rail.Target(); got >= nominal {
			t.Fatalf("domain %d stopped speculating: %.3f V", d.ID, got)
		}
	}
}

// TestUncoreStateRoundTrip checkpoints the uncore rail through the same
// capture/restore path as the domains: the uncore entry carries its
// telemetry rate, a state without one (the format before the uncore
// recorded it) still restores, and states that put an uncore entry on an
// L2 line or among the domains, or hold a domain twice, are rejected.
func TestUncoreStateRoundTrip(t *testing.T) {
	c, s := testSystem(37)
	if _, err := s.Calibrate(); err != nil {
		t.Fatal(err)
	}
	a, err := s.AttachUncore()
	if err != nil {
		t.Fatal(err)
	}
	converge(c, s, 600)
	st, err := s.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	if st.Uncore == nil || st.Uncore.Assignment != a || len(st.Domains) != len(c.Domains) {
		t.Fatalf("captured uncore %+v with %d domains", st.Uncore, len(st.Domains))
	}
	if st.Uncore.LastRate != s.LastErrorRate(UncoreDomainID) {
		t.Fatalf("captured uncore rate %v, live %v", st.Uncore.LastRate, s.LastErrorRate(UncoreDomainID))
	}

	for _, rate := range []float64{st.Uncore.LastRate, 0} {
		u := *st.Uncore
		u.LastRate = rate
		c2, s2 := testSystem(37)
		if err := s2.RestoreState(State{Domains: st.Domains, Uncore: &u}); err != nil {
			t.Fatal(err)
		}
		if got, ok := s2.Assignment(UncoreDomainID); !ok || got != a {
			t.Fatalf("restored uncore assignment %+v, %v; want %+v", got, ok, a)
		}
		if s2.ActiveMonitor(UncoreDomainID) == nil || !c2.L3.LineDisabled(a.Set, a.Way) {
			t.Fatal("restored uncore monitor not active on its line")
		}
		if got := s2.LastErrorRate(UncoreDomainID); got != rate {
			t.Fatalf("restored uncore rate %v, want %v", got, rate)
		}
	}

	bad := *st.Uncore
	bad.Assignment.Core, bad.Assignment.Kind = 0, variation.KindL2D
	if _, s2 := testSystem(37); s2.RestoreState(State{Uncore: &bad}) == nil {
		t.Fatal("uncore state naming an L2 line restored")
	}
	if _, s2 := testSystem(37); s2.RestoreState(State{Domains: []DomainControlState{*st.Uncore}}) == nil {
		t.Fatal("uncore state restored as a domain")
	}
	if _, s2 := testSystem(37); s2.RestoreState(State{Domains: append(st.Domains[:1:1], st.Domains[0])}) == nil {
		t.Fatal("state holding one domain twice restored")
	}
}

func TestFirmwareApproximationFullLoop(t *testing.T) {
	// The §IV configuration end to end: self-test probers, calibration,
	// convergence, no crashes.
	c := chipForFirmware(34)
	s := NewFirmwareApproximation(c, DefaultConfig())
	if _, err := s.Calibrate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1200; i++ {
		c.Step()
		s.Tick()
	}
	for _, d := range c.Domains {
		if d.Rail.Target() >= c.P.Point.NominalVdd {
			t.Fatalf("domain %d never speculated", d.ID)
		}
	}
	for _, co := range c.Cores {
		if !co.Alive() {
			t.Fatalf("core %d died under firmware-approximated control", co.ID)
		}
		// The probing core pays a cycle cost, visible as charged
		// overhead fractions; no assertion on magnitude here beyond
		// survival, which methodology-level tests quantify.
	}
}

func TestLastErrorRateTracksDecisions(t *testing.T) {
	c, s := testSystem(35)
	if s.LastErrorRate(0) != 0 {
		t.Fatal("rate nonzero before calibration")
	}
	if _, err := s.Calibrate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		c.Step()
		s.Tick()
	}
	// After convergence, the last decision rate should sit in or near
	// the control band at least for one domain.
	any := false
	for d := range c.Domains {
		if r := s.LastErrorRate(d); r > 0 {
			any = true
		}
	}
	if !any {
		t.Fatal("no domain ever recorded a nonzero decision rate")
	}
}

// chipForFirmware builds a chip whose cores run a light benchmark so the
// firmware self-test has realistic cache competition.
func chipForFirmware(seed uint64) *chip.Chip {
	c, _ := testSystem(seed)
	for _, co := range c.Cores {
		mcf, _ := workload.ByName("mcf")
		co.SetWorkload(mcf, seed)
	}
	return c
}
