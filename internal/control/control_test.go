package control

import (
	"testing"

	"eccspec/internal/chip"
	"eccspec/internal/variation"
	"eccspec/internal/workload"
)

// testSystem builds a low-voltage scaled chip with idle workloads and a
// control system.
func testSystem(seed uint64) (*chip.Chip, *System) {
	p := chip.DefaultParams(seed, true, false)
	// A smaller shared L3 keeps the uncore calibration sweeps quick;
	// its weak-line statistics are not under test here.
	p.Hier.L3.Sets = 256
	p.Hier.L3.Ways = 16
	c := chip.New(p)
	for _, co := range c.Cores {
		co.SetWorkload(workload.Idle(), seed)
	}
	return c, New(c, DefaultConfig(), nil)
}

func TestMonitorsProvisionedEverywhere(t *testing.T) {
	c, s := testSystem(1)
	for _, co := range c.Cores {
		for _, kind := range []variation.Kind{variation.KindL2D, variation.KindL2I} {
			mon := s.Monitor(co.ID, kind)
			if mon == nil {
				t.Fatalf("no monitor for core %d %s", co.ID, kind)
			}
			if mon.Active() {
				t.Fatalf("monitor core %d %s active before calibration", co.ID, kind)
			}
		}
	}
}

func TestCalibrateDomainFindsWeakestLine(t *testing.T) {
	c, s := testSystem(2)
	d := c.Domains[0]
	a, err := s.CalibrateDomain(d)
	if err != nil {
		t.Fatal(err)
	}
	// Ground truth: the weakest line across the domain's four L2 arrays.
	bestV := -1.0
	var bestCore int
	var bestKind variation.Kind
	var bestSet, bestWay int
	for _, id := range d.CoreIDs {
		co := c.Cores[id]
		for _, kind := range []variation.Kind{variation.KindL2D, variation.KindL2I} {
			set, way, p := co.CacheOf(kind).Array().WeakestLine()
			if p.Vmax() > bestV {
				bestV = p.Vmax()
				bestCore, bestKind, bestSet, bestWay = id, kind, set, way
			}
		}
	}
	if a.Core != bestCore || a.Kind != bestKind || a.Set != bestSet || a.Way != bestWay {
		t.Fatalf("calibration picked %v; ground-truth weakest is core %d %s set %d way %d (%.3f V)",
			a, bestCore, bestKind, bestSet, bestWay, bestV)
	}
	// Onset voltage must be within a few ramp widths of the line's
	// actual Vmax (detection with 4 reads/line fires ~2.5 widths above).
	if a.OnsetV > bestV+0.045 || a.OnsetV < bestV-0.04 {
		t.Fatalf("onset %.3f V far from weakest cell Vcrit %.3f V", a.OnsetV, bestV)
	}
}

func TestCalibrateActivatesAndDisables(t *testing.T) {
	c, s := testSystem(3)
	as, err := s.Calibrate()
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != len(c.Domains) {
		t.Fatalf("%d assignments for %d domains", len(as), len(c.Domains))
	}
	for _, a := range as {
		mon := s.ActiveMonitor(a.Domain)
		if mon == nil || !mon.Active() {
			t.Fatalf("domain %d has no active monitor", a.Domain)
		}
		set, way := mon.Target()
		if set != a.Set || way != a.Way {
			t.Fatalf("monitor target mismatch for %v", a)
		}
		co := c.Cores[a.Core]
		if !co.CacheOf(a.Kind).LineDisabled(a.Set, a.Way) {
			t.Fatalf("assigned line not de-configured: %v", a)
		}
		got, ok := s.Assignment(a.Domain)
		if !ok || got != a {
			t.Fatalf("Assignment lookup mismatch for domain %d", a.Domain)
		}
	}
}

func TestRecalibrationReleasesOldLine(t *testing.T) {
	c, s := testSystem(4)
	d := c.Domains[0]
	a1, err := s.CalibrateDomain(d)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := s.CalibrateDomain(d)
	if err != nil {
		t.Fatal(err)
	}
	// Same chip, same age: recalibration finds the same line, and the
	// intermediate deactivation must not leak a disabled line.
	if a1.Core != a2.Core || a1.Set != a2.Set || a1.Way != a2.Way {
		t.Fatalf("recalibration drifted: %v vs %v", a1, a2)
	}
	co := c.Cores[a2.Core]
	if co.CacheOf(a2.Kind).DisabledLines() != 1 {
		t.Fatalf("%d disabled lines after recalibration, want 1",
			co.CacheOf(a2.Kind).DisabledLines())
	}
}

func TestTickConvergesToErrorBand(t *testing.T) {
	c, s := testSystem(5)
	if _, err := s.Calibrate(); err != nil {
		t.Fatal(err)
	}
	// Run the control loop until the rails settle.
	for i := 0; i < 1500; i++ {
		c.Step()
		s.Tick()
	}
	cfg := s.Cfg
	for _, d := range c.Domains {
		a, _ := s.Assignment(d.ID)
		target := d.Rail.Target()
		if target >= c.P.Point.NominalVdd {
			t.Fatalf("domain %d never speculated below nominal", d.ID)
		}
		// Converged voltage must sit near where the monitored line's
		// error probability lies inside [floor, ceiling].
		arr := c.Cores[a.Core].CacheOf(a.Kind).Array()
		veff := d.LastEffective()
		p := arr.FlipProbability(a.Set, a.Way, veff)
		if p < cfg.FloorRate/20 || p > cfg.CeilRate*20 {
			t.Fatalf("domain %d settled at %v (eff %v) where line error prob is %v",
				d.ID, target, veff, p)
		}
	}
	// No core may have died along the way.
	for _, co := range c.Cores {
		if !co.Alive() {
			t.Fatalf("core %d crashed during controlled speculation", co.ID)
		}
	}
}

func TestTickRaisesVoltageUnderNoise(t *testing.T) {
	// After convergence with idle neighbours, waking a heavy workload
	// on the domain raises droop; the controller must push the rail up.
	c, s := testSystem(6)
	if _, err := s.Calibrate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1200; i++ {
		c.Step()
		s.Tick()
	}
	before := c.Domains[0].Rail.Target()
	c.Cores[0].SetWorkload(workload.StressTest(), 6)
	c.Cores[1].SetWorkload(workload.StressTest(), 6)
	for i := 0; i < 800; i++ {
		c.Step()
		s.Tick()
	}
	after := c.Domains[0].Rail.Target()
	if after <= before {
		t.Fatalf("rail did not rise under load: %v -> %v", before, after)
	}
	if !c.Cores[0].Alive() || !c.Cores[1].Alive() {
		t.Fatal("cores crashed under load transition")
	}
}

func TestTickSkipsUncalibratedDomains(t *testing.T) {
	c, s := testSystem(7)
	c.Step()
	if acts := s.Tick(); len(acts) != 0 {
		t.Fatalf("actions for uncalibrated domains: %v", acts)
	}
}

func TestActionKindStrings(t *testing.T) {
	want := map[ActionKind]string{Hold: "hold", StepDown: "down", StepUp: "up",
		Emergency: "emergency", Pending: "pending", ActionKind(42): "unknown"}
	for k, s := range want {
		if k.String() != s {
			t.Fatalf("%d -> %q want %q", int(k), k.String(), s)
		}
	}
}

func TestAssignmentString(t *testing.T) {
	a := Assignment{Domain: 1, Core: 3, Kind: variation.KindL2I, Set: 9, Way: 2, OnsetV: 0.695}
	want := "domain 1 -> core 3 L2I set 9 way 2 (onset 0.695 V)"
	if a.String() != want {
		t.Fatalf("got %q", a.String())
	}
}

func TestCalibrateFailsWhenNoErrorsAboveFloor(t *testing.T) {
	c, s := testSystem(8)
	s.Cfg.CalibFloorV = 0.790 // nothing errors that close to nominal
	if _, err := s.CalibrateDomain(c.Domains[0]); err == nil {
		t.Fatal("expected calibration failure with impossible floor")
	}
}

func BenchmarkCalibrateDomain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, s := testSystem(uint64(i))
		if _, err := s.CalibrateDomain(c.Domains[0]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkControlTick(b *testing.B) {
	c, s := testSystem(42)
	if _, err := s.Calibrate(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step()
		s.Tick()
	}
}
