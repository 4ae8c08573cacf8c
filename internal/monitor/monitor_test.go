package monitor

import (
	"math"
	"testing"

	"eccspec/internal/cache"
	"eccspec/internal/variation"
)

// testCache builds a small L2D-class cache and returns it with the
// coordinates and onset voltage of its weakest line.
func testCache(seed uint64) (*cache.Cache, int, int, float64) {
	m := variation.New(seed, variation.LowVoltage())
	c := cache.New(cache.Config{Name: "L2D", Kind: variation.KindL2D,
		Sets: 16, Ways: 4, HitLatency: 9}, 0, m)
	set, way, p := c.Array().WeakestLine()
	return c, set, way, p.Vmax()
}

func TestActivateDisablesLine(t *testing.T) {
	c, set, way, _ := testCache(1)
	mon := New(c, Config{})
	if mon.Active() {
		t.Fatal("monitor active before Activate")
	}
	mon.Activate(set, way)
	if !mon.Active() {
		t.Fatal("monitor inactive after Activate")
	}
	if !c.LineDisabled(set, way) {
		t.Fatal("target line not de-configured")
	}
	gs, gw := mon.Target()
	if gs != set || gw != way {
		t.Fatalf("target (%d,%d), want (%d,%d)", gs, gw, set, way)
	}
	mon.Deactivate()
	if mon.Active() || c.LineDisabled(set, way) {
		t.Fatal("Deactivate did not restore the line")
	}
}

func TestActivateMovesTarget(t *testing.T) {
	c, set, way, _ := testCache(2)
	mon := New(c, Config{})
	mon.Activate(set, way)
	other := (way + 1) % 4
	mon.Activate(set, other)
	if c.LineDisabled(set, way) {
		t.Fatal("old target still disabled after re-activation")
	}
	if !c.LineDisabled(set, other) {
		t.Fatal("new target not disabled")
	}
}

func TestProbePanicsWhileInactive(t *testing.T) {
	c, _, _, _ := testCache(3)
	mon := New(c, Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	mon.Probe(0.8)
}

func TestProbeCleanAtSafeVoltage(t *testing.T) {
	c, set, way, _ := testCache(4)
	mon := New(c, Config{})
	mon.Activate(set, way)
	hits := mon.ProbeN(500, 0.95)
	if hits != 0 {
		t.Fatalf("%d hits at safe voltage", hits)
	}
	acc, errs := mon.Counters()
	if acc != 500 || errs != 0 {
		t.Fatalf("counters %d/%d", errs, acc)
	}
	if mon.ErrorRate() != 0 {
		t.Fatalf("rate %v", mon.ErrorRate())
	}
}

func TestProbeRateTracksFlipProbability(t *testing.T) {
	c, set, way, vmax := testCache(5)
	mon := New(c, Config{EmergencyCeiling: 0.99})
	mon.Activate(set, way)
	// At the onset voltage the weakest cell flips ~half the time.
	mon.ProbeN(2000, vmax)
	rate := mon.ErrorRate()
	if math.Abs(rate-0.5) > 0.1 {
		t.Fatalf("rate %v at onset voltage, want ~0.5", rate)
	}
}

func TestErrorRateZeroBeforeAccesses(t *testing.T) {
	c, set, way, _ := testCache(6)
	mon := New(c, Config{})
	mon.Activate(set, way)
	if mon.ErrorRate() != 0 {
		t.Fatal("rate nonzero before any probe")
	}
}

func TestResetCounters(t *testing.T) {
	c, set, way, vmax := testCache(7)
	mon := New(c, Config{EmergencyCeiling: 0.99})
	mon.Activate(set, way)
	mon.ProbeN(100, vmax)
	mon.ResetCounters()
	acc, errs := mon.Counters()
	if acc != 0 || errs != 0 {
		t.Fatalf("counters after reset: %d/%d", errs, acc)
	}
}

func TestEmergencyLatchesAboveCeiling(t *testing.T) {
	c, set, way, vmax := testCache(8)
	mon := New(c, Config{EmergencyCeiling: 0.5, MinAccessesForEmergency: 10})
	mon.Activate(set, way)
	// Far below onset: every read errors, rate ~1.0 > 0.5.
	mon.ProbeN(50, vmax-0.08)
	if !mon.TakeEmergency() {
		t.Fatal("emergency not latched at ~100% error rate")
	}
	if mon.TakeEmergency() {
		t.Fatal("TakeEmergency did not clear the latch")
	}
}

func TestNoEmergencyBelowMinAccesses(t *testing.T) {
	c, set, way, vmax := testCache(9)
	mon := New(c, Config{EmergencyCeiling: 0.5, MinAccessesForEmergency: 1000})
	mon.Activate(set, way)
	// Probe above the pair-failure region so no uncorrectable fires,
	// but where single-bit errors are near-certain.
	p := c.Array().LineProfile(set, way)
	v := vmax - 0.02
	if _, pu := c.Array().ErrorProbabilities(set, way, v); pu > 1e-6 {
		t.Skipf("uncorrectable probability %v too high for this seed", pu)
	}
	_ = p
	mon.ProbeN(100, v)
	if mon.TakeEmergency() {
		t.Fatal("emergency latched before MinAccessesForEmergency")
	}
}

func TestProbeCountsAccessesOncePerCycle(t *testing.T) {
	c, set, way, _ := testCache(10)
	mon := New(c, Config{})
	mon.Activate(set, way)
	mon.ProbeN(137, 0.95)
	acc, _ := mon.Counters()
	if acc != 137 {
		t.Fatalf("accesses %d, want 137", acc)
	}
}

func TestMonitorDoesNotDisturbOtherLines(t *testing.T) {
	c, set, way, _ := testCache(11)
	otherWay := (way + 1) % 4
	// Park known data in a neighbouring line.
	var data [8]uint64
	for i := range data {
		data[i] = 0xDEAD0000 + uint64(i)
	}
	c.WriteLine(set, otherWay, data)
	mon := New(c, Config{})
	mon.Activate(set, way)
	mon.ProbeN(200, 0.95)
	res := c.ReadLine(set, otherWay, 0.95)
	if res.Data != data {
		t.Fatal("monitor probing corrupted a neighbouring line")
	}
}

func BenchmarkProbe(b *testing.B) {
	c, set, way, _ := testCache(42)
	mon := New(c, Config{})
	mon.Activate(set, way)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mon.Probe(0.70)
	}
}
