package chip

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"eccspec/internal/kernel"
	"eccspec/internal/sram"
	"eccspec/internal/variation"
	"eccspec/internal/workload"
)

// testChip builds a low-voltage chip at scaled geometry.
func testChip(seed uint64) *Chip {
	return New(DefaultParams(seed, true, false))
}

func TestNewTopology(t *testing.T) {
	c := testChip(1)
	if len(c.Cores) != 8 {
		t.Fatalf("%d cores", len(c.Cores))
	}
	if len(c.Domains) != 4 {
		t.Fatalf("%d domains", len(c.Domains))
	}
	for id := 0; id < 8; id++ {
		dom := c.DomainOf(id)
		found := false
		for _, cid := range dom.CoreIDs {
			if cid == id {
				found = true
			}
		}
		if !found {
			t.Fatalf("core %d not in its domain %d", id, dom.ID)
		}
	}
	// Core pairs share rails.
	if c.DomainOf(0) != c.DomainOf(1) || c.DomainOf(0) == c.DomainOf(2) {
		t.Fatal("core pair rail sharing broken")
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	p := DefaultParams(1, true, false)
	p.NumCores = 7 // not divisible by CoresPerRail
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(p)
}

func TestDomainsStartAtNominal(t *testing.T) {
	c := testChip(1)
	for _, d := range c.Domains {
		if d.Rail.Target() != c.P.Point.NominalVdd {
			t.Fatalf("domain %d starts at %v", d.ID, d.Rail.Target())
		}
	}
	if c.UncoreRail.Target() != c.P.Point.NominalVdd {
		t.Fatal("uncore rail not at nominal")
	}
}

func TestStepAtNominalIsSafe(t *testing.T) {
	c := testChip(2)
	for _, co := range c.Cores {
		co.SetWorkload(workload.StressTest(), c.P.Seed)
	}
	for i := 0; i < 100; i++ {
		rep := c.Step()
		for _, cr := range rep.Cores {
			if cr.Fatal {
				t.Fatalf("core %d died at nominal: %s", cr.CoreID, cr.FatalCause)
			}
			if cr.CorrectedD+cr.CorrectedI+cr.CorrectedRF != 0 {
				t.Fatalf("errors at nominal voltage on core %d", cr.CoreID)
			}
		}
	}
	if c.Time() < 0.099 {
		t.Fatalf("time %v after 100 ticks", c.Time())
	}
}

func TestStepPowerPlausible(t *testing.T) {
	c := testChip(3)
	c.Cores[0].SetWorkload(workload.StressTest(), 3)
	var rep TickReport
	for i := 0; i < 10; i++ {
		rep = c.Step()
	}
	p := rep.Cores[0].PowerW
	if p < 0.5 || p > 15 {
		t.Fatalf("core power %v W implausible", p)
	}
	if c.Cores[0].Energy() <= 0 {
		t.Fatal("no energy accumulated")
	}
	if c.UncoreEnergy() <= 0 {
		t.Fatal("no uncore energy accumulated")
	}
	if c.TotalEnergy() <= c.UncoreEnergy() {
		t.Fatal("total energy should include cores")
	}
}

func TestEffectiveBelowTargetUnderLoad(t *testing.T) {
	c := testChip(4)
	c.Cores[0].SetWorkload(workload.StressTest(), 4)
	rep := c.Step()
	if rep.Cores[0].Effective >= c.DomainOf(0).Rail.Target() {
		t.Fatalf("no droop: effective %v, target %v",
			rep.Cores[0].Effective, c.DomainOf(0).Rail.Target())
	}
}

func TestIdleCoreDroopsLessThanLoaded(t *testing.T) {
	c := testChip(5)
	c.Cores[0].SetWorkload(workload.StressTest(), 5)
	c.Cores[2].SetWorkload(workload.Idle(), 5)
	rep := c.Step()
	droopLoaded := c.Domains[0].Rail.Target() - rep.Cores[0].Effective
	droopIdle := c.Domains[1].Rail.Target() - rep.Cores[2].Effective
	if droopLoaded <= droopIdle {
		t.Fatalf("loaded droop %v not above idle droop %v", droopLoaded, droopIdle)
	}
}

func TestLogicCrashBelowFloor(t *testing.T) {
	c := testChip(6)
	co := c.Cores[0]
	co.SetWorkload(workload.Idle(), 6)
	c.DomainOf(0).Rail.SetTarget(co.LogicVmin() - 0.02)
	rep := c.Step()
	if !rep.Cores[0].Fatal || rep.Cores[0].FatalCause != "logic" {
		t.Fatalf("expected logic crash, got %+v", rep.Cores[0])
	}
	if co.Alive() {
		t.Fatal("core still alive after crash")
	}
	// Dead cores don't accumulate anything further.
	e := co.Energy()
	c.Step()
	if co.Energy() != e {
		t.Fatal("dead core accumulated energy")
	}
	co.Revive()
	if !co.Alive() || co.FatalCause() != "" {
		t.Fatal("revive failed")
	}
}

func TestCorrectableErrorsAppearBeforeCrash(t *testing.T) {
	// The paper's central empirical claim: as Vdd is lowered, benign
	// correctable errors always appear before the core actually fails.
	c := testChip(7)
	co := c.Cores[0]
	co.SetWorkload(workload.StressTest(), 7)
	dom := c.DomainOf(0)

	var firstErrV, crashV float64
	for v := c.P.Point.NominalVdd; v > 0.40; v -= 0.005 {
		dom.Rail.SetTarget(v)
		errs := 0
		crashed := false
		for i := 0; i < 50 && !crashed; i++ {
			rep := c.Step()
			errs += rep.Cores[0].CorrectedD + rep.Cores[0].CorrectedI
			crashed = rep.Cores[0].Fatal
		}
		if errs > 0 && firstErrV == 0 {
			firstErrV = v
		}
		if crashed {
			crashV = v
			break
		}
	}
	if crashV == 0 {
		t.Fatal("core never crashed in sweep")
	}
	if firstErrV == 0 {
		t.Fatal("no correctable errors before crash — ECC early warning broken")
	}
	if firstErrV <= crashV {
		t.Fatalf("first error at %v not above crash at %v", firstErrV, crashV)
	}
	if firstErrV-crashV < 0.015 {
		t.Fatalf("speculation margin only %v V at the low point", firstErrV-crashV)
	}
}

// TestL2DTableContainsWeakest checks the core's L2D kernel table
// against its array's profiles: it indexes every line at or above the
// chip's sensitivity floor and nothing else, the weakest line among
// them. The table is built once and rebuilt only after SetAge.
func TestL2DTableContainsWeakest(t *testing.T) {
	c := testChip(8)
	co := c.Cores[0]
	floor := c.SensitivityFloor()
	c.Characterize()
	tab := co.tabs[l2dTable]
	if tab == nil || tab.Lines() == 0 {
		t.Fatal("no sensitive L2D lines indexed")
	}
	arr := co.Hier.L2D.Array()
	above := 0
	for key := 0; key < arr.Lines(); key++ {
		if arr.LineProfile(key/arr.Ways, key%arr.Ways).Vmax() >= floor {
			above++
		}
	}
	if tab.Lines() != above {
		t.Fatalf("L2D table indexes %d lines, %d sit at or above the floor", tab.Lines(), above)
	}
	set, way, p := arr.WeakestLine()
	if p.Vmax() < floor {
		t.Fatalf("weakest line (%d,%d, Vmax %v) below the floor %v", set, way, p.Vmax(), floor)
	}
	if co.table(l2dTable, floor) != tab {
		t.Fatal("L2D table rebuilt without a change of age")
	}
	arr.SetAge(100)
	aged := co.table(l2dTable, floor)
	if aged == tab {
		t.Fatal("L2D table not rebuilt after SetAge")
	}
	if co.table(l2dTable, floor) != aged {
		t.Fatal("aged L2D table rebuilt twice")
	}
}

// TestSetAgeIsTheWholeAgingProtocol ages a characterized core's L2D
// with SetAge alone and steps the chip near the aged weakest line's
// onset: its state must be byte-identical to that of a twin aged
// before its first Characterize.
func TestSetAgeIsTheWholeAgingProtocol(t *testing.T) {
	const hours = 40000
	build := func(ageFirst bool) *Chip {
		c := New(DefaultParams(77, true, false))
		for _, co := range c.Cores {
			co.SetWorkload(workload.StressTest(), 77)
		}
		arr := c.Cores[0].Hier.L2D.Array()
		if ageFirst {
			arr.SetAge(hours)
		}
		c.Characterize()
		if !ageFirst {
			arr.SetAge(hours)
		}
		_, _, p := arr.WeakestLine()
		c.DomainOf(0).Rail.SetTarget(p.Vmax() + 0.005)
		return c
	}
	late, twin := build(false), build(true)
	errs := 0
	for tick := 0; tick < 300; tick++ {
		errs += late.Step().Cores[0].CorrectedD
		twin.Step()
	}
	if errs == 0 {
		t.Fatal("no L2D errors at the aged onset: the check is vacuous")
	}
	a, err := json.Marshal(late.CaptureState())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(twin.CaptureState())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("chip aged after Characterize diverged from its twin aged before it")
	}
}

func TestOverheadReducesWork(t *testing.T) {
	c1, c2 := testChip(9), testChip(9)
	c1.Cores[0].SetWorkload(workload.StressTest(), 9)
	c2.Cores[0].SetWorkload(workload.StressTest(), 9)
	c2.Cores[0].SetOverheadFraction(0.5)
	for i := 0; i < 20; i++ {
		c1.Step()
		c2.Step()
	}
	w1, w2 := c1.Cores[0].Work(), c2.Cores[0].Work()
	if w2 >= w1 {
		t.Fatalf("overhead did not reduce work: %v vs %v", w2, w1)
	}
	if w2 < 0.45*w1 || w2 > 0.55*w1 {
		t.Fatalf("50%% overhead gave work ratio %v", w2/w1)
	}
}

func TestOverheadClamped(t *testing.T) {
	c := testChip(10)
	c.Cores[0].SetOverheadFraction(-1)
	c.Cores[0].SetOverheadFraction(2)
	// No panic and work still non-negative after a step.
	c.Cores[0].SetWorkload(workload.Idle(), 10)
	c.Step()
	if c.Cores[0].Work() < 0 {
		t.Fatal("negative work")
	}
}

func TestResetAccounting(t *testing.T) {
	c := testChip(11)
	c.Cores[0].SetWorkload(workload.StressTest(), 11)
	c.Step()
	c.Cores[0].ResetAccounting()
	if c.Cores[0].Energy() != 0 || c.Cores[0].Work() != 0 {
		t.Fatal("accounting not reset")
	}
}

func TestHighVoltagePointRegFileVulnerable(t *testing.T) {
	// At the nominal (2.53 GHz) point the paper sees a mix of cache and
	// register-file errors; at the low point, only L2 errors. Check the
	// model reproduces the structural difference.
	hi := New(DefaultParams(12, false, false))
	lo := New(DefaultParams(12, true, false))
	floorHi := hi.SensitivityFloor()
	floorLo := lo.SensitivityFloor()
	sensitive := func(arr *sram.Array, kind variation.Kind, floor float64) int {
		return kernel.Build(arr, kind, floor).Lines()
	}
	if n := sensitive(hi.Cores[0].RegFile, variation.KindRegFile, floorHi); n == 0 {
		t.Error("high point: register file has no sensitive lines")
	}
	if n := sensitive(lo.Cores[0].RegFile, variation.KindRegFile, floorLo); n != 0 {
		t.Errorf("low point: register file has %d sensitive lines, want 0", n)
	}
	if n := sensitive(lo.Cores[0].Hier.L2D.Array(), variation.KindL2D, floorLo); n == 0 {
		t.Error("low point: L2D has no sensitive lines")
	}
	// L1s stay robust at both points.
	if n := sensitive(lo.Cores[0].Hier.L1D.Array(), variation.KindL1D, floorLo); n != 0 {
		t.Errorf("low point: L1D has %d sensitive lines, want 0", n)
	}
}

func TestVirusWorkloadIncreasesDroop(t *testing.T) {
	clock := variation.LowVoltage().FrequencyHz
	cRes := testChip(13)
	cOff := testChip(13)
	cRes.Cores[1].SetWorkload(workload.Virus(8, clock), 13)
	cOff.Cores[1].SetWorkload(workload.Virus(0, clock), 13)
	repRes := cRes.Step()
	repOff := cOff.Step()
	droopRes := cRes.Domains[0].Rail.Target() - repRes.Cores[0].Effective
	droopOff := cOff.Domains[0].Rail.Target() - repOff.Cores[0].Effective
	if droopRes <= droopOff {
		t.Fatalf("NOP-8 virus droop %v not above NOP-0 %v (resonance missing)",
			droopRes, droopOff)
	}
}

func BenchmarkStepStress(b *testing.B) {
	c := testChip(42)
	for _, co := range c.Cores {
		co.SetWorkload(workload.StressTest(), 42)
	}
	// Warm the kernel tables.
	c.Step()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step()
	}
}

func TestThermalModelHeatsUnderLoad(t *testing.T) {
	c := testChip(30)
	c.Cores[0].SetWorkload(workload.StressTest(), 30)
	c.Cores[2].SetWorkload(workload.Idle(), 30)
	start := c.Cores[0].Temperature()
	// Run well past the thermal time constant.
	var loaded, idle float64
	for i := 0; i < 6000; i++ {
		rep := c.Step()
		loaded = rep.Cores[0].TempC
		idle = rep.Cores[2].TempC
	}
	if loaded <= start {
		t.Fatalf("loaded core did not heat: %v -> %v", start, loaded)
	}
	if loaded <= idle+1 {
		t.Fatalf("loaded core (%.1fC) not hotter than idle core (%.1fC)", loaded, idle)
	}
	// Steady state should approach ambient + R*P.
	want := c.P.AmbientC + c.P.ThermalResistance*c.Cores[0].AveragePower()
	if math.Abs(loaded-want) > 3 {
		t.Fatalf("steady temp %.1fC, expected near %.1fC", loaded, want)
	}
}

func TestThermalFeedbackRaisesLeakage(t *testing.T) {
	// The same core at the same voltage draws more power hot than cold.
	p := DefaultParams(31, true, false)
	cold := p.CorePower.Total(0.8, p.Point.FrequencyHz, 0.5, 45)
	hot := p.CorePower.Total(0.8, p.Point.FrequencyHz, 0.5, 75)
	if hot <= cold {
		t.Fatalf("leakage not increasing with temperature: %v vs %v", hot, cold)
	}
}

func TestDefaultParamsAtInterpolates(t *testing.T) {
	p500 := DefaultParamsAt(1, 500e6, false)
	if p500.Point.FrequencyHz != 500e6 {
		t.Fatalf("frequency %v", p500.Point.FrequencyHz)
	}
	if p500.Point.NominalVdd <= 0.800 || p500.Point.NominalVdd >= 1.100 {
		t.Fatalf("nominal %v outside the anchor range", p500.Point.NominalVdd)
	}
	if p500.Rail.VNominal != p500.Point.NominalVdd {
		t.Fatal("rail nominal not aligned with the operating point")
	}
	// The chip must build and run at the interpolated point.
	c := New(p500)
	c.Cores[0].SetWorkload(workload.StressTest(), 1)
	rep := c.Step()
	if rep.Cores[0].Fatal {
		t.Fatal("interpolated chip died at nominal")
	}
}

func TestUncoreFloorAndRevive(t *testing.T) {
	c := testChip(40)
	if c.UncoreVmin() <= 0.4 || c.UncoreVmin() >= 0.6 {
		t.Fatalf("uncore floor %v implausible at the low point", c.UncoreVmin())
	}
	if !c.UncoreAlive() {
		t.Fatal("uncore dead at construction")
	}
	c.UncoreRail.SetTarget(c.UncoreVmin() - 0.03)
	c.Step()
	if c.UncoreAlive() {
		t.Fatal("uncore survived below its floor")
	}
	c.ReviveUncore()
	if !c.UncoreAlive() {
		t.Fatal("revive failed")
	}
	c.UncoreRail.SetTarget(c.P.Point.NominalVdd)
	c.Step()
	if !c.UncoreAlive() {
		t.Fatal("uncore died at nominal after revive")
	}
}

func TestLastUncoreWattsTracked(t *testing.T) {
	c := testChip(41)
	c.Step()
	if c.LastUncoreWatts() <= 0 {
		t.Fatal("no uncore power recorded")
	}
	if c.LastUncoreEffective() >= c.UncoreRail.Target() {
		t.Fatal("uncore effective voltage shows no droop")
	}
}

func TestMCALogReceivesWorkloadEvents(t *testing.T) {
	c := testChip(42)
	co := c.Cores[0]
	co.SetWorkload(workload.StressTest(), 42)
	_, _, p := co.Hier.L2D.Array().WeakestLine()
	c.DomainOf(0).Rail.SetTarget(p.Vmax() + 0.005)
	for i := 0; i < 400; i++ {
		c.Step()
		if !co.Alive() {
			co.Revive()
		}
	}
	if c.MCA.Len() == 0 {
		t.Fatal("no MCA events logged near the weak line's onset")
	}
	prof := c.MCA.Profile()
	if prof[0].Bank != "L2D" && prof[0].Bank != "L2I" {
		t.Fatalf("top profile entry in unexpected bank %q", prof[0].Bank)
	}
}
