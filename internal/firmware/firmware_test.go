package firmware

import (
	"testing"

	"eccspec/internal/chip"
	"eccspec/internal/control"
	"eccspec/internal/workload"
)

func testChip(seed uint64) *chip.Chip {
	c := chip.New(chip.DefaultParams(seed, true, false))
	for _, co := range c.Cores {
		co.SetWorkload(workload.StressTest(), seed)
	}
	return c
}

// trueRates stands in for chip.TrueCorrected with fixed per-core true
// event rates (0 for cores not listed), for synthetic tick reports.
func trueRates(rates map[int]float64) func(int) float64 {
	return func(core int) float64 { return rates[core] }
}

func TestAdaptLowersVoltageWhenQuiet(t *testing.T) {
	c := testChip(1)
	fw := New(c, DefaultConfig())
	for i := 0; i < fw.Cfg.QuietTicksToLower+2; i++ {
		fw.Adapt(c.Step())
	}
	if c.Domains[0].Rail.Target() >= c.P.Point.NominalVdd {
		t.Fatalf("rail never lowered: %v", c.Domains[0].Rail.Target())
	}
}

func TestAdaptBacksOffOnErrors(t *testing.T) {
	c := testChip(2)
	fw := New(c, DefaultConfig())
	// Force the domain near the error region, then feed a synthetic
	// report with errors and confirm the rail rises by BackoffSteps.
	d := c.Domains[0]
	d.Rail.SetTarget(0.700)
	before := d.Rail.Target()
	rep := chip.TickReport{Cores: make([]chip.CoreReport, len(c.Cores))}
	for i := range rep.Cores {
		rep.Cores[i].CoreID = i
	}
	rep.Cores[0].CorrectedD = 3
	fw.trueCorrected = trueRates(map[int]float64{0: 3000})
	fw.Adapt(rep)
	want := before + float64(fw.Cfg.BackoffSteps)*d.Rail.Params().StepV
	if got := d.Rail.Target(); got < want-1e-9 {
		t.Fatalf("rail %v after errors, want >= %v", got, want)
	}
}

func TestAdaptHoldsAfterBackoff(t *testing.T) {
	c := testChip(3)
	cfg := DefaultConfig()
	cfg.HoldTicksAfterBackoff = 10
	fw := New(c, cfg)
	d := c.Domains[0]
	d.Rail.SetTarget(0.700)

	errRep := chip.TickReport{Cores: make([]chip.CoreReport, len(c.Cores))}
	for i := range errRep.Cores {
		errRep.Cores[i].CoreID = i
	}
	errRep.Cores[0].CorrectedI = 1
	fw.trueCorrected = trueRates(map[int]float64{0: 1000})
	fw.Adapt(errRep)
	after := d.Rail.Target()
	fw.trueCorrected = trueRates(nil)

	cleanRep := chip.TickReport{Cores: make([]chip.CoreReport, len(c.Cores))}
	for i := range cleanRep.Cores {
		cleanRep.Cores[i].CoreID = i
	}
	for i := 0; i < cfg.HoldTicksAfterBackoff-1; i++ {
		fw.Adapt(cleanRep)
	}
	if d.Rail.Target() != after {
		t.Fatalf("rail moved during hold: %v -> %v", after, d.Rail.Target())
	}
}

func TestApplyOverheadChargesCores(t *testing.T) {
	c := testChip(4)
	fw := New(c, DefaultConfig())
	rep := chip.TickReport{Cores: make([]chip.CoreReport, len(c.Cores))}
	for i := range rep.Cores {
		rep.Cores[i].CoreID = i
	}
	rep.Cores[2].CorrectedD = 5
	fw.trueCorrected = trueRates(map[int]float64{2: 5000})
	if n := fw.ApplyOverhead(rep); n != 5 {
		t.Fatalf("reported %d errors, want 5", n)
	}
	// The charged core must now do less work per tick than a peer.
	c.Step()
	w2 := c.Cores[2].Work()
	w3 := c.Cores[3].Work()
	if w2 >= w3 {
		t.Fatalf("overhead-charged core did %v work vs peer %v", w2, w3)
	}
}

func TestSoftwareSettlesAboveHardware(t *testing.T) {
	// The headline Fig. 17 relationship: the firmware baseline operates
	// at a higher voltage than the hardware monitor system on the same
	// chip under the same workload.
	if testing.Short() {
		t.Skip("long convergence run")
	}
	seed := uint64(5)

	// Hardware system.
	hw := chip.New(chip.DefaultParams(seed, true, false))
	for _, co := range hw.Cores {
		co.SetWorkload(workload.StressTest(), seed)
	}
	ctl := control.New(hw, control.DefaultConfig())
	if _, err := ctl.Calibrate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1500; i++ {
		hw.Step()
		ctl.Tick()
	}

	// Software system on an identical chip.
	sw := chip.New(chip.DefaultParams(seed, true, false))
	for _, co := range sw.Cores {
		co.SetWorkload(workload.StressTest(), seed)
	}
	fw := New(sw, DefaultConfig())
	for i := 0; i < 1500; i++ {
		fw.Adapt(sw.Step())
	}

	for d := range hw.Domains {
		vh := hw.Domains[d].Rail.Target()
		vs := sw.Domains[d].Rail.Target()
		if vs < vh-1e-9 {
			t.Fatalf("domain %d: software %v below hardware %v", d, vs, vh)
		}
	}
	// And strictly above somewhere: the techniques must actually differ.
	strict := false
	for d := range hw.Domains {
		if sw.Domains[d].Rail.Target() > hw.Domains[d].Rail.Target()+1e-9 {
			strict = true
		}
	}
	if !strict {
		t.Fatal("software baseline matched hardware everywhere; conservatism missing")
	}
	for _, co := range sw.Cores {
		if !co.Alive() {
			t.Fatalf("software speculation crashed core %d", co.ID)
		}
	}
}
