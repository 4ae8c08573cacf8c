package experiments

import (
	"strings"
	"sync"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig1", "fig2", "fig3", "fig4", "tab1", "tab2",
		"fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
		"fig17", "fig18", "retention", "aging", "temp",
		"ablate-band", "ablate-proberate", "ablate-step", "ablate-rails",
		"methodology", "compare", "freqscale", "uncorespec", "fanspeed", "validate", "soak", "pareto",
		"policies"}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(All()), len(want))
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID accepted unknown id")
	}
}

func TestTextTable(t *testing.T) {
	tbl := NewTextTable("a", "bb")
	tbl.AddRow("1", "2")
	tbl.AddRowf([]string{"%d", "%.1f"}, 3, 4.5)
	if tbl.NumRows() != 2 {
		t.Fatalf("rows %d", tbl.NumRows())
	}
	var sb strings.Builder
	if err := tbl.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "a") || !strings.Contains(out, "4.5") {
		t.Fatalf("render output %q", out)
	}
}

func TestTextTablePanics(t *testing.T) {
	tbl := NewTextTable("a")
	for _, f := range []func(){
		func() { tbl.AddRow("1", "2") },
		func() { tbl.AddRowf([]string{"%d", "%d"}, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestOptionsScale(t *testing.T) {
	o := Options{Fast: true}
	if got := o.scale(1000, 50); got != 100 {
		t.Fatalf("scale 1000 -> %d", got)
	}
	if got := o.scale(200, 50); got != 50 {
		t.Fatalf("scale floor: %d", got)
	}
	o.Fast = false
	if got := o.scale(1000, 50); got != 1000 {
		t.Fatalf("non-fast scale: %d", got)
	}
}

// fastOpts are the smoke-test options shared below.
var fastOpts = Options{Seed: 1, Fast: true}

// fastRun is one memoized fast-mode run of an experiment.
type fastRun struct {
	once sync.Once
	res  *Result
	err  error
}

// fastRuns maps an experiment id to its *fastRun. The shape tests and the
// golden test read the same results, so each experiment runs once per
// test binary; the golden subtests run in parallel, hence the Once.
var fastRuns sync.Map

// runFor returns the experiment's fast-mode result, running it on first
// use, and fails the test on error or a malformed result.
func runFor(t *testing.T, id string) *Result {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("unknown experiment %s", id)
	}
	v, _ := fastRuns.LoadOrStore(id, new(fastRun))
	r := v.(*fastRun)
	r.once.Do(func() { r.res, r.err = e.Run(fastOpts) })
	res, err := r.res, r.err
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if res.ID != id || res.Headline == "" {
		t.Fatalf("%s: malformed result %+v", id, res)
	}
	var sb strings.Builder
	if err := res.Write(&sb); err != nil {
		t.Fatalf("%s: write: %v", id, err)
	}
	return res
}

func TestTab1Shape(t *testing.T) {
	res := runFor(t, "tab1")
	if res.Metric("cores") != 8 || res.Metric("domains") != 4 {
		t.Fatalf("topology metrics wrong: %+v", res.Metrics)
	}
	if res.Metric("l2i_kb") != 2*res.Metric("l2d_kb") {
		t.Fatal("L2I should be twice L2D, as in Table I")
	}
}

func TestTab2Shape(t *testing.T) {
	res := runFor(t, "tab2")
	if res.Metric("benchmarks") != 29 || res.Metric("suites") != 4 {
		t.Fatalf("benchmark inventory wrong: %+v", res.Metrics)
	}
}

func TestFig1Shape(t *testing.T) {
	res := runFor(t, "fig1")
	// Low-voltage minimum safe levels sit far lower, relatively, than
	// high-voltage ones, and vary more across cores.
	if res.Metric("avg_rel_low") >= res.Metric("avg_rel_high") {
		t.Error("low point should allow deeper relative reduction")
	}
	if res.Metric("avg_rel_high") > 0.95 || res.Metric("avg_rel_high") < 0.85 {
		t.Errorf("high-point min safe %.3f outside the ~10%% guardband story",
			res.Metric("avg_rel_high"))
	}
	if res.Metric("avg_rel_low") > 0.85 || res.Metric("avg_rel_low") < 0.65 {
		t.Errorf("low-point min safe %.3f outside the ~quarter-reduction story",
			res.Metric("avg_rel_low"))
	}
	if res.Metric("spread_rel_low") <= 2*res.Metric("spread_rel_high") {
		t.Error("core-to-core variation should be much larger at low voltage")
	}
}

func TestFig2Shape(t *testing.T) {
	res := runFor(t, "fig2")
	if r := res.Metric("range_ratio"); r < 2 || r > 12 {
		t.Errorf("correctable range ratio %.2f not in the several-x regime", r)
	}
	if res.Metric("corr_range_low_v") < 0.03 {
		t.Error("low-point correctable range implausibly narrow")
	}
}

func TestFig3Shape(t *testing.T) {
	res := runFor(t, "fig3")
	if res.Metric("error_free_range_v") < 0.05 {
		t.Errorf("error-free range %.3f V too narrow", res.Metric("error_free_range_v"))
	}
	if res.Metric("peak_errors_low") <= res.Metric("peak_errors_high") {
		t.Error("low point should raise far more errors than high point")
	}
}

func TestFig4Shape(t *testing.T) {
	res := runFor(t, "fig4")
	if res.Metric("cores_with_errors") < 6 {
		t.Errorf("only %.0f cores reported errors", res.Metric("cores_with_errors"))
	}
	if res.Metric("total_errors_5min") <= 0 {
		t.Error("no errors at the lowest safe voltages")
	}
}

func TestFig10Shape(t *testing.T) {
	res := runFor(t, "fig10")
	if r := res.Metric("avg_reduction"); r < 0.08 || r > 0.30 {
		t.Errorf("average reduction %.3f outside the ~18%% regime", r)
	}
	if res.Metric("suite_spread_v") > 0.02 {
		t.Error("suite-to-suite spread should be small (targeted probing)")
	}
	if res.Metric("min_reduction") <= 0 {
		t.Error("some core failed to speculate at all")
	}
}

func TestFig11Shape(t *testing.T) {
	res := runFor(t, "fig11")
	if s := res.Metric("avg_power_savings"); s < 0.15 || s > 0.45 {
		t.Errorf("power savings %.3f outside the ~33%% regime", s)
	}
}

func TestFig12Shape(t *testing.T) {
	res := runFor(t, "fig12")
	if res.Metric("in_band_fraction") < 0.5 {
		t.Errorf("in-band fraction %.2f: controller not holding the rate",
			res.Metric("in_band_fraction"))
	}
	if res.Metric("decisions") < 10 {
		t.Error("too few controller decisions recorded")
	}
}

func TestFig13Shape(t *testing.T) {
	res := runFor(t, "fig13")
	if res.Metric("curves") < 2 {
		t.Fatal("not enough sensitivity curves")
	}
	if res.Metric("ramp_min_mv") < 5 || res.Metric("ramp_max_mv") > 120 {
		t.Errorf("ramp widths [%v, %v] mV outside the 20-50 mV story",
			res.Metric("ramp_min_mv"), res.Metric("ramp_max_mv"))
	}
	if res.Metric("v50_spread_v") <= 0 {
		t.Error("no core-to-core spread in 50% points")
	}
}

func TestFig14Shape(t *testing.T) {
	res := runFor(t, "fig14")
	if res.Metric("swing_idle_v") < 0.004 {
		t.Errorf("idle-case setpoint swing %.4f V: square wave not tracked",
			res.Metric("swing_idle_v"))
	}
	if res.Metric("swing_specfp_v") < 0.003 {
		t.Errorf("SPECfp-case swing %.4f V: square wave not tracked",
			res.Metric("swing_specfp_v"))
	}
}

func TestFig15Shape(t *testing.T) {
	res := runFor(t, "fig15")
	peak := res.Metric("peak_nop")
	if peak < 6 || peak > 10 {
		t.Errorf("error peak at NOP-%d, want near the NOP-8 resonance", int(peak))
	}
	if res.Metric("peak_errors") <= 3*res.Metric("nop0_errors") {
		t.Error("resonance peak not clearly above the NOP-0 virus")
	}
	if res.Metric("peak_errors") <= 3*res.Metric("nop20_errors") {
		t.Error("resonance peak not clearly above the NOP-20 virus")
	}
}

func TestFig16Shape(t *testing.T) {
	res := runFor(t, "fig16")
	if res.Metric("mean_rate_nop8") <= res.Metric("mean_rate_nop0") {
		t.Error("NOP-8 should out-error the higher-power NOP-0 virus")
	}
	if res.Metric("mean_rate_nop0") <= res.Metric("mean_rate_idle") {
		t.Error("NOP-0 should out-error the idle auxiliary")
	}
}

func TestFig17Shape(t *testing.T) {
	res := runFor(t, "fig17")
	if res.Metric("hw_relative_energy") >= res.Metric("sw_relative_energy") {
		t.Error("hardware speculation should save more energy than software")
	}
	if res.Metric("hw_relative_energy") > 0.85 {
		t.Errorf("hardware relative energy %.3f: savings too small",
			res.Metric("hw_relative_energy"))
	}
}

func TestFig18Shape(t *testing.T) {
	res := runFor(t, "fig18")
	if res.Metric("hw_min_v") > res.Metric("sw_min_v") {
		t.Error("hardware should keep gaining below the software minimum")
	}
	if res.Metric("sw_divergence") <= 0 {
		t.Error("software energy should climb below its optimum")
	}
	if res.Metric("hw_min_energy_rel") >= res.Metric("sw_min_energy_rel") {
		t.Error("hardware's energy floor should undercut software's")
	}
}

func TestMethodologyShape(t *testing.T) {
	res := runFor(t, "methodology")
	if res.Metric("max_target_diff_v") > 0.012 {
		t.Errorf("firmware approximation diverges %.1f mV from the hardware monitor",
			1000*res.Metric("max_target_diff_v"))
	}
	if p := res.Metric("fw_energy_penalty"); p <= 0 || p > 0.15 {
		t.Errorf("firmware probing penalty %.3f implausible", p)
	}
}

func TestCompareShape(t *testing.T) {
	res := runFor(t, "compare")
	// The related-work ordering: CPM < ECC hardware < Razor, with the
	// firmware baseline between CPM and the hardware design.
	if res.Metric("reduction_cpm") >= res.Metric("reduction_ecc-hardware") {
		t.Error("CPM should be more conservative than ECC hardware monitors")
	}
	if res.Metric("reduction_ecc-firmware") >= res.Metric("reduction_ecc-hardware") {
		t.Error("the firmware baseline should trail the hardware design")
	}
	if res.Metric("reduction_ecc-hardware") >= res.Metric("reduction_razor") {
		t.Error("Razor's detect-and-replay should dig deeper than ECC feedback")
	}
	if res.Metric("perfcost_razor") <= 0 {
		t.Error("Razor must pay a replay performance cost")
	}
	if r := res.Metric("reduction_none"); r > 1e-9 || r < -1e-9 {
		t.Error("the no-speculation baseline moved")
	}
}

func TestFreqScaleShape(t *testing.T) {
	res := runFor(t, "freqscale")
	// Benefit must shrink monotonically-ish with frequency, staying
	// positive across the production range.
	r340 := res.Metric("reduction_mhz340")
	r1000 := res.Metric("reduction_mhz1000")
	r1500 := res.Metric("reduction_mhz1500")
	if !(r340 > r1000 && r1000 > r1500) {
		t.Errorf("reduction not shrinking with frequency: %.3f, %.3f, %.3f",
			r340, r1000, r1500)
	}
	if r1500 <= 0.02 {
		t.Errorf("speculation should still help at 1.5 GHz: %.3f", r1500)
	}
}

func TestUncoreSpecShape(t *testing.T) {
	res := runFor(t, "uncorespec")
	if res.Metric("uncore_reduction") < 0.10 {
		t.Errorf("uncore reduction %.3f too small; the L3's margin went unused",
			res.Metric("uncore_reduction"))
	}
	if res.Metric("extra_power_savings") <= 0.03 {
		t.Errorf("extra power savings %.3f; extension not paying off",
			res.Metric("extra_power_savings"))
	}
	if res.Metric("core_v_shift") > 0.01 {
		t.Error("uncore speculation perturbed the core rails")
	}
}

func TestFanSpeedShape(t *testing.T) {
	res := runFor(t, "fanspeed")
	if res.Metric("temp_rise_c") < 5 {
		t.Errorf("fan slowdown raised temps only %.1f C; excursion too weak",
			res.Metric("temp_rise_c"))
	}
	if res.Metric("max_shift_v") > 0.012 {
		t.Errorf("converged rails moved %.1f mV under the excursion; should be a step or two",
			1000*res.Metric("max_shift_v"))
	}
}

func TestValidateShape(t *testing.T) {
	res := runFor(t, "validate")
	// Fast mode collects ~10x fewer events, so tolerance is loose here;
	// the full-length run (EXPERIMENTS.md) agrees within a few percent.
	if w := res.Metric("worst_ratio"); w < 0.35 || w > 2.5 {
		t.Errorf("statistical/functional agreement ratio %.2f out of tolerance", w)
	}
}

func TestAblateBandShape(t *testing.T) {
	res := runFor(t, "ablate-band")
	if res.Metric("crashes_total") != 0 {
		t.Error("crashes during the band ablation")
	}
	if res.Metric("reduction_band3") <= res.Metric("reduction_band0") {
		t.Error("wider error-rate bands should buy deeper voltage")
	}
}

func TestAblateRailsShape(t *testing.T) {
	res := runFor(t, "ablate-rails")
	if !(res.Metric("reduction_per1") > res.Metric("reduction_per2") &&
		res.Metric("reduction_per2") > res.Metric("reduction_per4") &&
		res.Metric("reduction_per4") > res.Metric("reduction_per8")) {
		t.Error("reduction should grow monotonically with rail granularity")
	}
}

func TestAblateStepShape(t *testing.T) {
	res := runFor(t, "ablate-step")
	if res.Metric("inband_step25") <= res.Metric("inband_step200") {
		t.Error("finer regulator steps should regulate better")
	}
}

func TestAblateProbeRateShape(t *testing.T) {
	res := runFor(t, "ablate-proberate")
	if res.Metric("crashes_rate5")+res.Metric("crashes_rate500") != 0 {
		t.Error("crashes during the probe-rate ablation")
	}
}

func TestSoakShape(t *testing.T) {
	res := runFor(t, "soak")
	if res.Metric("crashes") != 0 {
		t.Errorf("%.0f crashes during the reliability soak", res.Metric("crashes"))
	}
	if res.Metric("corrupted") != 0 {
		t.Errorf("%.0f corrupted sentinel lines", res.Metric("corrupted"))
	}
	if res.Metric("core_seconds") <= 0 {
		t.Error("no simulated time accumulated")
	}
}

func TestParetoShape(t *testing.T) {
	res := runFor(t, "pareto")
	// Speculation saves energy at every tier...
	for _, mhz := range []string{"340", "500", "1000"} {
		if res.Metric("epw_spec_mhz"+mhz) >= res.Metric("epw_base_mhz"+mhz) {
			t.Errorf("no energy saving at %s MHz", mhz)
		}
	}
	// ...and buys real performance at the base energy budget.
	if res.Metric("iso_energy_perf_gain") < 1.2 {
		t.Errorf("iso-energy performance gain %.2f too small",
			res.Metric("iso_energy_perf_gain"))
	}
}

func TestRetentionShape(t *testing.T) {
	res := runFor(t, "retention")
	if res.Metric("retention_errors") != 0 {
		t.Errorf("%.0f retention errors; faults must be access faults",
			res.Metric("retention_errors"))
	}
	if res.Metric("access_errors") <= 0 {
		t.Error("no access errors at the low voltage; contrast missing")
	}
}

func TestAgingShape(t *testing.T) {
	res := runFor(t, "aging")
	if res.Metric("onset_drift_v") < 0 {
		t.Error("aging should not lower the onset voltage")
	}
}

func TestTempShape(t *testing.T) {
	res := runFor(t, "temp")
	// The mid-ramp rate shift for +/-20C must stay small — the
	// equivalent voltage shift is ~2 mV, below one regulator step.
	if res.Metric("max_delta") > 0.2 {
		t.Errorf("temperature sensitivity %.3f too large", res.Metric("max_delta"))
	}
}
