package experiments

import (
	"fmt"

	"eccspec/internal/alt"
	"eccspec/internal/chip"
	"eccspec/internal/control"
	"eccspec/internal/engine"
	"eccspec/internal/firmware"
	"eccspec/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "compare",
		Title: "Margin-reduction techniques compared on one chip (related work, §VI)",
		Paper: "Section VI",
		Run:   runCompare,
	})
}

// compareOutcome summarizes one technique's run.
type compareOutcome struct {
	name      string
	avgV      float64
	reduction float64
	epw       float64 // energy per unit work
	work      float64
}

// runCompare executes five margin-management strategies on identical
// chips under the SPECint mix: no speculation, a critical-path-monitor
// scheme (Lefurgy-style), the firmware ECC baseline [4], the paper's
// hardware ECC monitors, and Razor-style detect-and-replay. It reports
// where each settles and what it costs — the quantitative version of the
// paper's related-work discussion: CPMs can't see SRAM weakness, the
// firmware scheme is workload-hostage, the hardware monitors measure the
// true binding constraint cheaply, and Razor digs deeper still but only
// by adding recovery hardware and replay overhead.
func runCompare(o Options) (*Result, error) {
	converge := o.scale(1800, 250)
	measure := o.scale(1800, 250)

	// Every technique starts from the same uncalibrated cell; only the
	// ECC schemes drive its control system, from adapt.
	run := func(name string, params chip.Params,
		adapt func(c *chip.Chip, ctl *control.System) func(chip.TickReport)) (compareOutcome, error) {
		c, ctl, _ := engine.NewCell(engine.CellSpec{Params: params, Workloads: workload.Suites()["SPECint"]})
		step := adapt(c, ctl)
		settle(c, nil, converge, func(_ int, rep chip.TickReport, _ []control.Action) bool {
			step(rep)
			return true
		})
		sumV := 0.0
		engine.Ticks(c, nil, measure, func(_ int, rep chip.TickReport, _ []control.Action) bool {
			step(rep)
			for _, d := range c.Domains {
				sumV += d.Rail.Target()
			}
			return true
		})
		out := compareOutcome{name: name}
		out.avgV = sumV / float64(measure*len(c.Domains))
		out.reduction = 1 - out.avgV/c.P.Point.NominalVdd
		e, w, err := coreTotals(c)
		if err != nil {
			return out, fmt.Errorf("experiments: %w under %s", err, name)
		}
		out.epw = e / w
		out.work = w
		return out, nil
	}

	base := chip.DefaultParams(o.Seed, true, o.Full)
	var outs []compareOutcome

	// 1. No speculation: rails stay at nominal.
	o1, err := run("none", base, func(*chip.Chip, *control.System) func(chip.TickReport) {
		return func(chip.TickReport) {}
	})
	if err != nil {
		return nil, err
	}
	outs = append(outs, o1)

	// 2. Critical path monitors: logic margin sensing + static cache
	// guardband.
	o2, err := run("cpm", base, func(c *chip.Chip, _ *control.System) func(chip.TickReport) {
		cfg := alt.DefaultCPMConfig()
		cfg.DecisionTicks = o.scale(cfg.DecisionTicks, 4)
		m := alt.NewCPM(c, cfg)
		return m.Adapt
	})
	if err != nil {
		return nil, err
	}
	outs = append(outs, o2)

	// 3. Firmware ECC baseline [4] with off-line calibrated floors.
	o3, err := run("ecc-firmware", base, func(c *chip.Chip, ctl *control.System) func(chip.TickReport) {
		// Fast mode accelerates the (slow) firmware policy clock along
		// with the shortened run.
		fwCfg := firmware.DefaultConfig()
		fwCfg.QuietTicksToLower = o.scale(fwCfg.QuietTicksToLower, 8)
		fwCfg.HoldTicksAfterBackoff = o.scale(fwCfg.HoldTicksAfterBackoff, 80)
		fw := firmware.New(c, fwCfg)
		for _, d := range c.Domains {
			if a, err := ctl.FindOnset(d); err == nil {
				fw.SetFloor(d.ID, a.OnsetV)
			}
		}
		return fw.Adapt
	})
	if err != nil {
		return nil, err
	}
	outs = append(outs, o3)

	// 4. The paper's hardware ECC monitors.
	o4, err := run("ecc-hardware", base, func(_ *chip.Chip, ctl *control.System) func(chip.TickReport) {
		if _, err := ctl.Calibrate(); err != nil {
			panic(err)
		}
		return func(chip.TickReport) { ctl.Tick() }
	})
	if err != nil {
		return nil, err
	}
	outs = append(outs, o4)

	// 5. Razor: detect-and-replay through the logic floor.
	razorCfg := alt.DefaultRazorConfig()
	razorCfg.DecisionTicks = o.scale(razorCfg.DecisionTicks, 4)
	razorParams := base
	razorParams.RazorWindowV = razorCfg.WindowV
	o5, err := run("razor", razorParams, func(c *chip.Chip, _ *control.System) func(chip.TickReport) {
		rz := alt.NewRazor(c, razorCfg)
		return rz.Adapt
	})
	if err != nil {
		return nil, err
	}
	outs = append(outs, o5)

	baseEPW := outs[0].epw
	baseWork := outs[0].work
	tbl := NewTextTable("technique", "avg Vdd", "reduction", "rel energy/work", "perf cost")
	metrics := map[string]float64{}
	for _, out := range outs {
		perfCost := 1 - out.work/baseWork
		tbl.AddRow(out.name,
			fmt.Sprintf("%.3f V", out.avgV),
			fmt.Sprintf("%.1f%%", 100*out.reduction),
			fmt.Sprintf("%.3f", out.epw/baseEPW),
			fmt.Sprintf("%.2f%%", 100*perfCost))
		metrics["reduction_"+out.name] = out.reduction
		metrics["energy_"+out.name] = out.epw / baseEPW
		metrics["perfcost_"+out.name] = perfCost
	}
	var reds []float64
	for _, out := range outs {
		reds = append(reds, out.reduction)
	}
	return &Result{
		ID: "compare", Title: "Related-work technique comparison",
		Headline: fmt.Sprintf(
			"Vdd reductions: none %.0f%%, CPM %.1f%%, ECC-firmware %.1f%%, ECC-hardware %.1f%%, Razor %.1f%%",
			100*reds[0], 100*reds[1], 100*reds[2], 100*reds[3], 100*reds[4]),
		Table:   tbl,
		Metrics: metrics,
	}, nil
}
