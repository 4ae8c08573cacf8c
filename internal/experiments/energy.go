package experiments

import (
	"fmt"

	"eccspec/internal/chip"
	"eccspec/internal/control"
	"eccspec/internal/engine"
	"eccspec/internal/firmware"
	"eccspec/internal/stats"
	"eccspec/internal/trace"
	"eccspec/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "fig17",
		Title: "Energy of hardware vs software speculation, relative to nominal",
		Paper: "Figure 17",
		Run:   runFig17,
	})
	register(Experiment{
		ID:    "fig18",
		Title: "Core energy as a function of Vdd for hardware and software speculation",
		Paper: "Figure 18",
		Run:   runFig18,
	})
}

// runSuiteSW measures one suite under the firmware (software) baseline.
// Off-line calibration (the onset sweep) sets each domain's safe floor
// before the workloads start, as in [4].
func runSuiteSW(o Options, suite string) (energyPerWork float64, err error) {
	c, ctl, _ := engine.NewCell(engine.CellSpec{Params: chip.DefaultParams(o.Seed, true, o.Full),
		Workloads: workload.Suites()[suite]})
	fw := firmware.New(c, firmware.DefaultConfig())
	for _, d := range c.Domains {
		a, err := ctl.FindOnset(d)
		if err != nil {
			return 0, err
		}
		fw.SetFloor(d.ID, a.OnsetV)
	}
	converge := o.scale(1500, 200)
	measure := o.scale(2500, 300)
	adapt := func(_ int, rep chip.TickReport, _ []control.Action) bool {
		fw.Adapt(rep)
		return true
	}
	settle(c, nil, converge, adapt)
	engine.Ticks(c, nil, measure, adapt)
	e, w, err := coreTotals(c)
	if err != nil {
		return 0, fmt.Errorf("experiments: %s software speculation: %w", suite, err)
	}
	return e / w, nil
}

func runFig17(o Options) (*Result, error) {
	suites := workload.SuiteNames()
	tbl := NewTextTable("suite", "software speculation", "hardware speculation")
	var hwRel, swRel []float64
	for _, s := range suites {
		hw, err := runSuiteHW(o, s)
		if err != nil {
			return nil, err
		}
		swEPW, err := runSuiteSW(o, s)
		if err != nil {
			return nil, err
		}
		h := hw.EnergyPerWorkSpec / hw.EnergyPerWorkBase
		sw := swEPW / hw.EnergyPerWorkBase
		hwRel = append(hwRel, h)
		swRel = append(swRel, sw)
		tbl.AddRow(s, fmt.Sprintf("%.3f", sw), fmt.Sprintf("%.3f", h))
	}
	return &Result{
		ID: "fig17", Title: "Hardware vs software speculation energy",
		Headline: fmt.Sprintf("hardware saves %.0f%% energy vs software's %.0f%% (an extra %.0f points)",
			100*(1-stats.Mean(hwRel)), 100*(1-stats.Mean(swRel)),
			100*(stats.Mean(swRel)-stats.Mean(hwRel))),
		Table: tbl,
		Metrics: map[string]float64{
			"hw_relative_energy": stats.Mean(hwRel),
			"sw_relative_energy": stats.Mean(swRel),
			"hw_extra_savings":   stats.Mean(swRel) - stats.Mean(hwRel),
		},
	}, nil
}

// runFig18 forces one core's rail through a voltage ladder and measures
// energy per unit of work for both techniques at each point. The
// software technique pays the firmware handling cost for every
// correctable error, so its energy curve turns back up once the error
// rate ramps; the hardware curve keeps falling until the crash point.
func runFig18(o Options) (*Result, error) {
	measure := o.scale(600, 80)
	run := func(software bool) (*trace.Recorder, []float64, []float64, error) {
		c, _, _ := engine.NewCell(engine.CellSpec{Params: chip.DefaultParams(o.Seed, true, o.Full),
			Workloads: idleCores})
		c.Cores[0].SetWorkload(workload.StressTest(), o.Seed)
		var fw *firmware.System
		if software {
			fw = firmware.New(c, firmware.DefaultConfig())
		}
		rec := trace.NewRecorder("energyPerWork")
		var vs, epws []float64
		nominal := c.P.Point.NominalVdd
		for v := nominal; v >= 0.45; v -= 0.010 {
			c.Domains[0].Rail.SetTarget(v)
			c.Cores[0].Revive()
			c.Cores[0].ResetAccounting()
			c.Cores[0].SetOverheadFraction(0)
			crashed := false
			engine.Ticks(c, nil, measure, func(_ int, rep chip.TickReport, _ []control.Action) bool {
				if software {
					fw.ApplyOverhead(rep)
				}
				crashed = rep.Cores[0].Fatal
				return !crashed
			})
			if crashed {
				break
			}
			if c.Cores[0].Work() <= 0 {
				continue
			}
			epw := c.Cores[0].Energy() / c.Cores[0].Work()
			vs = append(vs, v)
			epws = append(epws, epw)
			rec.Add(v, epw)
		}
		return rec, vs, epws, nil
	}

	recHW, vHW, eHW, err := run(false)
	if err != nil {
		return nil, err
	}
	recSW, vSW, eSW, err := run(true)
	if err != nil {
		return nil, err
	}
	if len(eHW) == 0 || len(eSW) == 0 {
		return nil, fmt.Errorf("experiments: fig18 collected no points")
	}

	// Normalize both curves to the hardware curve's nominal point.
	base := eHW[0]
	tbl := NewTextTable("Vdd", "hardware energy (rel)", "software energy (rel)")
	for i := range vHW {
		sw := "-"
		for j := range vSW {
			if vSW[j] == vHW[i] {
				sw = fmt.Sprintf("%.3f", eSW[j]/base)
			}
		}
		tbl.AddRow(fmt.Sprintf("%.3f V", vHW[i]), fmt.Sprintf("%.3f", eHW[i]/base), sw)
	}

	// Where do the curves bottom out?
	minAt := func(vs, es []float64) (float64, float64) {
		bi := 0
		for i := range es {
			if es[i] < es[bi] {
				bi = i
			}
		}
		return vs[bi], es[bi] / base
	}
	vMinHW, eMinHW := minAt(vHW, eHW)
	vMinSW, eMinSW := minAt(vSW, eSW)
	// Software divergence: its energy at its lowest reached voltage vs
	// its own minimum.
	swEnd := eSW[len(eSW)-1] / base
	return &Result{
		ID: "fig18", Title: "Energy vs Vdd for both techniques",
		Headline: fmt.Sprintf("hardware bottoms at %.3f V (%.3f rel); software bottoms at %.3f V (%.3f rel) then climbs to %.3f",
			vMinHW, eMinHW, vMinSW, eMinSW, swEnd),
		Table:  tbl,
		Series: []*trace.Recorder{recHW, recSW},
		Metrics: map[string]float64{
			"hw_min_energy_rel": eMinHW,
			"sw_min_energy_rel": eMinSW,
			"hw_min_v":          vMinHW,
			"sw_min_v":          vMinSW,
			"sw_end_energy_rel": swEnd,
			"sw_divergence":     swEnd - eMinSW,
		},
	}, nil
}
