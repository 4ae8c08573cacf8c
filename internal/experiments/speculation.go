package experiments

import (
	"fmt"

	"eccspec/internal/chip"
	"eccspec/internal/control"
	"eccspec/internal/engine"
	"eccspec/internal/stats"
	"eccspec/internal/trace"
	"eccspec/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "fig10",
		Title: "Average core voltages achieved through hardware voltage speculation",
		Paper: "Figure 10",
		Run:   runFig10,
	})
	register(Experiment{
		ID:    "fig11",
		Title: "Total power relative to the low-voltage nominal",
		Paper: "Figure 11",
		Run:   runFig11,
	})
	register(Experiment{
		ID:    "fig12",
		Title: "Dynamic adaptation of supply voltage (mcf followed by crafty)",
		Paper: "Figure 12",
		Run:   runFig12,
	})
}

// suiteRun holds the measured outcome of running one benchmark suite
// under hardware speculation, alongside a no-speculation baseline run of
// the same chip and workloads at nominal voltage.
type suiteRun struct {
	Suite string
	// CoreV is each core's time-averaged rail setpoint during the
	// measurement window.
	CoreV []float64
	// PowerSpec / PowerBase are the chip's average core power with and
	// without speculation.
	PowerSpec float64
	PowerBase float64
	// EnergyPerWorkSpec / Base are joules per unit of work.
	EnergyPerWorkSpec float64
	EnergyPerWorkBase float64
}

// suiteCache memoizes suite runs per option set: fig10, fig11 and fig17
// share the same underlying measurement.
var suiteCache = map[string]suiteRun{}

func suiteKey(o Options, suite string) string {
	return fmt.Sprintf("%d/%v/%v/%s", o.Seed, o.Full, o.Fast, suite)
}

// runSuiteHW measures one suite under the hardware speculation system.
func runSuiteHW(o Options, suite string) (suiteRun, error) {
	if r, ok := suiteCache[suiteKey(o, suite)]; ok {
		return r, nil
	}
	// Speculated run.
	spec := engine.CellSpec{Params: chip.DefaultParams(o.Seed, true, o.Full),
		Workloads: workload.Suites()[suite], Calibrate: true}
	c, ctl, err := engine.NewCell(spec)
	if err != nil {
		return suiteRun{}, err
	}
	converge := o.scale(1500, 200)
	measure := o.scale(2500, 300)
	settle(c, ctl, converge, nil)
	sumV := make([]float64, len(c.Cores))
	engine.Ticks(c, ctl, measure, func(_ int, _ chip.TickReport, _ []control.Action) bool {
		for i := range c.Cores {
			sumV[i] += c.DomainOf(i).Rail.Target()
		}
		return true
	})
	eSpec, wSpec, err := coreTotals(c)
	if err != nil {
		return suiteRun{}, fmt.Errorf("experiments: %s speculation: %w", suite, err)
	}
	run := suiteRun{Suite: suite, CoreV: make([]float64, len(c.Cores))}
	for i, co := range c.Cores {
		run.CoreV[i] = sumV[i] / float64(measure)
		run.PowerSpec += co.AveragePower()
	}
	run.EnergyPerWorkSpec = eSpec / wSpec

	// Baseline run: identical chip and workloads at nominal voltage.
	spec.Calibrate = false
	b, _, _ := engine.NewCell(spec)
	engine.Ticks(b, nil, measure, nil)
	for _, co := range b.Cores {
		run.PowerBase += co.AveragePower()
	}
	eBase, wBase, _ := coreTotals(b)
	run.EnergyPerWorkBase = eBase / wBase
	suiteCache[suiteKey(o, suite)] = run
	return run, nil
}

func runFig10(o Options) (*Result, error) {
	suites := workload.SuiteNames()
	runs := make([]suiteRun, len(suites))
	for i, s := range suites {
		r, err := runSuiteHW(o, s)
		if err != nil {
			return nil, err
		}
		runs[i] = r
	}
	nominal := 0.800
	tbl := NewTextTable("core", "CoreMark", "SPECjbb2005", "SPECint", "SPECfp", "avg reduction")
	var allRel []float64
	for core := 0; core < len(runs[0].CoreV); core++ {
		cells := []string{fmt.Sprintf("core %d", core)}
		rel := 0.0
		for _, r := range runs {
			cells = append(cells, fmt.Sprintf("%.3f V", r.CoreV[core]))
			rel += 1 - r.CoreV[core]/nominal
		}
		rel /= float64(len(runs))
		allRel = append(allRel, rel)
		cells = append(cells, fmt.Sprintf("%.1f%%", 100*rel))
		tbl.AddRow(cells...)
	}
	// Suite-to-suite variability of the chip-wide average voltage.
	var suiteAvg []float64
	for _, r := range runs {
		suiteAvg = append(suiteAvg, stats.Mean(r.CoreV))
	}
	return &Result{
		ID: "fig10", Title: "Average core voltages under speculation",
		Headline: fmt.Sprintf("Vdd lowered by %.1f%% on average (core range %.1f%%..%.1f%%); suite-to-suite spread %.1f mV",
			100*stats.Mean(allRel), 100*stats.Min(allRel), 100*stats.Max(allRel),
			1000*(stats.Max(suiteAvg)-stats.Min(suiteAvg))),
		Table: tbl,
		Metrics: map[string]float64{
			"avg_reduction":    stats.Mean(allRel),
			"min_reduction":    stats.Min(allRel),
			"max_reduction":    stats.Max(allRel),
			"suite_spread_v":   stats.Max(suiteAvg) - stats.Min(suiteAvg),
			"avg_core_voltage": stats.Mean(suiteAvg),
		},
	}, nil
}

func runFig11(o Options) (*Result, error) {
	suites := workload.SuiteNames()
	tbl := NewTextTable("suite", "power (speculated)", "power (nominal)", "relative")
	var rels []float64
	for _, s := range suites {
		r, err := runSuiteHW(o, s)
		if err != nil {
			return nil, err
		}
		rel := r.PowerSpec / r.PowerBase
		rels = append(rels, rel)
		tbl.AddRow(s, fmt.Sprintf("%.1f W", r.PowerSpec),
			fmt.Sprintf("%.1f W", r.PowerBase), fmt.Sprintf("%.3f", rel))
	}
	return &Result{
		ID: "fig11", Title: "Relative total power",
		Headline: fmt.Sprintf("average power savings %.1f%% across suites",
			100*(1-stats.Mean(rels))),
		Table: tbl,
		Metrics: map[string]float64{
			"avg_relative_power": stats.Mean(rels),
			"avg_power_savings":  1 - stats.Mean(rels),
			"max_relative_power": stats.Max(rels),
		},
	}, nil
}

func runFig12(o Options) (*Result, error) {
	c, ctl, err := engine.NewCell(engine.CellSpec{Params: chip.DefaultParams(o.Seed, true, o.Full),
		Workloads: idleCores, Calibrate: true})
	if err != nil {
		return nil, err
	}
	mcf, _ := workload.ByName("mcf")
	crafty, _ := workload.ByName("crafty")
	c.Cores[0].SetWorkload(mcf, o.Seed)

	converge := o.scale(1200, 200)
	half := o.scale(5000, 500)
	engine.Ticks(c, ctl, converge, nil)
	rec := trace.NewRecorder("vdd", "errRate")
	inBand, decisions := 0, 0
	var mcfV, craftyV []float64
	runHalf := func(collect *[]float64) {
		engine.Ticks(c, ctl, half, func(_ int, _ chip.TickReport, acts []control.Action) bool {
			for _, a := range acts {
				if a.Domain != 0 {
					continue
				}
				if a.Kind != control.Pending {
					decisions++
					if a.Kind == control.Hold {
						inBand++
					}
					rec.Add(c.Time(), a.NewTarget, a.ErrorRate)
				}
			}
			*collect = append(*collect, c.Domains[0].Rail.Target())
			return true
		})
	}
	runHalf(&mcfV)
	c.Cores[0].SetWorkload(crafty, o.Seed) // context switch
	runHalf(&craftyV)

	if !c.Cores[0].Alive() {
		return nil, fmt.Errorf("experiments: core crashed during fig12 trace")
	}
	tbl := NewTextTable("phase", "avg Vdd", "min Vdd", "max Vdd")
	tbl.AddRow("mcf", fmt.Sprintf("%.3f V", stats.Mean(mcfV)),
		fmt.Sprintf("%.3f V", stats.Min(mcfV)), fmt.Sprintf("%.3f V", stats.Max(mcfV)))
	tbl.AddRow("crafty", fmt.Sprintf("%.3f V", stats.Mean(craftyV)),
		fmt.Sprintf("%.3f V", stats.Min(craftyV)), fmt.Sprintf("%.3f V", stats.Max(craftyV)))
	frac := 0.0
	if decisions > 0 {
		frac = float64(inBand) / float64(decisions)
	}
	return &Result{
		ID: "fig12", Title: "Dynamic adaptation across a context switch",
		Headline: fmt.Sprintf("error rate held in band for %.0f%% of decisions; mcf avg %.3f V, crafty avg %.3f V",
			100*frac, stats.Mean(mcfV), stats.Mean(craftyV)),
		Table:  tbl,
		Series: []*trace.Recorder{rec},
		Metrics: map[string]float64{
			"in_band_fraction": frac,
			"mcf_avg_v":        stats.Mean(mcfV),
			"crafty_avg_v":     stats.Mean(craftyV),
			"decisions":        float64(decisions),
		},
	}, nil
}
