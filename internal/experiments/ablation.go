package experiments

import (
	"fmt"

	"eccspec/internal/chip"
	"eccspec/internal/control"
	"eccspec/internal/engine"
	"eccspec/internal/stats"
	"eccspec/internal/workload"
)

// Ablation studies for the design parameters the paper fixes by fiat:
// the error-rate band (§III-B picks 1%/5% and explicitly leaves tuning
// "for future work"), the monitor probe rate, the regulator step size,
// and the rail-sharing granularity (§II-A argues core-level tuning is
// attractive at low voltage). Each ablation runs the full closed-loop
// system with one knob varied and reports where the domains settle and
// how safely.

func init() {
	register(Experiment{
		ID:    "ablate-band",
		Title: "Ablation: floor/ceiling error-rate band vs converged voltage",
		Paper: "Section V-C (future work)",
		Run:   runAblateBand,
	})
	register(Experiment{
		ID:    "ablate-proberate",
		Title: "Ablation: monitor probe rate vs control stability",
		Paper: "Section III-A",
		Run:   runAblateProbeRate,
	})
	register(Experiment{
		ID:    "ablate-step",
		Title: "Ablation: regulator step size vs regulation quality",
		Paper: "Section III-B",
		Run:   runAblateStep,
	})
	register(Experiment{
		ID:    "ablate-rails",
		Title: "Ablation: rail sharing granularity vs achievable reduction",
		Paper: "Section II-A",
		Run:   runAblateRails,
	})
}

// ablationRun drives one chip/controller configuration to convergence
// and measures the settled voltages.
type ablationOutcome struct {
	avgReduction float64
	minTarget    float64
	crashes      int
	inBand       float64
	stepDevMV    float64 // stddev of a domain's target over the window
}

func runAblationConfig(o Options, cp chip.Params, cc control.Config) (ablationOutcome, error) {
	c := chip.New(cp)
	for _, co := range c.Cores {
		co.SetWorkload(workload.StressTest(), o.Seed)
	}
	ctl := control.New(c, cc, nil)
	if _, err := ctl.Calibrate(); err != nil {
		return ablationOutcome{}, err
	}
	converge := o.scale(1500, 200)
	measure := o.scale(1500, 200)
	engine.Ticks(c, ctl, converge, nil)
	var out ablationOutcome
	decisions, holds := 0, 0
	dom0 := make([]float64, 0, measure)
	engine.Ticks(c, ctl, measure, func(_ int, _ chip.TickReport, acts []control.Action) bool {
		for _, a := range acts {
			if a.Kind != control.Pending {
				decisions++
				if a.Kind == control.Hold {
					holds++
				}
			}
		}
		dom0 = append(dom0, c.Domains[0].Rail.Target())
		return true
	})
	nominal := cp.Point.NominalVdd
	out.minTarget = nominal
	for _, d := range c.Domains {
		if d.Rail.Target() < out.minTarget {
			out.minTarget = d.Rail.Target()
		}
		out.avgReduction += (1 - d.Rail.Target()/nominal) / float64(len(c.Domains))
	}
	for _, co := range c.Cores {
		if !co.Alive() {
			out.crashes++
		}
	}
	if decisions > 0 {
		out.inBand = float64(holds) / float64(decisions)
	}
	out.stepDevMV = 1000 * stats.StdDev(dom0)
	return out, nil
}

func runAblateBand(o Options) (*Result, error) {
	bands := []struct {
		name        string
		floor, ceil float64
	}{
		{"0.2%..1%", 0.002, 0.01},
		{"1%..5% (paper)", 0.01, 0.05},
		{"5%..20%", 0.05, 0.20},
		{"20%..50%", 0.20, 0.50},
	}
	tbl := NewTextTable("band", "avg reduction", "min target", "crashes")
	metrics := map[string]float64{}
	var reductions []float64
	crashes := 0
	for i, b := range bands {
		cc := control.DefaultConfig()
		cc.FloorRate, cc.CeilRate = b.floor, b.ceil
		out, err := runAblationConfig(o, chip.DefaultParams(o.Seed, true, o.Full), cc)
		if err != nil {
			return nil, err
		}
		tbl.AddRow(b.name, fmt.Sprintf("%.1f%%", 100*out.avgReduction),
			fmt.Sprintf("%.3f V", out.minTarget), fmt.Sprintf("%d", out.crashes))
		metrics[fmt.Sprintf("reduction_band%d", i)] = out.avgReduction
		reductions = append(reductions, out.avgReduction)
		crashes += out.crashes
	}
	metrics["crashes_total"] = float64(crashes)
	metrics["reduction_gain_widest"] = reductions[len(reductions)-1] - reductions[0]
	return &Result{
		ID: "ablate-band", Title: "Error-rate band ablation",
		Headline: fmt.Sprintf(
			"raising the band from 0.2-1%% to 20-50%% buys %.1f points of Vdd reduction (%d crashes across all bands)",
			100*metrics["reduction_gain_widest"], crashes),
		Table:   tbl,
		Metrics: metrics,
	}, nil
}

func runAblateProbeRate(o Options) (*Result, error) {
	rates := []int{5, 50, 500}
	tbl := NewTextTable("probes/tick", "avg reduction", "target stddev", "crashes")
	metrics := map[string]float64{}
	for _, r := range rates {
		cc := control.DefaultConfig()
		cc.ProbesPerTick = r
		out, err := runAblationConfig(o, chip.DefaultParams(o.Seed, true, o.Full), cc)
		if err != nil {
			return nil, err
		}
		tbl.AddRow(fmt.Sprintf("%d", r), fmt.Sprintf("%.1f%%", 100*out.avgReduction),
			fmt.Sprintf("%.1f mV", out.stepDevMV), fmt.Sprintf("%d", out.crashes))
		metrics[fmt.Sprintf("stddev_mv_rate%d", r)] = out.stepDevMV
		metrics[fmt.Sprintf("reduction_rate%d", r)] = out.avgReduction
		metrics[fmt.Sprintf("crashes_rate%d", r)] = float64(out.crashes)
	}
	return &Result{
		ID: "ablate-proberate", Title: "Probe rate ablation",
		Headline: fmt.Sprintf(
			"slow probing (5/tick) wanders (stddev %.1f mV); fast probing (500/tick) pins the rail (%.1f mV)",
			metrics["stddev_mv_rate5"], metrics["stddev_mv_rate500"]),
		Table:   tbl,
		Metrics: metrics,
	}, nil
}

func runAblateStep(o Options) (*Result, error) {
	steps := []float64{0.0025, 0.005, 0.010, 0.020}
	tbl := NewTextTable("step", "avg reduction", "in-band fraction", "crashes")
	metrics := map[string]float64{}
	for _, st := range steps {
		cp := chip.DefaultParams(o.Seed, true, o.Full)
		cp.Rail.StepV = st
		out, err := runAblationConfig(o, cp, control.DefaultConfig())
		if err != nil {
			return nil, err
		}
		key := int(st * 10000)
		tbl.AddRow(fmt.Sprintf("%.1f mV", st*1000), fmt.Sprintf("%.1f%%", 100*out.avgReduction),
			fmt.Sprintf("%.2f", out.inBand), fmt.Sprintf("%d", out.crashes))
		metrics[fmt.Sprintf("inband_step%d", key)] = out.inBand
		metrics[fmt.Sprintf("reduction_step%d", key)] = out.avgReduction
	}
	return &Result{
		ID: "ablate-step", Title: "Regulator step ablation",
		Headline: fmt.Sprintf(
			"fine steps regulate best: in-band fraction %.2f at 2.5 mV vs %.2f at 20 mV",
			metrics["inband_step25"], metrics["inband_step200"]),
		Table:   tbl,
		Metrics: metrics,
	}, nil
}

func runAblateRails(o Options) (*Result, error) {
	configs := []struct {
		name         string
		coresPerRail int
	}{
		{"per-core rails", 1},
		{"core pairs (paper)", 2},
		{"quad sharing", 4},
		{"one chip rail", 8},
	}
	tbl := NewTextTable("granularity", "domains", "avg reduction", "crashes")
	metrics := map[string]float64{}
	for _, cfg := range configs {
		cp := chip.DefaultParams(o.Seed, true, o.Full)
		cp.CoresPerRail = cfg.coresPerRail
		out, err := runAblationConfig(o, cp, control.DefaultConfig())
		if err != nil {
			return nil, err
		}
		tbl.AddRow(cfg.name, fmt.Sprintf("%d", 8/cfg.coresPerRail),
			fmt.Sprintf("%.1f%%", 100*out.avgReduction), fmt.Sprintf("%d", out.crashes))
		metrics[fmt.Sprintf("reduction_per%d", cfg.coresPerRail)] = out.avgReduction
		metrics[fmt.Sprintf("crashes_per%d", cfg.coresPerRail)] = float64(out.crashes)
	}
	return &Result{
		ID: "ablate-rails", Title: "Rail granularity ablation",
		Headline: fmt.Sprintf(
			"finer rails speculate deeper: %.1f%% per-core vs %.1f%% chip-wide (a domain is only as low as its weakest line)",
			100*metrics["reduction_per1"], 100*metrics["reduction_per8"]),
		Table:   tbl,
		Metrics: metrics,
	}, nil
}
