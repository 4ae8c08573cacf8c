package experiments

import (
	"fmt"

	"eccspec/internal/chip"
	"eccspec/internal/control"
	"eccspec/internal/engine"
	"eccspec/internal/stats"
	"eccspec/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "uncorespec",
		Title: "Extending speculation to the uncore rail via the L3's weak lines",
		Paper: "Section IV-A4 (extension)",
		Run:   runUncoreSpec,
	})
}

// runUncoreSpec quantifies the extension the paper leaves unexplored:
// its system scales only the four core rails while the uncore (L3 and
// memory controllers) stays at the 800 mV nominal. The L3 is ECC SRAM
// like the L2s, so the identical calibrate-monitor-regulate mechanism
// applies to the uncore supply. Two runs on the same chip — cores-only
// vs cores+uncore — show how much of the remaining chip power the
// extension recovers.
func runUncoreSpec(o Options) (*Result, error) {
	converge := o.scale(1800, 250)
	measure := o.scale(1800, 250)

	run := func(withUncore bool) (coreV, uncoreV, totalPower float64, err error) {
		c, ctl, err := engine.NewCell(engine.CellSpec{Params: chip.DefaultParams(o.Seed, true, o.Full),
			Workloads: workload.Suites()["SPECjbb2005"], Calibrate: true})
		if err != nil {
			return 0, 0, 0, err
		}
		if withUncore {
			if _, err := ctl.AttachUncore(); err != nil {
				return 0, 0, 0, err
			}
		}
		settle(c, ctl, converge, nil)
		e0 := c.TotalEnergy()
		t0 := c.Time()
		var sumCore, sumUncore float64
		engine.Ticks(c, ctl, measure, func(_ int, _ chip.TickReport, _ []control.Action) bool {
			for _, d := range c.Domains {
				sumCore += d.Rail.Target()
			}
			sumUncore += c.UncoreRail.Target()
			return true
		})
		if !c.UncoreAlive() {
			return 0, 0, 0, fmt.Errorf("experiments: uncore died under speculation")
		}
		if _, _, err := coreTotals(c); err != nil {
			return 0, 0, 0, fmt.Errorf("experiments: %w", err)
		}
		coreV = sumCore / float64(measure*len(c.Domains))
		uncoreV = sumUncore / float64(measure)
		totalPower = (c.TotalEnergy() - e0) / (c.Time() - t0)
		return coreV, uncoreV, totalPower, nil
	}

	coreV1, uncoreV1, p1, err := run(false)
	if err != nil {
		return nil, err
	}
	coreV2, uncoreV2, p2, err := run(true)
	if err != nil {
		return nil, err
	}

	nominal := 0.800
	tbl := NewTextTable("configuration", "avg core Vdd", "uncore Vdd", "chip power")
	tbl.AddRow("cores only (paper)",
		fmt.Sprintf("%.3f V", coreV1), fmt.Sprintf("%.3f V", uncoreV1),
		fmt.Sprintf("%.1f W", p1))
	tbl.AddRow("cores + uncore",
		fmt.Sprintf("%.3f V", coreV2), fmt.Sprintf("%.3f V", uncoreV2),
		fmt.Sprintf("%.1f W", p2))
	extra := 1 - p2/p1
	return &Result{
		ID: "uncorespec", Title: "Uncore speculation extension",
		Headline: fmt.Sprintf(
			"uncore rail drops from %.0f mV to %.0f mV (%.1f%%), saving another %.1f%% of chip power over cores-only speculation",
			1000*uncoreV1, 1000*uncoreV2, 100*(1-uncoreV2/nominal), 100*extra),
		Table: tbl,
		Metrics: map[string]float64{
			"uncore_v":            uncoreV2,
			"uncore_reduction":    1 - uncoreV2/nominal,
			"extra_power_savings": extra,
			"core_v_shift":        stats.Max([]float64{coreV2 - coreV1, coreV1 - coreV2}),
		},
	}, nil
}
