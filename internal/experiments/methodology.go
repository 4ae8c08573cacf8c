package experiments

import (
	"fmt"
	"math"

	"eccspec/internal/chip"
	"eccspec/internal/control"
	"eccspec/internal/engine"
	"eccspec/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "methodology",
		Title: "Hardware ECC monitor vs the paper's firmware self-test approximation",
		Paper: "Section IV-A",
		Run:   runMethodology,
	})
}

// runMethodology validates the paper's evaluation methodology: the
// authors could not add a real ECC monitor to production silicon, so
// they approximated it with a firmware self-test running on each core's
// second hardware thread (§IV-A2). This experiment runs the identical
// chip under both configurations and verifies (a) the converged voltages
// match step-for-step — the approximation measures the same physical
// quantity — while (b) the firmware version pays a measurable
// useful-work cost for probing with core cycles instead of idle cache
// cycles (the overhead §V-F cites as one reason to build the hardware).
func runMethodology(o Options) (*Result, error) {
	type outcome struct {
		targets []float64
		epw     float64
	}
	run := func(firmwareProbe bool) (outcome, error) {
		c, ctl, err := engine.NewCell(engine.CellSpec{Params: chip.DefaultParams(o.Seed, true, o.Full),
			Workloads: workload.Suites()["SPECint"], Calibrate: !firmwareProbe})
		if firmwareProbe && err == nil {
			// The firmware self-test agents are this experiment's alone.
			ctl = control.NewFirmwareApproximation(c, control.DefaultConfig())
			_, err = ctl.Calibrate()
		}
		if err != nil {
			return outcome{}, err
		}
		converge := o.scale(1500, 200)
		measure := o.scale(1500, 200)
		settle(c, ctl, converge, nil)
		sums := make([]float64, len(c.Domains))
		engine.Ticks(c, ctl, measure, func(_ int, _ chip.TickReport, _ []control.Action) bool {
			for d := range c.Domains {
				sums[d] += c.Domains[d].Rail.Target()
			}
			return true
		})
		var out outcome
		for d := range sums {
			out.targets = append(out.targets, sums[d]/float64(measure))
		}
		e, w, err := coreTotals(c)
		if err != nil {
			return outcome{}, fmt.Errorf("experiments: %w (firmware=%v)", err, firmwareProbe)
		}
		out.epw = e / w
		return out, nil
	}

	hw, err := run(false)
	if err != nil {
		return nil, err
	}
	fw, err := run(true)
	if err != nil {
		return nil, err
	}

	tbl := NewTextTable("domain", "hardware monitor", "firmware self-test", "difference")
	maxDiff := 0.0
	for d := range hw.targets {
		diff := fw.targets[d] - hw.targets[d]
		if math.Abs(diff) > maxDiff {
			maxDiff = math.Abs(diff)
		}
		tbl.AddRow(fmt.Sprintf("domain %d", d),
			fmt.Sprintf("%.3f V", hw.targets[d]),
			fmt.Sprintf("%.3f V", fw.targets[d]),
			fmt.Sprintf("%+.1f mV", 1000*diff))
	}
	penalty := fw.epw/hw.epw - 1
	return &Result{
		ID: "methodology", Title: "Monitor vs firmware self-test approximation",
		Headline: fmt.Sprintf(
			"converged voltages agree within %.1f mV; firmware probing costs %.2f%% extra energy per unit of work",
			1000*maxDiff, 100*penalty),
		Table: tbl,
		Metrics: map[string]float64{
			"max_target_diff_v":  maxDiff,
			"fw_energy_penalty":  penalty,
			"hw_energy_per_work": hw.epw,
			"fw_energy_per_work": fw.epw,
		},
	}, nil
}
