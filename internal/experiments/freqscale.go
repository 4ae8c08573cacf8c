package experiments

import (
	"fmt"

	"eccspec/internal/chip"
	"eccspec/internal/control"
	"eccspec/internal/engine"
	"eccspec/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "freqscale",
		Title: "Speculation benefit vs operating frequency (the §II-A production range)",
		Paper: "Section II-A (extension)",
		Run:   runFreqScale,
	})
}

// runFreqScale quantifies the paper's §II-A remark that a production
// low-voltage system would run at 500 MHz - 1 GHz rather than the
// characterization floor of 340 MHz: at each interpolated operating
// point the full calibrate-and-speculate loop runs and reports the Vdd
// reduction and power savings achieved. The benefit shrinks as frequency
// grows — the correctable-error range narrows back toward the thin
// high-voltage margins that made nominal-voltage speculation ([4])
// conservative in the first place.
func runFreqScale(o Options) (*Result, error) {
	freqs := []float64{340e6, 500e6, 750e6, 1000e6, 1500e6}
	converge := o.scale(1500, 200)
	measure := o.scale(1500, 200)

	tbl := NewTextTable("frequency", "nominal Vdd", "avg speculated Vdd", "reduction", "power saving")
	metrics := map[string]float64{}
	var reductions []float64
	for _, f := range freqs {
		params := chip.DefaultParamsAt(o.Seed, f, o.Full)
		spec := engine.CellSpec{Params: params, Workloads: workload.Suites()["SPECint"], Calibrate: true}
		c, ctl, err := engine.NewCell(spec)
		if err != nil {
			return nil, fmt.Errorf("%.0f MHz: %w", f/1e6, err)
		}
		settle(c, ctl, converge, nil)
		sumV := 0.0
		engine.Ticks(c, ctl, measure, func(_ int, _ chip.TickReport, _ []control.Action) bool {
			for _, d := range c.Domains {
				sumV += d.Rail.Target()
			}
			return true
		})
		avgV := sumV / float64(measure*len(c.Domains))
		nominal := params.Point.NominalVdd
		reduction := 1 - avgV/nominal

		// Power relative to the same chip at its own nominal.
		spec.Calibrate = false
		b, _, _ := engine.NewCell(spec)
		engine.Ticks(b, nil, measure, nil)
		if _, _, err := coreTotals(c); err != nil {
			return nil, fmt.Errorf("%.0f MHz: %w", f/1e6, err)
		}
		var pSpec, pBase float64
		for i, co := range c.Cores {
			pSpec += co.AveragePower()
			pBase += b.Cores[i].AveragePower()
		}
		saving := 1 - pSpec/pBase

		key := fmt.Sprintf("%.0f", f/1e6)
		metrics["reduction_mhz"+key] = reduction
		metrics["power_saving_mhz"+key] = saving
		reductions = append(reductions, reduction)
		tbl.AddRow(fmt.Sprintf("%.0f MHz", f/1e6),
			fmt.Sprintf("%.0f mV", 1000*nominal),
			fmt.Sprintf("%.0f mV", 1000*avgV),
			fmt.Sprintf("%.1f%%", 100*reduction),
			fmt.Sprintf("%.1f%%", 100*saving))
	}
	return &Result{
		ID: "freqscale", Title: "Speculation benefit vs frequency",
		Headline: fmt.Sprintf(
			"Vdd reduction shrinks from %.1f%% at 340 MHz to %.1f%% at 1.5 GHz as margins re-tighten",
			100*reductions[0], 100*reductions[len(reductions)-1]),
		Table:   tbl,
		Metrics: metrics,
	}, nil
}
