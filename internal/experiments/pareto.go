package experiments

import (
	"fmt"

	"eccspec/internal/chip"
	"eccspec/internal/engine"
	"eccspec/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "pareto",
		Title: "Energy-performance frontier with and without ECC-guided speculation",
		Paper: "Section I (extension)",
		Run:   runPareto,
	})
}

// runPareto casts the paper's motivation (§I: handheld systems want both
// performance and battery life) as an explicit frontier: at each
// operating frequency the chip delivers a fixed performance (in
// instructions per second) and some energy per instruction; speculation
// moves every point down the energy axis without touching performance.
// The headline metric is the iso-energy performance gain: how much
// faster the speculated chip can run on the unspeculated chip's energy
// budget.
func runPareto(o Options) (*Result, error) {
	freqs := []float64{340e6, 500e6, 750e6, 1000e6}
	converge := o.scale(1500, 200)
	measure := o.scale(1500, 200)

	type point struct {
		freq    float64
		gips    float64 // delivered instructions per second, chip-wide
		epwBase float64 // joules per instruction, nominal voltage
		epwSpec float64 // joules per instruction, speculated
	}
	var pts []point
	for _, f := range freqs {
		params := chip.DefaultParamsAt(o.Seed, f, o.Full)
		measureRun := func(speculate bool) (epw, work float64, err error) {
			c, ctl, err := engine.NewCell(engine.CellSpec{Params: params,
				Workloads: workload.Suites()["SPECint"], Calibrate: speculate})
			if err != nil {
				return 0, 0, err
			}
			window := converge
			if !speculate {
				ctl, window = nil, 0 // the baseline runs without a controller
			}
			settle(c, ctl, window, nil)
			engine.Ticks(c, ctl, measure, nil)
			e, work, err := coreTotals(c)
			if err != nil {
				return 0, 0, fmt.Errorf("%w at %.0f MHz (spec=%v)", err, f/1e6, speculate)
			}
			return e / work, work, nil
		}
		epwB, work, err := measureRun(false)
		if err != nil {
			return nil, err
		}
		epwS, _, err := measureRun(true)
		if err != nil {
			return nil, err
		}
		seconds := float64(measure) * params.TickSeconds
		pts = append(pts, point{freq: f, gips: work / seconds / 1e9,
			epwBase: epwB, epwSpec: epwS})
	}

	tbl := NewTextTable("frequency", "performance", "nJ/inst (nominal)", "nJ/inst (speculated)", "energy saved")
	metrics := map[string]float64{}
	for _, p := range pts {
		key := fmt.Sprintf("%.0f", p.freq/1e6)
		metrics["epw_base_mhz"+key] = p.epwBase
		metrics["epw_spec_mhz"+key] = p.epwSpec
		metrics["gips_mhz"+key] = p.gips
		tbl.AddRow(fmt.Sprintf("%.0f MHz", p.freq/1e6),
			fmt.Sprintf("%.2f GIPS", p.gips),
			fmt.Sprintf("%.3f", p.epwBase*1e9),
			fmt.Sprintf("%.3f", p.epwSpec*1e9),
			fmt.Sprintf("%.1f%%", 100*(1-p.epwSpec/p.epwBase)))
	}
	// Iso-energy gain: the fastest speculated tier whose energy per
	// instruction undercuts the *slowest* nominal tier's.
	baseBudget := pts[0].epwBase
	gain := 1.0
	for _, p := range pts {
		if p.epwSpec <= baseBudget && p.gips/pts[0].gips > gain {
			gain = p.gips / pts[0].gips
		}
	}
	metrics["iso_energy_perf_gain"] = gain
	return &Result{
		ID: "pareto", Title: "Energy-performance frontier",
		Headline: fmt.Sprintf(
			"at the 340 MHz nominal energy budget, speculation affords %.2fx the performance",
			gain),
		Table:   tbl,
		Metrics: metrics,
	}, nil
}
