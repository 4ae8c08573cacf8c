package experiments

import (
	"fmt"
	"math"

	"eccspec/internal/chip"
	"eccspec/internal/control"
	"eccspec/internal/engine"
	"eccspec/internal/variation"
	"eccspec/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "validate",
		Title: "Statistical error model vs functional per-access replay",
		Paper: "Internal validation",
		Run:   runValidate,
	})
}

// runValidate cross-checks the simulation's central shortcut. The chip
// converts workload access counts into Poisson-sampled ECC event counts
// (fast); the Replayer performs every access as a physical read of a
// real line with per-access fault injection and SECDED decoding (slow,
// ground truth). The two must produce the same error rates across the
// voltage range, or every downstream experiment is suspect.
func runValidate(o Options) (*Result, error) {
	// Statistical side: one core under stress at a fixed voltage.
	statRate := func(v float64, ticks int) (float64, error) {
		c, _, _ := engine.NewCell(engine.CellSpec{Params: chip.DefaultParams(o.Seed, true, o.Full),
			Workloads: idleCores})
		co := c.Cores[0]
		co.SetWorkload(workload.StressTest(), o.Seed)
		c.DomainOf(0).Rail.SetTarget(v)
		total := 0
		engine.Ticks(c, nil, ticks, func(_ int, rep chip.TickReport, _ []control.Action) bool {
			total += rep.Cores[0].CorrectedD
			if rep.Cores[0].Fatal {
				co.Revive()
			}
			return true
		})
		// The statistical path samples at the *effective* voltage; the
		// replayer below is driven at the same effective level.
		return float64(total) / (float64(ticks) * c.P.TickSeconds), nil
	}
	// Matching effective voltage for the replayer.
	effectiveOf := func(v float64) float64 {
		c, _, _ := engine.NewCell(engine.CellSpec{Params: chip.DefaultParams(o.Seed, true, o.Full),
			Workloads: idleCores})
		c.Cores[0].SetWorkload(workload.StressTest(), o.Seed)
		c.DomainOf(0).Rail.SetTarget(v)
		rep := c.Step()
		return rep.Cores[0].Effective
	}
	// Functional side: replay the same profile against the same chip's
	// L2D at the effective voltage.
	funcRate := func(v float64, ticks int) float64 {
		c := newChip(o, true)
		dt := c.P.TickSeconds
		r := workload.NewReplayer(workload.StressTest(),
			c.Cores[0].Hier.L2D, variation.KindL2D, o.Seed)
		veff := effectiveOf(v)
		total := 0
		for t := 0; t < ticks; t++ {
			total += r.Tick(dt, veff)
		}
		return float64(total) / (float64(ticks) * dt)
	}

	ticks := o.scale(20000, 2500)
	c0 := newChip(o, true)
	_, _, p := c0.Cores[0].Hier.L2D.Array().WeakestLine()
	onset := p.Vmax()
	// Probe around the weak line's onset, where the control system
	// lives. (Voltages are rail targets; droop is matched across paths.)
	voltages := []float64{onset + 0.025, onset + 0.015, onset + 0.008}

	tbl := NewTextTable("rail target", "statistical (err/s)", "functional (err/s)", "ratio")
	metrics := map[string]float64{}
	worst := 1.0
	for i, v := range voltages {
		sr, err := statRate(v, ticks)
		if err != nil {
			return nil, err
		}
		fr := funcRate(v, ticks)
		ratio := math.NaN()
		if fr > 0 {
			ratio = sr / fr
		}
		tbl.AddRow(fmt.Sprintf("%.3f V", v),
			fmt.Sprintf("%.2f", sr), fmt.Sprintf("%.2f", fr), fmt.Sprintf("%.2f", ratio))
		metrics[fmt.Sprintf("ratio_%d", i)] = ratio
		if !math.IsNaN(ratio) {
			if d := math.Abs(ratio - 1); d > math.Abs(worst-1) {
				worst = ratio
			}
		}
	}
	metrics["worst_ratio"] = worst
	return &Result{
		ID: "validate", Title: "Statistical vs functional error model",
		Headline: fmt.Sprintf(
			"statistical and per-access functional error rates agree within a factor of %.2f across the control range",
			worst),
		Table:   tbl,
		Metrics: metrics,
	}, nil
}
