package experiments

import (
	"fmt"

	"eccspec/internal/chip"
	"eccspec/internal/engine"
	"eccspec/internal/stats"
	"eccspec/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "fig13",
		Title: "Probability of a single-bit error vs supply voltage (four cores)",
		Paper: "Figure 13",
		Run:   runFig13,
	})
}

// runFig13 reproduces the cache-line sensitivity study: on four cores
// with different error profiles, run the targeted self-test on the
// designated weak line while lowering the probe voltage, and measure the
// per-access single-bit error probability curve.
func runFig13(o Options) (*Result, error) {
	c, ctl, err := engine.NewCell(engine.CellSpec{Params: chip.DefaultParams(o.Seed, true, o.Full),
		Workloads: idleCores, Calibrate: true})
	if err != nil {
		return nil, err
	}

	probes := o.scale(400, 100)
	type curve struct {
		core     int
		onset    float64 // highest V with measurable errors
		v50      float64 // ~50% crossing
		rampMV   float64 // 1%..99% span
		fullAt   float64
		recorder *trace.Recorder
	}
	var curves []curve
	tbl := NewTextTable("domain", "core", "onset V", "50% V", "ramp width")

	for d, dom := range c.Domains {
		a, ok := ctl.Assignment(dom.ID)
		if !ok {
			continue
		}
		mon := ctl.ActiveMonitor(dom.ID)
		rec := trace.NewRecorder("errProb")
		cv := curve{core: a.Core, recorder: rec}
		for v := c.P.Point.NominalVdd; v >= 0.45; v -= 0.005 {
			mon.ResetCounters()
			mon.ProbeN(probes, v)
			rate := mon.ErrorRate()
			mon.TakeEmergency() // drain the latch; this is a probe study
			rec.Add(v, rate)
			if rate > 0.01 && cv.onset == 0 {
				cv.onset = v
			}
			if rate >= 0.5 && cv.v50 == 0 {
				cv.v50 = v
			}
			if rate >= 0.99 && cv.fullAt == 0 {
				cv.fullAt = v
				break
			}
		}
		if cv.onset > 0 && cv.fullAt > 0 {
			cv.rampMV = 1000 * (cv.onset - cv.fullAt)
		}
		curves = append(curves, cv)
		tbl.AddRow(fmt.Sprintf("domain %d", d), fmt.Sprintf("core %d", cv.core),
			fmt.Sprintf("%.3f V", cv.onset), fmt.Sprintf("%.3f V", cv.v50),
			fmt.Sprintf("%.0f mV", cv.rampMV))
	}
	if len(curves) < 2 {
		return nil, fmt.Errorf("experiments: fig13 needs at least two calibrated domains")
	}

	var v50s, ramps []float64
	var recs []*trace.Recorder
	for _, cv := range curves {
		if cv.v50 > 0 {
			v50s = append(v50s, cv.v50)
		}
		if cv.rampMV > 0 {
			ramps = append(ramps, cv.rampMV)
		}
		recs = append(recs, cv.recorder)
	}
	return &Result{
		ID: "fig13", Title: "Cache line sensitivity at low voltage",
		Headline: fmt.Sprintf("error ramps span %.0f-%.0f mV; 50%% points spread over %.0f mV across cores",
			stats.Min(ramps), stats.Max(ramps), 1000*(stats.Max(v50s)-stats.Min(v50s))),
		Table:  tbl,
		Series: recs,
		Metrics: map[string]float64{
			"ramp_min_mv":  stats.Min(ramps),
			"ramp_max_mv":  stats.Max(ramps),
			"v50_spread_v": stats.Max(v50s) - stats.Min(v50s),
			"curves":       float64(len(curves)),
		},
	}, nil
}
