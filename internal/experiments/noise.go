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
		ID:    "fig14",
		Title: "Dynamic adaptation to stress-kernel load swings (main core idle / SPECfp)",
		Paper: "Figure 14",
		Run:   runFig14,
	})
	register(Experiment{
		ID:    "fig15",
		Title: "Cache line sensitivity to voltage noise vs virus NOP count",
		Paper: "Figure 15",
		Run:   runFig15,
	})
	register(Experiment{
		ID:    "fig16",
		Title: "Error rate vs supply voltage under different auxiliary loads",
		Paper: "Figure 16",
		Run:   runFig16,
	})
}

// runFig14 reproduces the §V-D1 robustness test: the auxiliary core of a
// domain runs the 30 s on / 30 s off stress kernel while the main core is
// either idle (a) or running SPECfp (b); the controller must track the
// square-wave load.
func runFig14(o Options) (*Result, error) {
	runCase := func(mainFP bool) (*trace.Recorder, []float64, []float64, []float64, error) {
		p := chip.DefaultParams(o.Seed, true, o.Full)
		// A coarser tick keeps the two-minute trace tractable; the
		// stress kernel's 30-second phases are far slower than either.
		p.TickSeconds = 10e-3
		c, ctl, err := engine.NewCell(engine.CellSpec{Params: p, Workloads: idleCores, Calibrate: true})
		if err != nil {
			return nil, nil, nil, nil, err
		}
		if mainFP {
			fp := workload.SPECfp()
			c.Cores[0].SetWorkload(fp[0], o.Seed)
		}
		c.Cores[1].SetWorkload(workload.StressKernel(), o.Seed)
		converge := o.scale(1200, 200)
		engine.Ticks(c, ctl, converge, nil)
		ticks := o.scale(12000, 1200) // 120 simulated seconds
		rec := trace.NewRecorder("vdd", "errRate")
		var vHigh, vLow, vEff []float64
		kernel := c.Cores[1].Workload()
		engine.Ticks(c, ctl, ticks, func(_ int, _ chip.TickReport, acts []control.Action) bool {
			for _, a := range acts {
				if a.Domain == 0 && a.Kind != control.Pending {
					rec.Add(c.Time(), a.NewTarget, a.ErrorRate)
				}
			}
			// Classify the setpoint sample by the kernel's phase: the
			// square wave shows up in the regulator target, which rises
			// while the kernel loads the rail and falls when it idles.
			inHigh := int(kernel.Elapsed()/30)%2 == 0
			if inHigh {
				vHigh = append(vHigh, c.Domains[0].Rail.Target())
			} else {
				vLow = append(vLow, c.Domains[0].Rail.Target())
			}
			// The sensed (drooped) voltage is what the paper's power
			// telemetry reports; its average is lower in the loaded-
			// main-core case.
			vEff = append(vEff, c.Domains[0].LastEffective())
			return true
		})
		if !c.Cores[0].Alive() || !c.Cores[1].Alive() {
			return nil, nil, nil, nil, fmt.Errorf("experiments: crash during fig14 (mainFP=%v)", mainFP)
		}
		return rec, vHigh, vLow, vEff, nil
	}

	recIdle, hiIdle, loIdle, effIdle, err := runCase(false)
	if err != nil {
		return nil, err
	}
	recFP, hiFP, loFP, effFP, err := runCase(true)
	if err != nil {
		return nil, err
	}

	tbl := NewTextTable("case", "setpoint (kernel on)", "setpoint (kernel off)", "swing", "avg sensed V")
	tbl.AddRow("main idle",
		fmt.Sprintf("%.3f V", stats.Mean(hiIdle)), fmt.Sprintf("%.3f V", stats.Mean(loIdle)),
		fmt.Sprintf("%.1f mV", 1000*(stats.Mean(hiIdle)-stats.Mean(loIdle))),
		fmt.Sprintf("%.3f V", stats.Mean(effIdle)))
	tbl.AddRow("main SPECfp",
		fmt.Sprintf("%.3f V", stats.Mean(hiFP)), fmt.Sprintf("%.3f V", stats.Mean(loFP)),
		fmt.Sprintf("%.1f mV", 1000*(stats.Mean(hiFP)-stats.Mean(loFP))),
		fmt.Sprintf("%.3f V", stats.Mean(effFP)))
	swingIdle := stats.Mean(hiIdle) - stats.Mean(loIdle)
	swingFP := stats.Mean(hiFP) - stats.Mean(loFP)
	return &Result{
		ID: "fig14", Title: "Adaptation to abrupt load swings",
		Headline: fmt.Sprintf("Vdd tracks the 30 s square wave: swing %.1f mV (idle), %.1f mV (SPECfp)",
			1000*swingIdle, 1000*swingFP),
		Table:  tbl,
		Series: []*trace.Recorder{recIdle, recFP},
		Metrics: map[string]float64{
			"swing_idle_v":        swingIdle,
			"swing_specfp_v":      swingFP,
			"avg_on_idle_v":       stats.Mean(hiIdle),
			"avg_off_idle_v":      stats.Mean(loIdle),
			"avg_on_specfp_v":     stats.Mean(hiFP),
			"avg_sensed_idle_v":   stats.Mean(effIdle),
			"avg_sensed_specfp_v": stats.Mean(effFP),
		},
	}, nil
}

// fig15Setup calibrates a chip and parks the main domain at a probing
// voltage with a small margin above the monitored line's onset, where
// the error rate is near zero without extra droop.
func fig15Setup(o Options) (*chip.Chip, *control.System, error) {
	c, ctl, err := engine.NewCell(engine.CellSpec{Params: chip.DefaultParams(o.Seed, true, o.Full),
		Workloads: idleCores, Calibrate: true})
	if err != nil {
		return nil, nil, err
	}
	a, _ := ctl.Assignment(0)
	// Position the rail so the quiescent effective voltage sits just
	// above the monitored line's onset.
	c.Domains[0].Rail.SetTarget(a.OnsetV + 0.015)
	return c, ctl, nil
}

func runFig15(o Options) (*Result, error) {
	c, ctl, err := fig15Setup(o)
	if err != nil {
		return nil, err
	}
	mon := ctl.ActiveMonitor(0)
	clock := c.P.Point.FrequencyHz
	accesses := o.scale(500, 100)

	tbl := NewTextTable("NOP count", "errors", "osc freq (MHz)")
	var nops []float64
	var errs []float64
	for n := 0; n <= 20; n++ {
		prof := workload.Virus(n, clock)
		c.Cores[1].SetWorkload(prof, o.Seed)
		c.Step() // establish this virus's droop
		mon.ResetCounters()
		mon.ProbeN(accesses, c.Domains[0].LastEffective())
		mon.TakeEmergency()
		_, e := mon.Counters()
		nops = append(nops, float64(n))
		errs = append(errs, float64(e))
		tbl.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%d", e),
			fmt.Sprintf("%.1f", prof.OscFreqHz/1e6))
	}

	// Locate the peak.
	peakN, peakE := 0, -1.0
	for i := range nops {
		if errs[i] > peakE {
			peakE = errs[i]
			peakN = int(nops[i])
		}
	}
	return &Result{
		ID: "fig15", Title: "Voltage-noise sensitivity vs virus NOP count",
		Headline: fmt.Sprintf("error count peaks at NOP-%d (%d errors / %d accesses): the resonance-frequency virus",
			peakN, int(peakE), accesses),
		Table: tbl,
		Metrics: map[string]float64{
			"peak_nop":    float64(peakN),
			"peak_errors": peakE,
			"nop0_errors": errs[0],
			"nop20_errors": func() float64 {
				return errs[len(errs)-1]
			}(),
		},
	}, nil
}

func runFig16(o Options) (*Result, error) {
	c, ctl, err := fig15Setup(o)
	if err != nil {
		return nil, err
	}
	mon := ctl.ActiveMonitor(0)
	clock := c.P.Point.FrequencyHz
	accesses := o.scale(500, 100)
	a, _ := ctl.Assignment(0)

	cases := []struct {
		name string
		load workload.Profile
	}{
		{"Aux NOP-8", workload.Virus(8, clock)},
		{"Aux NOP-0", workload.Virus(0, clock)},
		{"No aux load", workload.Idle()},
	}
	recs := make([]*trace.Recorder, len(cases))
	sums := make([]float64, len(cases))
	tbl := NewTextTable("Vdd", cases[0].name, cases[1].name, cases[2].name)

	type row struct {
		v     float64
		rates [3]float64
	}
	var rows []row
	for v := a.OnsetV + 0.030; v >= a.OnsetV-0.020; v -= 0.005 {
		r := row{v: v}
		for i, cs := range cases {
			if recs[i] == nil {
				recs[i] = trace.NewRecorder("errRate")
			}
			c.Cores[1].SetWorkload(cs.load, o.Seed)
			c.Domains[0].Rail.SetTarget(v)
			c.Step()
			mon.ResetCounters()
			mon.ProbeN(accesses, c.Domains[0].LastEffective())
			mon.TakeEmergency()
			r.rates[i] = mon.ErrorRate()
			recs[i].Add(v, r.rates[i])
			sums[i] += r.rates[i]
		}
		rows = append(rows, r)
		tbl.AddRow(fmt.Sprintf("%.3f V", v),
			fmt.Sprintf("%.3f", r.rates[0]), fmt.Sprintf("%.3f", r.rates[1]),
			fmt.Sprintf("%.3f", r.rates[2]))
	}
	return &Result{
		ID: "fig16", Title: "Error rate vs Vdd under auxiliary loads",
		Headline: fmt.Sprintf("NOP-8 curve dominates across the range (mean rate %.3f vs NOP-0 %.3f vs idle %.3f)",
			sums[0]/float64(len(rows)), sums[1]/float64(len(rows)), sums[2]/float64(len(rows))),
		Table:  tbl,
		Series: recs,
		Metrics: map[string]float64{
			"mean_rate_nop8": sums[0] / float64(len(rows)),
			"mean_rate_nop0": sums[1] / float64(len(rows)),
			"mean_rate_idle": sums[2] / float64(len(rows)),
		},
	}, nil
}
