package experiments

import (
	"fmt"
	"math"

	"eccspec/internal/control"
	"eccspec/internal/server"
	"eccspec/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "fanspeed",
		Title: "Fan-slowdown temperature excursion on a two-socket blade",
		Paper: "Section III-D",
		Run:   runFanSpeed,
	})
}

// runFanSpeed reruns the paper's §III-D temperature experiment at system
// scope: a two-socket blade converges under closed-loop speculation at
// full fan speed, then the enclosure fans are slowed until the chips run
// ~15-20 C hotter, and the converged voltages are compared. The paper
// "did not observe a measurable effect" for up to 20 C; here the rails
// should move by at most a regulator step or two (leakage rises, so a
// small upward nudge is physical).
func runFanSpeed(o Options) (*Result, error) {
	blade := server.New(server.DefaultParams(o.Seed))
	var ctls []*control.System
	for _, c := range blade.Chips {
		if o.Fast {
			// Fast mode shortens the run below the thermal settling
			// time; accelerate the thermal clock instead (the steady
			// state, which is what the experiment compares, is
			// unchanged).
			c.P.ThermalTau = 0.15
		}
		for _, co := range c.Cores {
			co.SetWorkload(workload.SPECjbb()[0], o.Seed)
		}
		ctl := control.New(c, control.DefaultConfig(), nil)
		if _, err := ctl.Calibrate(); err != nil {
			return nil, err
		}
		ctls = append(ctls, ctl)
	}
	step := func() {
		blade.Step()
		for _, ctl := range ctls {
			ctl.Tick()
		}
	}
	converge := o.scale(2000, 250)
	measure := o.scale(1500, 200)

	record := func() ([]float64, float64) {
		var sums []float64
		for range blade.Chips {
			sums = append(sums, 0, 0, 0, 0)
		}
		tempSum := 0.0
		for t := 0; t < measure; t++ {
			step()
			for ci, c := range blade.Chips {
				for di, d := range c.Domains {
					sums[ci*4+di] += d.Rail.Target()
				}
			}
			tempSum += blade.Chips[0].Cores[0].Temperature()
		}
		for i := range sums {
			sums[i] /= float64(measure)
		}
		return sums, tempSum / float64(measure)
	}

	for t := 0; t < converge; t++ {
		step()
	}
	coolV, coolT := record()

	blade.SetFanSpeed(0.15)
	for t := 0; t < converge; t++ {
		step()
	}
	hotV, hotT := record()

	maxShift := 0.0
	for i := range coolV {
		if d := math.Abs(hotV[i] - coolV[i]); d > maxShift {
			maxShift = d
		}
	}
	for _, c := range blade.Chips {
		for _, co := range c.Cores {
			if !co.Alive() {
				return nil, fmt.Errorf("experiments: core died during fan excursion")
			}
		}
	}

	tbl := NewTextTable("condition", "core temp", "example domain Vdd", "max Vdd shift")
	tbl.AddRow("full fan speed", fmt.Sprintf("%.1f C", coolT),
		fmt.Sprintf("%.3f V", coolV[0]), "-")
	tbl.AddRow("fans slowed to 15%", fmt.Sprintf("%.1f C", hotT),
		fmt.Sprintf("%.3f V", hotV[0]), fmt.Sprintf("%.1f mV", 1000*maxShift))
	return &Result{
		ID: "fanspeed", Title: "Fan-slowdown temperature excursion",
		Headline: fmt.Sprintf(
			"+%.0f C from slowed fans moves converged rails at most %.1f mV — within a couple of regulator steps",
			hotT-coolT, 1000*maxShift),
		Table: tbl,
		Metrics: map[string]float64{
			"temp_rise_c":   hotT - coolT,
			"max_shift_v":   maxShift,
			"cool_temp_c":   coolT,
			"hot_temp_c":    hotT,
			"cool_domain_v": coolV[0],
		},
	}, nil
}
