package experiments

import (
	"fmt"

	"eccspec/internal/chip"
	"eccspec/internal/control"
	"eccspec/internal/engine"
	"eccspec/internal/rng"
	"eccspec/internal/sram"
	"eccspec/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "soak",
		Title: "Reliability soak: many chips, churning workloads, no crashes, no corruption",
		Paper: "Section I / IV-C",
		Run:   runSoak,
	})
}

// runSoak reproduces the paper's reliability claim — "dozens of hours of
// testing of multiple chips and cores... our speculation system [operates]
// reliably and without data corruption" (§I), with benchmarks run
// back-to-back to stress context switches (§IV-C). Several chip specimens
// each run the full speculation loop while workloads churn; sentinel data
// is parked in known cache lines and verified at the end. The experiment
// reports total simulated core-hours, crashes, and corrupted sentinels —
// all of which must be zero for the claim to hold.
func runSoak(o Options) (*Result, error) {
	numChips := 4
	phases := []string{"mcf", "crafty", "swim", "jbb-8wh", "stress-test"}
	phaseTicks := o.scale(1200, 150)
	converge := o.scale(1200, 150)

	crashes, corrupted := 0, 0
	var coreSeconds float64
	for i := 0; i < numChips; i++ {
		seed := o.Seed + uint64(i)*101
		c, ctl, err := engine.NewCell(engine.CellSpec{Params: chip.DefaultParams(seed, true, o.Full),
			Workloads: idleCores, Calibrate: true})
		if err != nil {
			return nil, fmt.Errorf("chip %d: %w", i, err)
		}

		// Park sentinel data in a handful of L2D lines per core —
		// including each cache's weakest *enabled* line — to verify no
		// silent corruption at the end.
		type sentinel struct {
			core, set, way int
			data           [sram.WordsPerLine]uint64
		}
		var sentinels []sentinel
		for _, co := range c.Cores {
			l2d := co.Hier.L2D
			for s := 0; s < 3; s++ {
				set := int(rng.Hash(seed, uint64(co.ID), uint64(s)) % uint64(l2d.Config().Sets))
				way := int(rng.Hash(seed, uint64(co.ID), uint64(s), 7) % uint64(l2d.Config().Ways))
				if l2d.LineDisabled(set, way) {
					continue
				}
				var data [sram.WordsPerLine]uint64
				for w := range data {
					data[w] = rng.Hash(seed, 0x5E17, uint64(co.ID), uint64(s), uint64(w))
				}
				l2d.WriteLine(set, way, data)
				sentinels = append(sentinels, sentinel{co.ID, set, way, data})
			}
		}

		engine.Ticks(c, ctl, converge, nil)
		for _, name := range phases {
			p, ok := workload.ByName(name)
			if !ok {
				return nil, fmt.Errorf("unknown benchmark %s", name)
			}
			for _, co := range c.Cores {
				co.SetWorkload(p, seed)
			}
			engine.Ticks(c, ctl, phaseTicks, func(_ int, rep chip.TickReport, _ []control.Action) bool {
				for _, cr := range rep.Cores {
					if cr.Fatal {
						crashes++
						c.Cores[cr.CoreID].Revive()
					}
				}
				return true
			})
		}
		coreSeconds += c.Time() * float64(len(c.Cores))

		// Verify the sentinels at a safe read voltage: decoded contents
		// must match exactly what was written.
		for _, sn := range sentinels {
			res := c.Cores[sn.core].Hier.L2D.ReadLine(sn.set, sn.way, 0.95)
			if res.Data != sn.data {
				corrupted++
			}
		}
	}

	tbl := NewTextTable("metric", "value")
	tbl.AddRow("chips", fmt.Sprintf("%d", numChips))
	tbl.AddRow("simulated core-time", fmt.Sprintf("%.1f core-seconds", coreSeconds))
	tbl.AddRow("workload phases per chip", fmt.Sprintf("%d (back-to-back)", len(phases)))
	tbl.AddRow("crashes", fmt.Sprintf("%d", crashes))
	tbl.AddRow("corrupted sentinel lines", fmt.Sprintf("%d", corrupted))
	return &Result{
		ID: "soak", Title: "Reliability soak",
		Headline: fmt.Sprintf(
			"%d chips, %.0f simulated core-seconds of churning workloads: %d crashes, %d corrupted lines",
			numChips, coreSeconds, crashes, corrupted),
		Table: tbl,
		Metrics: map[string]float64{
			"chips":        float64(numChips),
			"core_seconds": coreSeconds,
			"crashes":      float64(crashes),
			"corrupted":    float64(corrupted),
		},
	}, nil
}
