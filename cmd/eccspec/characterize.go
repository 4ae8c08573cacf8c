package main

// The characterization commands: the paper's §II per-core sweep, the
// §III-C calibration weak-line map, and the §IV-A4 error profile
// reconstructed from machine-check logs. Each writes a plain-text
// report to w.

import (
	"flag"
	"fmt"
	"io"
	"os"

	"eccspec/internal/chip"
	"eccspec/internal/control"
	"eccspec/internal/engine"
	"eccspec/internal/experiments"
	"eccspec/internal/workload"
)

// calibrateCmd runs the boot-time calibration procedure (§III-C) on a
// simulated chip and writes the resulting weak-line map: for every
// voltage domain, the cache line whose ECC monitor will guide
// speculation, with its onset voltage and how it compares to the
// domain's crash-relevant floors.
func calibrateCmd(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("calibrate", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "chip seed")
	full := fs.Bool("full", false, "full Table I cache geometry")
	high := fs.Bool("high", false, "use the 2.53 GHz / 1.1 V operating point")
	aged := fs.Float64("aged", 0, "pre-age the SRAM arrays by this many hours")
	if err := fs.Parse(args); err != nil {
		return err
	}

	c := chip.New(chip.DefaultParams(*seed, !*high, *full))
	for _, co := range c.Cores {
		co.SetWorkload(workload.Idle(), *seed)
		if *aged > 0 {
			co.Hier.L2D.Array().SetAge(*aged)
			co.Hier.L2I.Array().SetAge(*aged)
		}
	}
	ctl := control.New(c, control.DefaultConfig(), nil)
	assigns, err := ctl.Calibrate()
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "chip seed %d, %s point, %d domains", *seed, c.P.Point.Name, len(c.Domains))
	if *aged > 0 {
		fmt.Fprintf(w, ", aged %.0f h", *aged)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w)
	for _, a := range assigns {
		co := c.Cores[a.Core]
		arr := co.CacheOf(a.Kind).Array()
		p := arr.LineProfile(a.Set, a.Way)
		fmt.Fprintf(w, "%s\n", a)
		fmt.Fprintf(w, "  weakest cell Vcrit %.3f V, double-bit point %.3f V, logic floor %.3f V\n",
			p.Vmax(), p.PairVcrit(), co.LogicVmin())
		fmt.Fprintf(w, "  speculation margin below onset: %.0f mV\n\n",
			1000*(a.OnsetV-max(p.PairVcrit(), co.LogicVmin())))
	}
	return nil
}

// sweepCmd characterizes a simulated chip the way §II of the paper
// characterizes the Itanium: it runs the stress test on one core at a
// time, lowers that core's rail in 5 mV steps, and writes the
// first-correctable-error voltage, the minimum safe voltage, and the
// speculation ranges for every core.
func sweepCmd(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "chip seed")
	full := fs.Bool("full", false, "full Table I cache geometry")
	high := fs.Bool("high", false, "use the 2.53 GHz / 1.1 V operating point")
	ticks := fs.Int("ticks", 30, "control ticks to dwell per voltage level")
	if err := fs.Parse(args); err != nil {
		return err
	}

	c, _, _ := engine.NewCell(engine.CellSpec{Params: chip.DefaultParams(*seed, !*high, *full),
		Workloads: []workload.Profile{workload.Idle()}})
	nominal := c.P.Point.NominalVdd
	fmt.Fprintf(w, "chip seed %d, %s point, nominal %.3f V, %d ticks/level\n\n",
		*seed, c.P.Point.Name, nominal, *ticks)
	fmt.Fprintf(w, "%-6s  %-11s  %-10s  %-14s  %-10s\n",
		"core", "first error", "min safe", "error-free", "corr range")

	for id := range c.Cores {
		sw := experiments.SweepCore(c, id, *ticks, *seed)
		if sw.MinSafeV == nominal {
			fmt.Fprintf(os.Stderr, "eccspec sweep: core %d never crashed above 0.3 V\n", id)
		}
		errFree, corr := "n/a", "n/a"
		if sw.FirstErrV > 0 {
			errFree = fmt.Sprintf("%.0f mV", 1000*(nominal-sw.FirstErrV))
			corr = fmt.Sprintf("%.0f mV", 1000*(sw.FirstErrV-sw.MinSafeV))
		}
		fmt.Fprintf(w, "core %d  %-11s  %-10s  %-14s  %-10s\n",
			id, fmtVolts(sw.FirstErrV), fmtVolts(sw.MinSafeV), errFree, corr)
	}
	return nil
}

func fmtVolts(v float64) string {
	if v == 0 {
		return "-"
	}
	return fmt.Sprintf("%.3f V", v)
}

// errprofileCmd characterizes a chip's correctable-error profile from
// its machine-check logs, the way the paper's firmware hooks did
// (§IV-A4): run the stress test at a chosen voltage offset for a while,
// then reconstruct which cache lines reported errors, how often, and
// confirm that the same few lines dominate — the determinism the
// speculation design rests on.
func errprofileCmd(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("errprofile", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "chip seed")
	offsetMV := fs.Float64("offset", 150, "voltage offset below nominal, in mV")
	seconds := fs.Float64("seconds", 2.0, "simulated run time")
	top := fs.Int("top", 12, "show the K most active lines")
	full := fs.Bool("full", false, "full Table I cache geometry")
	if err := fs.Parse(args); err != nil {
		return err
	}

	c, _, _ := engine.NewCell(engine.CellSpec{Params: chip.DefaultParams(*seed, true, *full),
		Workloads: []workload.Profile{workload.StressTest()}})
	v := c.P.Point.NominalVdd - *offsetMV/1000
	for _, d := range c.Domains {
		d.Rail.SetTarget(v)
	}

	ticks := int(*seconds / c.P.TickSeconds)
	engine.Ticks(c, nil, ticks, func(_ int, _ chip.TickReport, _ []control.Action) bool {
		for _, co := range c.Cores {
			if !co.Alive() {
				co.Revive() // keep characterizing, as a reboot loop would
			}
		}
		return true
	})

	reported, suppressed := c.MCA.Counts()
	fmt.Fprintf(w, "chip seed %d at %.0f mV below nominal for %.1f s\n", *seed, *offsetMV, *seconds)
	fmt.Fprintf(w, "%d reports logged, %d raw events folded by CMCI throttling\n\n",
		reported, suppressed)

	prof := c.MCA.Profile()
	if len(prof) == 0 {
		fmt.Fprintln(w, "no correctable errors at this offset — try a larger -offset")
		return nil
	}
	fmt.Fprintf(w, "%-6s %-8s %-5s %-4s %-8s %-7s\n", "core", "bank", "set", "way", "reports", "events")
	shown := min(*top, len(prof))
	for _, pe := range prof[:shown] {
		fmt.Fprintf(w, "core%-2d %-8s %-5d %-4d %-8d %-7d\n",
			pe.Core, pe.Bank, pe.Set, pe.Way, pe.Events, pe.Total)
	}
	if len(prof) > shown {
		fmt.Fprintf(w, "... and %d more lines\n", len(prof)-shown)
	}
	fmt.Fprintf(w, "\ndistinct lines reporting: %d (out of %d L2 lines per core)\n",
		len(prof), c.P.Hier.L2D.Sets*c.P.Hier.L2D.Ways+c.P.Hier.L2I.Sets*c.P.Hier.L2I.Ways)
	return nil
}
