// Command errprofile characterizes a chip's correctable-error profile
// from its machine-check logs, the way the paper's firmware hooks did
// (§IV-A4): run a workload at a chosen voltage offset for a while, then
// reconstruct which cache lines reported errors, how often, and confirm
// that the same few lines dominate — the determinism the speculation
// design rests on.
//
// Usage:
//
//	errprofile [-seed N] [-offset mV] [-seconds S] [-top K] [-full]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"eccspec/internal/chip"
	"eccspec/internal/control"
	"eccspec/internal/engine"
	"eccspec/internal/workload"
)

func main() {
	run(os.Args[1:], os.Stdout)
}

// run parses args, runs the chip and writes its error profile to w.
func run(args []string, w io.Writer) {
	fs := flag.NewFlagSet("errprofile", flag.ExitOnError)
	seed := fs.Uint64("seed", 1, "chip seed")
	offsetMV := fs.Float64("offset", 150, "voltage offset below nominal, in mV")
	seconds := fs.Float64("seconds", 2.0, "simulated run time")
	top := fs.Int("top", 12, "show the K most active lines")
	full := fs.Bool("full", false, "full Table I cache geometry")
	fs.Parse(args)

	c := chip.New(chip.DefaultParams(*seed, true, *full))
	for _, co := range c.Cores {
		co.SetWorkload(workload.StressTest(), *seed)
	}
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
		return
	}
	fmt.Fprintf(w, "%-6s %-8s %-5s %-4s %-8s %-7s\n", "core", "bank", "set", "way", "reports", "events")
	shown := *top
	if shown > len(prof) {
		shown = len(prof)
	}
	for _, pe := range prof[:shown] {
		fmt.Fprintf(w, "core%-2d %-8s %-5d %-4d %-8d %-7d\n",
			pe.Core, pe.Bank, pe.Set, pe.Way, pe.Events, pe.Total)
	}
	if len(prof) > shown {
		fmt.Fprintf(w, "... and %d more lines\n", len(prof)-shown)
	}
	fmt.Fprintf(w, "\ndistinct lines reporting: %d (out of %d L2 lines per core)\n",
		len(prof), c.P.Hier.L2D.Sets*c.P.Hier.L2D.Ways+c.P.Hier.L2I.Sets*c.P.Hier.L2I.Ways)
}
