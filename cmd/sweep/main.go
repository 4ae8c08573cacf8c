// Command sweep characterizes a simulated chip the way §II of the paper
// characterizes the Itanium: it runs the stress test on one core at a
// time, lowers that core's rail in 5 mV steps, and prints the first-
// correctable-error voltage, the minimum safe voltage, and the
// speculation ranges for every core.
//
// Usage:
//
//	sweep [-seed N] [-full] [-high] [-ticks N]
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

// run parses args, characterizes every core and writes the table to w.
func run(args []string, w io.Writer) {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	seed := fs.Uint64("seed", 1, "chip seed")
	full := fs.Bool("full", false, "full Table I cache geometry")
	high := fs.Bool("high", false, "use the 2.53 GHz / 1.1 V operating point")
	ticks := fs.Int("ticks", 30, "control ticks to dwell per voltage level")
	fs.Parse(args)

	c := chip.New(chip.DefaultParams(*seed, !*high, *full))
	for _, co := range c.Cores {
		co.SetWorkload(workload.Idle(), *seed)
	}
	nominal := c.P.Point.NominalVdd
	fmt.Fprintf(w, "chip seed %d, %s point, nominal %.3f V, %d ticks/level\n\n",
		*seed, c.P.Point.Name, nominal, *ticks)
	fmt.Fprintf(w, "%-6s  %-11s  %-10s  %-14s  %-10s\n",
		"core", "first error", "min safe", "error-free", "corr range")

	for id := range c.Cores {
		s := sweep(c, id, *ticks, *seed)
		errFree, corr := "n/a", "n/a"
		if s.firstErr > 0 {
			errFree = fmt.Sprintf("%.0f mV", 1000*(nominal-s.firstErr))
			corr = fmt.Sprintf("%.0f mV", 1000*(s.firstErr-s.minSafe))
		}
		fmt.Fprintf(w, "core %d  %-11s  %-10s  %-14s  %-10s\n",
			id, fmtV(s.firstErr), fmtV(s.minSafe), errFree, corr)
	}
}

func fmtV(v float64) string {
	if v == 0 {
		return "-"
	}
	return fmt.Sprintf("%.3f V", v)
}

type result struct {
	firstErr float64
	minSafe  float64
}

// sweep runs the per-core characterization protocol.
func sweep(c *chip.Chip, coreID, ticks int, seed uint64) result {
	co := c.Cores[coreID]
	co.SetWorkload(workload.StressTest(), seed)
	dom := c.DomainOf(coreID)
	nominal := c.P.Point.NominalVdd
	out := result{minSafe: nominal}
	for v := nominal; v > 0.3; v -= dom.Rail.Params().StepV {
		dom.Rail.SetTarget(v)
		for _, cid := range dom.CoreIDs {
			if cid != coreID {
				c.Cores[cid].Revive()
			}
		}
		crashed := false
		engine.Ticks(c, nil, ticks, func(_ int, rep chip.TickReport, _ []control.Action) bool {
			cr := rep.Cores[coreID]
			if cr.CorrectedD+cr.CorrectedI+cr.CorrectedRF > 0 && out.firstErr == 0 {
				out.firstErr = v
			}
			crashed = cr.Fatal
			return !crashed
		})
		if crashed {
			break
		}
		out.minSafe = v
	}
	dom.Rail.SetTarget(nominal)
	for _, cid := range dom.CoreIDs {
		c.Cores[cid].Revive()
	}
	co.SetWorkload(workload.Idle(), seed)
	if out.minSafe == nominal {
		fmt.Fprintf(os.Stderr, "sweep: core %d never crashed above 0.3 V\n", coreID)
	}
	return out
}
