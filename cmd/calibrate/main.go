// Command calibrate runs the boot-time calibration procedure (§III-C) on
// a simulated chip and dumps the resulting weak-line map: for every
// voltage domain, the cache line whose ECC monitor will guide
// speculation, with its onset voltage and how it compares to the
// domain's crash-relevant floors.
//
// Usage:
//
//	calibrate [-seed N] [-full] [-high] [-aged hours]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"eccspec/internal/chip"
	"eccspec/internal/control"
	"eccspec/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "calibrate:", err)
		os.Exit(1)
	}
}

// run parses args, calibrates the chip and writes the weak-line map to
// w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("calibrate", flag.ExitOnError)
	seed := fs.Uint64("seed", 1, "chip seed")
	full := fs.Bool("full", false, "full Table I cache geometry")
	high := fs.Bool("high", false, "use the 2.53 GHz / 1.1 V operating point")
	aged := fs.Float64("aged", 0, "pre-age the SRAM arrays by this many hours")
	fs.Parse(args)

	c := chip.New(chip.DefaultParams(*seed, !*high, *full))
	for _, co := range c.Cores {
		co.SetWorkload(workload.Idle(), *seed)
		if *aged > 0 {
			co.Hier.L2D.Array().SetAge(*aged)
			co.Hier.L2I.Array().SetAge(*aged)
			co.InvalidateSensitivity()
		}
	}
	ctl := control.New(c, control.DefaultConfig())
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
			1000*(a.OnsetV-maxf(p.PairVcrit(), co.LogicVmin())))
	}
	return nil
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
