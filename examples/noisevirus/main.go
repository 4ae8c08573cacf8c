// Noisevirus reproduces the paper's voltage-noise study (§IV-B, §V-D2)
// interactively: a calibrated main core runs the targeted self-test on
// its weak line while its rail sibling executes FMA/NOP "voltage virus"
// variants. The virus's NOP count sets its power-oscillation frequency;
// near the power delivery network's resonance the droop — and therefore
// the self-test error count — spikes, even though the mean power of the
// virus *falls* with every added NOP.
//
// Run with:
//
//	go run ./examples/noisevirus
package main

import (
	"fmt"
	"log"
	"strings"

	"eccspec/internal/chip"
	"eccspec/internal/engine"
	"eccspec/internal/workload"
)

func main() {
	const seed = 7
	c, ctl, err := engine.NewCell(engine.CellSpec{Params: chip.DefaultParams(seed, true, false),
		Workloads: []workload.Profile{workload.Idle()}, Calibrate: true})
	if err != nil {
		log.Fatal(err)
	}
	a, _ := ctl.Assignment(0)
	mon := ctl.ActiveMonitor(0)
	fmt.Printf("monitoring %s\n", a)
	fmt.Printf("rail resonance: %.1f MHz\n\n", c.Domains[0].Rail.Resonance()/1e6)

	// Park the rail just above the monitored line's onset: quiet
	// conditions produce near-zero errors, so whatever the virus adds
	// is pure voltage noise.
	c.Domains[0].Rail.SetTarget(a.OnsetV + 0.015)

	clock := c.P.Point.FrequencyHz
	const accesses = 500
	fmt.Printf("%-6s %-12s %-8s %s\n", "NOPs", "osc (MHz)", "errors", "")
	for nops := 0; nops <= 20; nops++ {
		virus := workload.Virus(nops, clock)
		c.Cores[1].SetWorkload(virus, seed)
		c.Step() // let the PDN see this virus's oscillation
		mon.ResetCounters()
		mon.ProbeN(accesses, c.Domains[0].LastEffective())
		mon.TakeEmergency()
		_, errs := mon.Counters()
		bar := strings.Repeat("#", int(errs)/12)
		fmt.Printf("%-6d %-12.1f %-8d %s\n", nops, virus.OscFreqHz/1e6, errs, bar)
	}

	fmt.Println("\nthe spike sits where the virus period matches the PDN resonance —")
	fmt.Println("the same line that guides speculation doubles as a noise sensor.")
}
