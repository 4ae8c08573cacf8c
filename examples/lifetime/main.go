// Lifetime fast-forwards a chip through years of operation to show why
// the paper recalibrates periodically (§III-D): NBTI-like aging raises
// cells' critical voltages at different rates, so the identity of a
// domain's weakest line can change, and the safe operating point drifts
// upward. Each simulated "service interval" the system recalibrates,
// re-targets its ECC monitors if needed, and re-converges.
//
// Run with:
//
//	go run ./examples/lifetime [-years N] [-state file]
//
// With -state, the example checkpoints after every service interval
// (using the snapshot package's versioned, CRC-protected envelope) and
// resumes from the file if it already exists — so a multi-year sweep
// can be interrupted and picked up where it left off, even with a
// larger -years to extend the study.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"eccspec/internal/chip"
	"eccspec/internal/control"
	"eccspec/internal/engine"
	"eccspec/internal/snapshot"
	"eccspec/internal/workload"
)

// stateVersion tags this example's checkpoint payload inside the
// snapshot envelope; bump it when savedState changes shape.
const stateVersion = 1

// savedState is everything needed to restart the sweep at the next
// service interval: the specimen seed (to rebuild the chip), the full
// mutable chip and controller state, and the loop's own position.
type savedState struct {
	Seed     uint64             `json:"seed"`
	Interval int                `json:"interval"` // next interval to simulate
	Prev     control.Assignment `json:"prev"`
	Chip     chip.State         `json:"chip"`
	Control  control.State      `json:"control"`
}

func main() {
	years := flag.Int("years", 5, "operating lifetime to simulate")
	statePath := flag.String("state", "", "checkpoint file: saved each interval, resumed from if present")
	flag.Parse()

	const seed = 11
	c, ctl, _ := engine.NewCell(engine.CellSpec{Params: chip.DefaultParams(seed, true, false),
		Workloads: workload.SPECjbb()[:1]})

	start := 0
	var prev control.Assignment
	if *statePath != "" {
		if st, ok := loadState(*statePath, seed); ok {
			if err := c.RestoreState(st.Chip); err != nil {
				log.Fatalf("restore chip: %v", err)
			}
			if err := ctl.RestoreState(st.Control); err != nil {
				log.Fatalf("restore control: %v", err)
			}
			start, prev = st.Interval, st.Prev
			fmt.Printf("resumed from %s at interval %d\n", *statePath, start)
		}
	}

	fmt.Printf("chip seed %d over %d years, recalibrating every 6 months\n\n", seed, *years)
	fmt.Printf("%-10s %-26s %-10s %-14s\n", "age", "domain 0 monitored line", "onset", "converged Vdd")

	hoursPerInterval := 6 * 730.0 // six months
	intervals := *years * 2
	if start > intervals {
		fmt.Printf("checkpoint already covers %d intervals; raise -years to extend\n", start-1)
		return
	}
	for i := start; i <= intervals; i++ {
		age := float64(i) * hoursPerInterval
		for _, co := range c.Cores {
			co.Hier.L2D.Array().SetAge(age)
			co.Hier.L2I.Array().SetAge(age)
		}
		a, err := ctl.CalibrateDomain(c.Domains[0])
		if err != nil {
			log.Fatal(err)
		}
		// Re-converge the domain's rail after recalibration.
		engine.Ticks(c, ctl, 800, nil)
		marker := ""
		if i > 0 && (a.Core != prev.Core || a.Kind != prev.Kind ||
			a.Set != prev.Set || a.Way != prev.Way) {
			marker = "  <- weakest line changed"
		}
		prev = a
		fmt.Printf("%5.1f yr   core %d %s set %-3d way %d   %.3f V    %.3f V%s\n",
			age/8760, a.Core, a.Kind, a.Set, a.Way, a.OnsetV,
			c.Domains[0].Rail.Target(), marker)
		if *statePath != "" {
			if err := saveState(*statePath, savedState{
				Seed: seed, Interval: i + 1, Prev: prev,
				Chip: c.CaptureState(),
			}, ctl); err != nil {
				log.Fatalf("checkpoint: %v", err)
			}
		}
	}

	fmt.Println("\naging raises the onset (and the safe operating point) over the")
	fmt.Println("chip's life; recalibration keeps the monitor on whichever line is")
	fmt.Println("weakest *now*, so speculation stays both safe and maximally deep.")
}

// loadState reads and validates a checkpoint; a missing file means a
// fresh start, anything else (corruption, wrong version, wrong seed)
// is fatal rather than silently restarting a half-finished sweep.
func loadState(path string, seed uint64) (savedState, bool) {
	blob, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return savedState{}, false
	}
	if err != nil {
		log.Fatalf("state: %v", err)
	}
	ver, payload, err := snapshot.DecodePayload(blob)
	if err != nil {
		log.Fatalf("state %s: %v", path, err)
	}
	if ver != stateVersion {
		log.Fatalf("state %s: version %d, this build reads %d", path, ver, stateVersion)
	}
	var st savedState
	if err := json.Unmarshal(payload, &st); err != nil {
		log.Fatalf("state %s: %v", path, err)
	}
	if st.Seed != seed {
		log.Fatalf("state %s: seed %d, this example simulates seed %d", path, st.Seed, seed)
	}
	return st, true
}

// saveState atomically replaces the checkpoint file: a kill mid-write
// leaves the previous interval's checkpoint intact.
func saveState(path string, st savedState, ctl *control.System) error {
	cs, err := ctl.CaptureState()
	if err != nil {
		return err
	}
	st.Control = cs
	payload, err := json.Marshal(st)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, snapshot.EncodePayload(stateVersion, payload), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
