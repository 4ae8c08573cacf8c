package main

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"eccspec"
	"eccspec/internal/engine"
	"eccspec/internal/fleet"
	"eccspec/internal/store"
)

// phase is one chip's closed-loop phase as an engine observer saw it:
// from engine-run start to stop, so construction, calibration and
// dispatch fall outside it.
type phase struct {
	Ticks  int
	Dur    time.Duration
	Health chipHealth
	// OnsetV and Nominal come from the calibrated control system.
	OnsetV  []float64
	Nominal float64
}

// phases collects a phase per chip seed. It is safe for concurrent use
// by the engine's worker goroutines.
type phases struct {
	mu sync.Mutex
	m  map[uint64]phase
}

func newPhases() *phases { return &phases{m: make(map[uint64]phase)} }

// observers is the per-chip observer factory for fleet.Job.Observers
// and cluster.Executor.Observers.
func (p *phases) observers(seed uint64) []engine.Observer {
	var start time.Time
	var startTick int
	return []engine.Observer{engine.Funcs{
		Start: func(v engine.View) error {
			start, startTick = time.Now(), v.Tick
			return nil
		},
		Stop: func(v engine.View, _ error) {
			ph := phase{Ticks: v.Tick - startTick, Dur: time.Since(start)}
			if sim, ok := v.Sim.(*eccspec.Simulator); ok {
				ph.Health = healthOf(sim)
				ph.Nominal = sim.NominalVoltage()
				for d := 0; d < sim.NumDomains(); d++ {
					if a, ok := sim.Control().Assignment(d); ok {
						ph.OnsetV = append(ph.OnsetV, a.OnsetV)
					}
				}
			}
			p.mu.Lock()
			defer p.mu.Unlock()
			p.m[seed] = ph
		},
	}}
}

func (p *phases) get(seed uint64) (phase, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	ph, ok := p.m[seed]
	return ph, ok
}

// ticksPerSecond is control ticks divided by closed-loop host time over
// the given chips.
func (p *phases) ticksPerSecond(seeds []uint64) float64 {
	var ticks int
	var dur time.Duration
	for _, s := range seeds {
		if ph, ok := p.get(s); ok {
			ticks += ph.Ticks
			dur += ph.Dur
		}
	}
	if dur <= 0 {
		return 0
	}
	return float64(ticks) / dur.Seconds()
}

// tickSeconds is the controller's tick period (the paper's 1 ms).
const tickSeconds = 1e-3

// windowTicks is how many control ticks a job window of the given
// length runs.
func windowTicks(seconds float64) int { return int(seconds / tickSeconds) }

// checkTrace holds a finished chip's recorded trace to rows samples,
// one per trace_every ticks of the job's window, with time
// non-decreasing.
func checkTrace(r fleet.ChipResult, rows int) error {
	n := 0
	if r.Trace != nil {
		n = r.Trace.Len()
	}
	if n != rows {
		return fmt.Errorf("trace of chip %d has %d rows, want %d", r.Seed, n, rows)
	}
	for i := 1; i < n; i++ {
		if r.Trace.Time(i) < r.Trace.Time(i-1) {
			return fmt.Errorf("trace of chip %d: time goes back from %v to %v at row %d", r.Seed, r.Trace.Time(i-1), r.Trace.Time(i), i)
		}
	}
	return nil
}

// journalBytes checks each finished chip's trace against the rows its
// window holds, and sums the chip records a daemon would journal for
// the chips (store.ChipRecord in JSON).
func journalBytes(out *outcome, results []fleet.ChipResult, rows int) (int64, error) {
	var n int64
	for _, r := range results {
		if r.Err != nil {
			continue
		}
		out.problem(checkTrace(r, rows))
		b, err := json.Marshal(store.FromResult(r))
		if err != nil {
			return 0, err
		}
		n += int64(len(b)) + 1
	}
	return n, nil
}

// checkFleetChips applies the per-chip checks every in-process workload
// shares: no chip error, a calibrated onset per domain on the sweep's
// grid, and a sound finish (alive, no emergency or fail-safe, domain
// Vdd on grid and above the logic floors).
func checkFleetChips(out *outcome, results []fleet.ChipResult, ph *phases, floorV float64) {
	for _, r := range results {
		out.Attempted++
		if r.Err != nil {
			out.Failed++
			out.problem(fmt.Errorf("chip %d: %v", r.Seed, r.Err))
			continue
		}
		p, ok := ph.get(r.Seed)
		if !ok {
			out.problem(fmt.Errorf("chip %d: no closed-loop phase observed", r.Seed))
			continue
		}
		out.problem(checkOnsets(r.Seed, p.OnsetV, p.Nominal, floorV))
		out.problem(checkHealth(r.Seed, p.Health))
	}
}

// checkHealth requires a chip to finish alive, without emergencies or
// fail-safe domains, with every domain Vdd sound.
func checkHealth(seed uint64, h chipHealth) error {
	switch {
	case !h.Alive:
		return fmt.Errorf("chip %d: a core died", seed)
	case h.Emergencies != 0:
		return fmt.Errorf("chip %d: %d emergencies", seed, h.Emergencies)
	case len(h.FailSafe) != 0:
		return fmt.Errorf("chip %d: fail-safe domains %v", seed, h.FailSafe)
	case h.VddErr != nil:
		return fmt.Errorf("chip %d: %v", seed, h.VddErr)
	}
	return nil
}
