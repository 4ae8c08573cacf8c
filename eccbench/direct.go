package main

import (
	"fmt"
	"math"
	"time"

	"eccspec"
	"eccspec/internal/control"
	"eccspec/internal/fleet"
	"eccspec/internal/snapshot"
	"eccspec/internal/variation"
)

// chipSpec is one chip as the fleet engine runs it; redrive repeats
// the same simulation through direct calls.
type chipSpec struct {
	Seed            uint64
	Workload        string
	Policy          string
	Seconds         float64
	TraceEvery      int
	CheckpointEvery int
}

// chipOutcome is the part of a chip's result every path reports: the
// fleet engine, the cluster, the daemon's /results and a direct re-drive.
type chipOutcome struct {
	Seed         uint64
	AvgReduction float64
	DomainVdd    []float64
	UncoreVdd    float64
	AvgPowerW    float64
	Ticks        int
	// TraceRows holds time followed by the fleet.TraceColumns values,
	// one row per sample (nil when untraced or not reported).
	TraceRows [][]float64
}

func outcomeOf(r fleet.ChipResult) chipOutcome {
	o := chipOutcome{Seed: r.Seed, AvgReduction: r.AvgReduction, DomainVdd: r.DomainVdd,
		UncoreVdd: r.UncoreVdd, AvgPowerW: r.AvgPowerW, Ticks: r.Ticks}
	if r.Trace != nil {
		for i := 0; i < r.Trace.Len(); i++ {
			row := []float64{r.Trace.Time(i)}
			for c := range fleet.TraceColumns {
				row = append(row, r.Trace.Value(i, c))
			}
			o.TraceRows = append(o.TraceRows, row)
		}
	}
	return o
}

// actionCounts tallies the []control.Action a closed loop returned.
type actionCounts struct {
	Decisions, Holds, StepsDown, StepsUp, Emergencies, InBand int64
}

func (a *actionCounts) add(acts []control.Action) {
	for _, ac := range acts {
		switch ac.Kind {
		case control.Hold, control.StepDown, control.StepUp:
			a.Decisions++
			if ac.ErrorRate >= bandFloor && ac.ErrorRate <= bandCeil {
				a.InBand++
			}
			switch ac.Kind {
			case control.Hold:
				a.Holds++
			case control.StepDown:
				a.StepsDown++
			default:
				a.StepsUp++
			}
		case control.Emergency:
			a.Emergencies++
		}
	}
}

func (a *actionCounts) merge(b actionCounts) {
	a.Decisions += b.Decisions
	a.Holds += b.Holds
	a.StepsDown += b.StepsDown
	a.StepsUp += b.StepsUp
	a.Emergencies += b.Emergencies
	a.InBand += b.InBand
}

// The paper's correctable-error band (§III-B).
const (
	bandFloor = 0.01
	bandCeil  = 0.05
)

// redriven is one chip driven through direct calls, with the time each
// layer took.
type redriven struct {
	Out     chipOutcome
	Nominal float64
	OnsetV  []float64 // per domain, from the calibration assignments
	// OnsetSteps counts 5 mV sweep steps below nominal, per domain;
	// LineReads is the sweep's cache line reads, from the onset steps
	// and the cache geometry.
	OnsetSteps []int
	LineReads  int64
	Acts       actionCounts
	Health     chipHealth

	Build, Calibrate, Step, Tick time.Duration
	Ticks                        int
	Captures                     int
	Capture, Restore             time.Duration
	BlobBytes                    int64
}

// redrive runs one chip through eccspec.NewSimulator, Calibrate, and a
// loop of Chip().Step() and Control().Tick(), capturing and restoring a
// snapshot blob at every checkpoint tick. Trace rows are sampled the way
// the fleet engine samples them.
func redrive(spec chipSpec, tr *tracer) (redriven, error) {
	var rd redriven
	owner := fmt.Sprintf("chip %d", spec.Seed)
	chipSpan := tr.begin("chip", owner, -1)
	defer tr.end(chipSpan)

	sp := tr.begin("eccspec.NewSimulator", owner, chipSpan)
	t0 := time.Now()
	sim, err := eccspec.NewSimulator(eccspec.Options{Seed: spec.Seed, Workload: spec.Workload, Policy: spec.Policy})
	rd.Build = time.Since(t0)
	tr.end(sp)
	if err != nil {
		return rd, err
	}

	sp = tr.begin("control.Calibrate", owner, chipSpan)
	t0 = time.Now()
	assigns, err := sim.Control().Calibrate()
	rd.Calibrate = time.Since(t0)
	tr.end(sp)
	if err != nil {
		return rd, fmt.Errorf("chip %d: calibrate: %w", spec.Seed, err)
	}
	rd.Nominal = sim.NominalVoltage()
	cfg := sim.Control().Cfg
	for _, a := range assigns {
		rd.OnsetV = append(rd.OnsetV, a.OnsetV)
		steps := int(math.Round((rd.Nominal - a.OnsetV) / cfg.CalibStepV))
		rd.OnsetSteps = append(rd.OnsetSteps, steps)
		rd.LineReads += sweepReads(sim, a, steps, cfg.CalibReadsPerLine)
	}

	loopSpan := tr.begin("engine.closed_loop", owner, chipSpan)
	loopStart := time.Now()
	ticks := int(spec.Seconds / sim.TickSeconds())
	rd.Out.Seed = spec.Seed
	for t := 1; t <= ticks; t++ {
		a := time.Now()
		sim.Chip().Step()
		b := time.Now()
		acts := sim.Control().Tick()
		c := time.Now()
		rd.Step += b.Sub(a)
		rd.Tick += c.Sub(b)
		rd.Ticks++
		rd.Acts.add(acts)
		if spec.TraceEvery > 0 && t%spec.TraceEvery == 0 {
			rd.Out.TraceRows = append(rd.Out.TraceRows, traceRow(sim))
		}
		if !sim.CoresAlive() {
			break
		}
		if spec.CheckpointEvery > 0 && t%spec.CheckpointEvery == 0 && t < ticks {
			if err := checkpoint(sim, &rd, tr, owner, loopSpan); err != nil {
				tr.end(loopSpan)
				return rd, fmt.Errorf("chip %d tick %d: %w", spec.Seed, t, err)
			}
		}
	}
	loopEnd := time.Now()
	tr.aggregate("chip.Step", owner, loopSpan, loopStart, loopEnd, rd.Ticks, rd.Step)
	tr.aggregate("control.Tick", owner, loopSpan, loopStart, loopEnd, rd.Ticks, rd.Tick)
	tr.end(loopSpan)

	rd.Health = healthOf(sim)
	rd.Out.finish(sim)
	return rd, nil
}

// finish records a finished simulator's result fields.
func (o *chipOutcome) finish(sim *eccspec.Simulator) {
	o.Ticks = sim.Ticks()
	o.AvgReduction = sim.AverageReduction()
	for d := 0; d < sim.NumDomains(); d++ {
		o.DomainVdd = append(o.DomainVdd, sim.DomainVoltage(d))
	}
	o.UncoreVdd = sim.UncoreVoltage()
	o.AvgPowerW = sim.TotalPower()
}

// finishFromBlob restores a mid-run checkpoint blob streamed by the
// fleet engine (simulator plus partial trace) and runs it to the end of
// spec's window through direct calls. It also returns the host time per
// tick the restored simulator took.
func finishFromBlob(blob []byte, spec chipSpec) (chipOutcome, time.Duration, error) {
	sim, st, err := snapshot.RestoreBlob(blob)
	if err != nil {
		return chipOutcome{}, 0, err
	}
	out := chipOutcome{Seed: spec.Seed}
	rec, err := st.Trace.RestoreTrace()
	if err != nil {
		return chipOutcome{}, 0, err
	}
	if rec != nil {
		out = outcomeOf(fleet.ChipResult{Seed: spec.Seed, Trace: rec})
	}
	ticks := int(spec.Seconds / sim.TickSeconds())
	start, from := time.Now(), st.Ticks
	for t := from + 1; t <= ticks; t++ {
		sim.Chip().Step()
		sim.Control().Tick()
		if spec.TraceEvery > 0 && t%spec.TraceEvery == 0 {
			out.TraceRows = append(out.TraceRows, traceRow(sim))
		}
		if !sim.CoresAlive() {
			break
		}
	}
	perTick := time.Since(start) / time.Duration(max(sim.Ticks()-from, 1))
	out.finish(sim)
	return out, perTick, nil
}

// checkpoint captures sim as a snapshot blob, as the fleet engine does
// at a checkpoint tick, and times restoring it. The loop continues on
// sim: a restored simulator ticks several times slower for a while
// (README.md), which would charge restore cost to the tick path. The
// restored copy's fidelity is checked by finishFromBlob.
func checkpoint(sim *eccspec.Simulator, rd *redriven, tr *tracer, owner string, parent int) error {
	sp := tr.begin("snapshot.CaptureBlob", owner, parent)
	t0 := time.Now()
	blob, err := snapshot.CaptureBlob(sim)
	rd.Capture += time.Since(t0)
	tr.end(sp)
	if err != nil {
		return err
	}
	rd.Captures++
	rd.BlobBytes += int64(len(blob))
	sp = tr.begin("snapshot.RestoreBlob", owner, parent)
	t0 = time.Now()
	_, _, err = snapshot.RestoreBlob(blob)
	rd.Restore += time.Since(t0)
	tr.end(sp)
	return err
}

// traceRow samples time and the fleet.TraceColumns series (mean and
// minimum domain Vdd, mean monitor error rate, average chip power).
func traceRow(sim *eccspec.Simulator) []float64 {
	nd := sim.NumDomains()
	meanV, minV, meanErr := 0.0, sim.DomainVoltage(0), 0.0
	for d := 0; d < nd; d++ {
		v := sim.DomainVoltage(d)
		meanV += v
		if v < minV {
			minV = v
		}
		meanErr += sim.MonitorErrorRate(d)
	}
	return []float64{sim.Time(), meanV / float64(nd), minV, meanErr / float64(nd), sim.TotalPower()}
}

// sweepReads counts the line reads control.FindOnset made for one
// domain: every L2 line of every member core read CalibReadsPerLine
// times at each of the steps passes above the onset, then, at the onset
// pass, the caches swept before the one holding the weak line, the
// lines ahead of it, and its first failing read.
func sweepReads(sim *eccspec.Simulator, a control.Assignment, steps, perLine int) int64 {
	kinds := []variation.Kind{variation.KindL2D, variation.KindL2I}
	d := sim.Chip().Domains[a.Domain]
	var full, before int64
	reached := false
	for _, core := range d.CoreIDs {
		for _, k := range kinds {
			c := sim.Chip().Cores[core].CacheOf(k).Config()
			lines := int64(c.Sets * c.Ways)
			full += lines
			if core == a.Core && k == a.Kind {
				before += int64(a.Set*c.Ways + a.Way)
				reached = true
			} else if !reached {
				before += lines
			}
		}
	}
	return (int64(steps)*full+before)*int64(perLine) + 1
}

// chipHealth is what a finished chip must show under speculation.
type chipHealth struct {
	Alive       bool
	Emergencies int
	FailSafe    []int
	// VddErr reports a committed domain Vdd off the 5 mV grid or below
	// a member core's logic floor (nil when every domain is sound).
	VddErr error
}

func healthOf(sim *eccspec.Simulator) chipHealth {
	h := chipHealth{Alive: sim.CoresAlive(), Emergencies: sim.Control().Emergencies(),
		FailSafe: sim.Control().FailSafeDomains()}
	for _, d := range sim.Chip().Domains {
		var floors []float64
		for _, c := range d.CoreIDs {
			floors = append(floors, sim.Chip().Cores[c].LogicVmin())
		}
		if err := checkDomainVdd(d.ID, d.Rail.Target(), floors); err != nil {
			h.VddErr = err
			break
		}
	}
	return h
}
