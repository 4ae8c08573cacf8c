package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"
)

// redriveAll re-drives the specs on runtime.NumCPU() goroutines, the
// same parallelism the fleet run used, and returns results in order.
func redriveAll(specs []chipSpec, tr *tracer) ([]redriven, error) {
	out := make([]redriven, len(specs))
	errs := make([]error, len(specs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i], errs[i] = redrive(specs[i], tr)
			}
		}()
	}
	for i := range specs {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkRedriven compares each re-driven chip with the result the fleet
// or cluster run reported for it, and holds its calibration to the
// sweep's properties.
func checkRedriven(out *outcome, rds []redriven, want map[uint64]chipOutcome, floorV float64) {
	for _, rd := range rds {
		w, ok := want[rd.Out.Seed]
		if !ok {
			out.problem(fmt.Errorf("chip %d: no reported result to compare", rd.Out.Seed))
			continue
		}
		out.problem(checkSameOutcome(rd.Out, w))
		out.problem(checkOnsets(rd.Out.Seed, rd.OnsetV, rd.Nominal, floorV))
		out.problem(checkHealth(rd.Out.Seed, rd.Health))
	}
}

// simLayerMetrics derives the simulator layers' per-layer metrics from
// the traced re-drive, and checks that the build, calibrate and
// closed-loop spans account for each chip's wall time within 5%.
func simLayerMetrics(out *outcome, rds []redriven, tr *tracer, ph *phases) {
	var build, calib, step, tick, capture, restore []float64
	var calibTotal, loopPhase time.Duration
	var reads, blobBytes int64
	var onsetSteps, domains, ticks, captures int
	var acts actionCounts
	var perTick []float64 // each chip's step+tick host time per tick, in us
	for _, rd := range rds {
		perTick = append(perTick, (rd.Step+rd.Tick).Seconds()/float64(rd.Ticks)*1e6)
		build = append(build, rd.Build.Seconds())
		calib = append(calib, rd.Calibrate.Seconds())
		calibTotal += rd.Calibrate
		reads += rd.LineReads
		for _, s := range rd.OnsetSteps {
			onsetSteps += s
			domains++
		}
		step = append(step, rd.Step.Seconds())
		tick = append(tick, rd.Tick.Seconds())
		ticks += rd.Ticks
		acts.merge(rd.Acts)
		captures += rd.Captures
		blobBytes += rd.BlobBytes
		if rd.Captures > 0 {
			capture = append(capture, rd.Capture.Seconds()/float64(rd.Captures))
			restore = append(restore, rd.Restore.Seconds()/float64(rd.Captures))
		}
		if p, ok := ph.get(rd.Out.Seed); ok {
			loopPhase += p.Dur
		}
	}
	n := len(rds)
	sort.Float64s(perTick)
	out.note("host time per tick (step+tick) across %d chips: min %.1f us, median %.1f us, max %.1f us",
		n, perTick[0], median(perTick), perTick[n-1])
	out.timing("eccspec.new_simulator_ms", build, 1e3)
	out.timing("control.calibrate_ms", calib, 1e3)
	out.set("control.calib_line_reads", float64(reads)/float64(n), n)
	out.set("control.calib_ns_per_line_read", float64(calibTotal.Nanoseconds())/float64(reads), n)
	out.set("control.onset_steps", float64(onsetSteps)/float64(domains), domains)
	stepUS, tickUS := sum(step)/float64(ticks)*1e6, sum(tick)/float64(ticks)*1e6
	out.set("chip.step_us", stepUS, ticks)
	out.set("control.tick_us", tickUS, ticks)
	out.set("engine.overhead_us_per_tick", loopPhase.Seconds()/float64(ticks)*1e6-stepUS-tickUS, ticks)
	out.set("control.decisions", float64(acts.Decisions), 0)
	out.set("control.holds", float64(acts.Holds), 0)
	out.set("control.steps_down", float64(acts.StepsDown), 0)
	out.set("control.steps_up", float64(acts.StepsUp), 0)
	out.set("control.emergencies", float64(acts.Emergencies), 0)
	if captures > 0 {
		out.timing("snapshot.capture_ms", capture, 1e3)
		out.timing("snapshot.restore_ms", restore, 1e3)
		out.set("snapshot.blob_kb", float64(blobBytes)/float64(captures)/1024, captures)
	}

	spans := tr.snapshot()
	self := selfTimes(spans)
	dur := totals(spans)
	chipWall := dur["chip"]
	covered := dur["eccspec.NewSimulator"] + dur["control.Calibrate"] + dur["engine.closed_loop"]
	if chipWall > 0 {
		share := covered.Seconds() / chipWall.Seconds()
		out.note("traced re-drive of %d chips: build %.1f%%, calibrate %.1f%%, closed loop %.1f%% (step %.1f%%, tick %.1f%%, loop self %.1f%%, snapshot %.1f%%) of chip wall time",
			n, pct(dur["eccspec.NewSimulator"], chipWall), pct(dur["control.Calibrate"], chipWall),
			pct(dur["engine.closed_loop"], chipWall), pct(dur["chip.Step"], chipWall), pct(dur["control.Tick"], chipWall),
			pct(self["engine.closed_loop"], chipWall), pct(dur["snapshot.CaptureBlob"]+dur["snapshot.RestoreBlob"], chipWall))
		out.problem(checkWithin("build+calibrate+closed-loop share of chip wall time", share, 0.95, 1))
	}
	if acts.Decisions > 0 {
		out.note("decisions inside the [1%%, 5%%] band: %.1f%% of %d; holds %.1f%%",
			100*float64(acts.InBand)/float64(acts.Decisions), acts.Decisions, 100*float64(acts.Holds)/float64(acts.Decisions))
	}
}

func pct(part, whole time.Duration) float64 { return 100 * part.Seconds() / whole.Seconds() }

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
