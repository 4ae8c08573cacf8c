// Package engine owns the canonical simulation run loop.
//
// The paper's contribution is one closed loop — chip activity, ECC
// monitor sampling, controller Vdd step — and every layer of this repo
// ultimately drives that loop: the public Simulator, the fleet worker,
// the CLI's checkpointed runs, the experiment reproductions, and the
// examples. This package writes the loop exactly once and lets the
// layers differ only in what they *observe*: tracing, checkpointing,
// Prometheus counters, progress reporting and stop conditions are all
// composable Observers rather than per-call-site plumbing. The cell the
// loop drives is built once too: NewCell is the one construction site
// for a chip with its workloads and control system.
//
// The steady-state tick path is allocation-free: Run keeps no per-tick
// state on the heap, observers receive a View by value, and the
// simulation packages reuse their per-tick scratch (see chip.Step,
// control.Tick, cache.ReadLine). BenchmarkEngineTick proves 0 B/op.
//
// Determinism: the engine adds no randomness and consumes none. A run
// through the engine executes the same Step sequence as the hand-rolled
// loops it replaced, so results are byte-identical for the same seeds.
package engine

import (
	"context"
	"errors"
)

// Sim is the minimal stepping contract the engine drives. Step advances
// one control tick and reports whether the simulation should continue;
// false means a terminal condition (a core died) and stops the run
// after the tick's observers have fired.
type Sim interface {
	Step() bool
}

// ErrStop is returned by an Observer's OnTick to stop the run cleanly:
// the engine treats it as "done", not as a failure, and Run returns a
// nil error. Any other observer error aborts the run with that error.
var ErrStop = errors.New("engine: stop requested")

// View is the snapshot-lite the engine hands to observers. It is passed
// by value; observers needing telemetry (voltages, error rates, energy)
// type-assert Sim to the richer interface they were composed with.
type View struct {
	// Tick is the absolute index of the last completed tick, 1-based:
	// after the first Step of a fresh run Tick is 1. A resumed run
	// continues the original numbering (Config.Start), so modulo-based
	// observers (tracing every N, checkpointing every N) stay aligned
	// across an interruption.
	Tick int
	// Until is the run's exclusive end tick from Config. Tick == Until
	// on the final tick of an uninterrupted run.
	Until int
	// Alive is Step's return for this tick; false on the tick that
	// killed a core (observers still see that final tick).
	Alive bool
	// Sim is the simulation being stepped.
	Sim Sim
}

// Observer hooks into the run loop. OnStart fires once before the first
// Step (Tick = Config.Start); an error aborts the run before any
// stepping. OnTick fires after every completed tick, in composition
// order; returning ErrStop ends the run cleanly, any other error aborts
// it with that error. OnStop fires exactly once when a started loop
// exits for any reason (completion, core death, cancellation, observer
// error) — it receives the final View and the error Run will return,
// and is the place to flush buffers or finalize counters. If an OnStart
// fails, the run never starts and no OnStop fires.
type Observer interface {
	OnStart(v View) error
	OnTick(v View) error
	OnStop(v View, err error)
}

// Config parameterizes one run.
type Config struct {
	// Start is the absolute tick the simulation has already reached
	// (non-zero when resuming from a checkpoint); stepping begins at
	// Start and continues to Until.
	Start int
	// Until is the exclusive end tick: the run completes after tick
	// Until has executed (Until - Start steps from here).
	Until int
	// Observers fire in slice order on every tick.
	Observers []Observer
}

// Report summarizes a run.
type Report struct {
	// Tick is the absolute tick the simulation reached: Until after an
	// uninterrupted run, less if the run stopped early. Partial results
	// (voltages, energy, error rates) are valid at any stopping point.
	Tick int
	// Stopped reports that Step returned false (a core died) before
	// Until.
	Stopped bool
}

// Run drives sim from cfg.Start to cfg.Until, checking ctx before each
// tick and firing observers after each tick. It returns the context's
// error on cancellation, an observer's error if one aborted the run,
// and nil otherwise (including clean early stops via ErrStop or core
// death). The inner loop allocates nothing.
func Run(ctx context.Context, sim Sim, cfg Config) (Report, error) {
	rep := Report{Tick: cfg.Start}
	v := View{Tick: cfg.Start, Until: cfg.Until, Alive: true, Sim: sim}
	for _, o := range cfg.Observers {
		if err := o.OnStart(v); err != nil {
			return rep, err
		}
	}
	var runErr error
	done := ctx.Done()
	for t := cfg.Start; t < cfg.Until; t++ {
		select {
		case <-done:
			runErr = ctx.Err()
		default:
		}
		if runErr != nil {
			break
		}
		alive := sim.Step()
		rep.Tick = t + 1
		v.Tick, v.Alive = t+1, alive
		for _, o := range cfg.Observers {
			if err := o.OnTick(v); err != nil {
				if errors.Is(err, ErrStop) {
					err = nil
				}
				runErr = err
				goto stop
			}
		}
		if !alive {
			rep.Stopped = true
			break
		}
	}
stop:
	v.Tick = rep.Tick
	for _, o := range cfg.Observers {
		o.OnStop(v, runErr)
	}
	return rep, runErr
}
