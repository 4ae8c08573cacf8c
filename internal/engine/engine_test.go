package engine

import (
	"context"
	"errors"
	"testing"

	"eccspec/internal/chip"
	"eccspec/internal/control"
	"eccspec/internal/policy"
	"eccspec/internal/workload"
)

// fakeSim counts steps and optionally reports death on a given step.
type fakeSim struct {
	steps int
	dieAt int // Step returns false on this step (1-based); 0 = immortal
}

func (f *fakeSim) Step() bool {
	f.steps++
	return f.dieAt == 0 || f.steps < f.dieAt || f.steps > f.dieAt
}

// recorder logs every observer callback it receives.
type recorder struct {
	starts  []View
	ticks   []View
	stopV   View
	stopErr error
	stops   int
}

func (r *recorder) OnStart(v View) error { r.starts = append(r.starts, v); return nil }
func (r *recorder) OnTick(v View) error  { r.ticks = append(r.ticks, v); return nil }
func (r *recorder) OnStop(v View, err error) {
	r.stops++
	r.stopV, r.stopErr = v, err
}

func TestRunCompletes(t *testing.T) {
	sim := &fakeSim{}
	rec := &recorder{}
	rep, err := Run(context.Background(), sim, Config{Until: 10, Observers: []Observer{rec}})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Tick != 10 || rep.Stopped {
		t.Fatalf("report = %+v, want Tick=10 Stopped=false", rep)
	}
	if sim.steps != 10 {
		t.Fatalf("sim stepped %d times, want 10", sim.steps)
	}
	if len(rec.starts) != 1 || rec.starts[0].Tick != 0 {
		t.Fatalf("OnStart calls = %+v, want one at Tick 0", rec.starts)
	}
	if len(rec.ticks) != 10 || rec.ticks[0].Tick != 1 || rec.ticks[9].Tick != 10 {
		t.Fatalf("OnTick saw %d ticks (first %+v), want 1..10", len(rec.ticks), rec.ticks[0])
	}
	if rec.stops != 1 || rec.stopV.Tick != 10 || rec.stopErr != nil {
		t.Fatalf("OnStop = %dx (%+v, %v), want once at Tick 10 with nil error",
			rec.stops, rec.stopV, rec.stopErr)
	}
}

func TestRunStartOffsetKeepsAbsoluteTicks(t *testing.T) {
	sim := &fakeSim{}
	rec := &recorder{}
	rep, err := Run(context.Background(), sim, Config{Start: 5, Until: 8, Observers: []Observer{rec}})
	if err != nil || rep.Tick != 8 {
		t.Fatalf("Run = (%+v, %v), want Tick=8", rep, err)
	}
	if sim.steps != 3 {
		t.Fatalf("sim stepped %d times, want 3", sim.steps)
	}
	want := []int{6, 7, 8}
	for i, v := range rec.ticks {
		if v.Tick != want[i] {
			t.Fatalf("tick %d observed as %d, want %d", i, v.Tick, want[i])
		}
	}
}

func TestOnStartErrorAbortsBeforeStepping(t *testing.T) {
	boom := errors.New("boom")
	sim := &fakeSim{}
	rec := &recorder{}
	_, err := Run(context.Background(), sim, Config{Until: 10, Observers: []Observer{
		Funcs{Start: func(View) error { return boom }},
		rec,
	}})
	if !errors.Is(err, boom) {
		t.Fatalf("Run error = %v, want %v", err, boom)
	}
	if sim.steps != 0 {
		t.Fatalf("sim stepped %d times after OnStart failure, want 0", sim.steps)
	}
	if rec.stops != 0 {
		t.Fatalf("OnStop fired %d times for a run that never started", rec.stops)
	}
}

func TestObserverErrorAbortsRun(t *testing.T) {
	boom := errors.New("boom")
	sim := &fakeSim{}
	rec := &recorder{}
	rep, err := Run(context.Background(), sim, Config{Until: 10, Observers: []Observer{
		Funcs{Tick: func(v View) error {
			if v.Tick == 3 {
				return boom
			}
			return nil
		}},
		rec,
	}})
	if !errors.Is(err, boom) {
		t.Fatalf("Run error = %v, want %v", err, boom)
	}
	if rep.Tick != 3 || sim.steps != 3 {
		t.Fatalf("rep.Tick=%d steps=%d, want both 3", rep.Tick, sim.steps)
	}
	// The failing observer short-circuits later observers' OnTick for
	// that tick, but everyone's OnStop still fires with the error.
	if len(rec.ticks) != 2 {
		t.Fatalf("later observer saw %d ticks, want 2", len(rec.ticks))
	}
	if rec.stops != 1 || !errors.Is(rec.stopErr, boom) {
		t.Fatalf("OnStop = %dx with err %v, want once with %v", rec.stops, rec.stopErr, boom)
	}
}

func TestErrStopEndsRunCleanly(t *testing.T) {
	sim := &fakeSim{}
	rec := &recorder{}
	rep, err := Run(context.Background(), sim, Config{Until: 10, Observers: []Observer{
		Funcs{Tick: func(v View) error {
			if v.Tick >= 4 {
				return ErrStop
			}
			return nil
		}},
		rec,
	}})
	if err != nil {
		t.Fatalf("Run error = %v, want nil for ErrStop", err)
	}
	if rep.Tick != 4 || rep.Stopped {
		t.Fatalf("report = %+v, want Tick=4 Stopped=false", rep)
	}
	if rec.stops != 1 || rec.stopErr != nil {
		t.Fatalf("OnStop err = %v, want nil", rec.stopErr)
	}
}

func TestSimDeathStopsRun(t *testing.T) {
	sim := &fakeSim{dieAt: 5}
	rec := &recorder{}
	rep, err := Run(context.Background(), sim, Config{Until: 10, Observers: []Observer{rec}})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Tick != 5 || !rep.Stopped {
		t.Fatalf("report = %+v, want Tick=5 Stopped=true", rep)
	}
	// Observers still see the fatal tick, flagged dead.
	last := rec.ticks[len(rec.ticks)-1]
	if len(rec.ticks) != 5 || last.Tick != 5 || last.Alive {
		t.Fatalf("final observed tick = %+v (of %d), want Tick=5 Alive=false", last, len(rec.ticks))
	}
}

func TestContextCancellationLeavesPartialRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	sim := &fakeSim{}
	rec := &recorder{}
	rep, err := Run(ctx, sim, Config{Until: 1000, Observers: []Observer{
		Funcs{Tick: func(v View) error {
			if v.Tick == 2 {
				cancel()
			}
			return nil
		}},
		rec,
	}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run error = %v, want context.Canceled", err)
	}
	// The tick that was in flight completed; nothing further ran, and the
	// report covers exactly the completed work.
	if rep.Tick != 2 || sim.steps != 2 {
		t.Fatalf("rep.Tick=%d steps=%d, want both 2", rep.Tick, sim.steps)
	}
	if rec.stops != 1 || !errors.Is(rec.stopErr, context.Canceled) {
		t.Fatalf("OnStop err = %v, want context.Canceled", rec.stopErr)
	}
}

func TestEveryNUsesAbsoluteTicks(t *testing.T) {
	sim := &fakeSim{}
	var fired []int
	_, err := Run(context.Background(), sim, Config{Start: 7, Until: 17, Observers: []Observer{
		EveryN{N: 5, Fn: func(v View) error { fired = append(fired, v.Tick); return nil }},
	}})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// A resumed run (Start 7) fires on the same absolute boundaries an
	// uninterrupted one would: 10 and 15, not 12 and 17.
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 15 {
		t.Fatalf("EveryN fired at %v, want [10 15]", fired)
	}
}

func TestCountTicksBatchesAndFlushes(t *testing.T) {
	sim := &fakeSim{}
	var adds []int64
	var total int64
	_, err := Run(context.Background(), sim, Config{Until: 10, Observers: []Observer{
		&CountTicks{Every: 4, Add: func(d int64) { adds = append(adds, d); total += d }},
	}})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if total != 10 {
		t.Fatalf("counted %d ticks, want 10", total)
	}
	want := []int64{4, 4, 2} // two full batches, remainder flushed at stop
	if len(adds) != len(want) || adds[0] != 4 || adds[1] != 4 || adds[2] != 2 {
		t.Fatalf("Add batches = %v, want %v", adds, want)
	}
}

func TestFuncsNilFieldsAreNoOps(t *testing.T) {
	sim := &fakeSim{}
	rep, err := Run(context.Background(), sim, Config{Until: 3, Observers: []Observer{Funcs{}}})
	if err != nil || rep.Tick != 3 {
		t.Fatalf("Run = (%+v, %v), want clean completion", rep, err)
	}
}

func TestTicksDrivesChipAndStopsEarly(t *testing.T) {
	c := chip.New(chip.DefaultParams(3, true, false))
	n := Ticks(c, nil, 10, nil)
	if n != 10 || c.Ticks() != 10 {
		t.Fatalf("Ticks ran %d (chip at %d), want 10", n, c.Ticks())
	}
	calls := 0
	n = Ticks(c, nil, 10, func(t int, rep chip.TickReport, acts []control.Action) bool {
		calls++
		if acts != nil {
			panic("acts must be nil without a controller")
		}
		return t < 3 // stop after the 4th tick
	})
	if n != 4 || calls != 4 {
		t.Fatalf("early stop ran %d ticks / %d calls, want 4", n, calls)
	}
	if c.Ticks() != 14 {
		t.Fatalf("chip tick counter = %d, want 14", c.Ticks())
	}
}

func TestNewCellBuildsTheBootSequence(t *testing.T) {
	suite := workload.SPECint()[:3]
	c, ctl, err := NewCell(CellSpec{Params: chip.DefaultParams(5, true, false),
		Workloads: suite, Policy: policy.NewGuardband()})
	if err != nil {
		t.Fatal(err)
	}
	for i, co := range c.Cores {
		if got, want := co.Workload().P.Name, suite[i%len(suite)].Name; got != want {
			t.Errorf("core %d runs %s, want %s (round-robin)", i, got, want)
		}
	}
	if ctl.Policy().Name() != "guardband" {
		t.Errorf("policy %s, want guardband", ctl.Policy().Name())
	}
	if _, ok := ctl.Assignment(0); ok {
		t.Error("an uncalibrated cell has a monitored line")
	}

	_, ctl, err = NewCell(CellSpec{Params: chip.DefaultParams(5, true, false),
		Workloads: suite, Calibrate: true})
	if err != nil {
		t.Fatal(err)
	}
	if ctl.Policy().Name() != "paper" {
		t.Errorf("nil policy built %s, want the paper ladder", ctl.Policy().Name())
	}
	for _, d := range c.Domains {
		if _, ok := ctl.Assignment(d.ID); !ok {
			t.Errorf("calibrated cell left domain %d unmonitored", d.ID)
		}
	}
}
