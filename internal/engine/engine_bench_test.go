package engine_test

// Black-box tests that drive the engine through the real simulator: the
// zero-allocation guarantee for the steady-state tick path, and the
// checkpoint-observer resume contract. This file is in package
// engine_test so it can import the root eccspec package (which itself
// imports internal/engine) without a cycle.

import (
	"bytes"
	"context"
	"testing"

	"eccspec"
	"eccspec/internal/engine"
	"eccspec/internal/snapshot"
)

// BenchmarkEngineTick measures the full per-tick path — chip step,
// controller tick, observer dispatch — on a calibrated simulator. The
// steady state must not allocate: chip, control, cache and sram all
// reuse per-instance scratch, and the engine keeps the loop and View on
// the stack. CI's bench smoke runs this with -benchtime=1x; the
// zero-alloc assertion itself lives in TestEngineTickDoesNotAllocate so
// a regression fails `go test` too.
func BenchmarkEngineTick(b *testing.B) {
	sim, err := eccspec.NewSimulator(eccspec.Options{Seed: 42, Workload: "jbb-8wh"})
	if err != nil {
		b.Fatal(err)
	}
	if err := sim.Calibrate(); err != nil {
		b.Fatal(err)
	}
	sim.Run(0.2) // converge into the steady state first
	obs := engine.Funcs{Tick: func(engine.View) error { return nil }}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := sim.RunEngine(context.Background(), b.N, obs); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkChipStep isolates the chip's per-tick sampling path — the
// batch-kernel walk over every core's arrays plus the monitor probes —
// from the controller and observer overhead BenchmarkEngineTick adds on
// top, so kernel-level optimizations can be measured directly.
func BenchmarkChipStep(b *testing.B) {
	sim, err := eccspec.NewSimulator(eccspec.Options{Seed: 42, Workload: "jbb-8wh"})
	if err != nil {
		b.Fatal(err)
	}
	if err := sim.Calibrate(); err != nil {
		b.Fatal(err)
	}
	sim.Run(0.2)
	c := sim.Chip()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step()
	}
}

// TestEngineTickDoesNotAllocate requires the steady-state tick of the
// exact-sampling (full-fidelity) path to be allocation-free.
func TestEngineTickDoesNotAllocate(t *testing.T) {
	t.Run("full", func(t *testing.T) {
		sim, err := eccspec.NewSimulator(eccspec.Options{Seed: 42, Workload: "jbb-8wh"})
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Calibrate(); err != nil {
			t.Fatal(err)
		}
		sim.Run(0.2)
		ctx := context.Background()
		// Build the run configuration once: RunEngine's variadic observer
		// slice is a per-run setup cost, amortized to zero in the benchmark;
		// the per-tick path below must be allocation-free outright.
		cfg := engine.Config{Observers: []engine.Observer{
			engine.Funcs{Tick: func(engine.View) error { return nil }},
		}}
		avg := testing.AllocsPerRun(200, func() {
			cfg.Start = sim.Ticks()
			cfg.Until = cfg.Start + 1
			if _, err := engine.Run(ctx, sim, cfg); err != nil {
				t.Fatal(err)
			}
		})
		if avg != 0 {
			t.Fatalf("steady-state tick allocates %.2f times per run, want 0", avg)
		}
	})
}

// TestCheckpointObserverResume interrupts a run at a checkpoint
// boundary, restores a fresh simulator from the blob the observer
// captured, finishes the run there, and requires the final snapshot to
// be byte-identical to an uninterrupted run of the same length.
func TestCheckpointObserverResume(t *testing.T) {
	const seed, total, cut = 77, 600, 300
	newSim := func() *eccspec.Simulator {
		sim, err := eccspec.NewSimulator(eccspec.Options{Seed: seed, Workload: "mcf"})
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Calibrate(); err != nil {
			t.Fatal(err)
		}
		return sim
	}

	// Reference: one uninterrupted run.
	ref := newSim()
	if _, err := ref.RunEngine(context.Background(), total); err != nil {
		t.Fatal(err)
	}
	want, err := snapshot.CaptureBlob(ref)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: a checkpoint observer captures the state at the
	// cut boundary and a stop condition ends the run right there.
	var blob []byte
	interrupted := newSim()
	rep, err := interrupted.RunEngine(context.Background(), total,
		engine.EveryN{N: cut, Fn: func(v engine.View) error {
			b, err := snapshot.CaptureBlob(interrupted)
			if err != nil {
				return err
			}
			blob = b
			return nil
		}},
		engine.Funcs{Tick: func(v engine.View) error {
			if v.Tick >= cut {
				return engine.ErrStop
			}
			return nil
		}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tick != cut || blob == nil {
		t.Fatalf("interrupted run stopped at %d (blob captured: %v), want %d", rep.Tick, blob != nil, cut)
	}

	// Resume from the blob and finish the remaining ticks.
	resumed, _, err := snapshot.RestoreBlob(blob)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Ticks() != cut {
		t.Fatalf("restored simulator at tick %d, want %d", resumed.Ticks(), cut)
	}
	if _, err := resumed.RunEngine(context.Background(), total-cut); err != nil {
		t.Fatal(err)
	}
	got, err := snapshot.CaptureBlob(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed run diverged: snapshot %d bytes vs %d, contents differ", len(got), len(want))
	}
}
