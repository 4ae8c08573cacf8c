package snapshot

import (
	"runtime"
	"testing"

	"eccspec"
)

// heapObjects counts the heap objects f allocates.
func heapObjects(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// firstTickObjects bounds the heap objects a simulator's first ticks
// may allocate: the chip's and controller's per-tick scratch, sized on
// first use (6 objects). Built lazily instead, the specimen's tables
// cost the first ticks 632 objects after Calibrate and its profiles and
// tables 2,368 after a restore.
const firstTickObjects = 32

// TestFirstTicksBuildNoSpecimen checks that NewSimulator and
// RestoreBlob characterize the specimen eagerly: the first ticks after
// either, counted in heap objects, build no weak-cell profiles, kernel
// tables or footprints. The restored case includes an aged array,
// whose profiles the restore must rebuild.
func TestFirstTicksBuildNoSpecimen(t *testing.T) {
	sim, err := eccspec.NewSimulator(eccspec.Options{Seed: 40003, Workload: "mcf"})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Calibrate(); err != nil {
		t.Fatal(err)
	}
	if n := heapObjects(func() { stepN(sim, 5) }); n > firstTickObjects {
		t.Errorf("first ticks after NewSimulator allocated %d objects, want <= %d", n, firstTickObjects)
	}

	co := sim.Chip().Cores[3]
	co.Hier.L2D.Array().SetAge(5000)
	stepN(sim, 5)
	blob, err := CaptureBlob(sim)
	if err != nil {
		t.Fatal(err)
	}
	rs, _, err := RestoreBlob(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got := rs.Chip().Cores[3].Hier.L2D.Array().Age(); got != 5000 {
		t.Fatalf("restored age %v, want 5000", got)
	}
	if n := heapObjects(func() { stepN(rs, 5) }); n > firstTickObjects {
		t.Errorf("first ticks after RestoreBlob allocated %d objects, want <= %d", n, firstTickObjects)
	}
	// The eagerly built restore still continues byte-identically.
	stepN(sim, 20)
	stepN(rs, 15)
	a, err := CaptureBlob(sim)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CaptureBlob(rs)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("restored simulator diverged from the original")
	}
}
