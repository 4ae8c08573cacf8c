package snapshot

import (
	"testing"

	"eccspec"
)

// FuzzSnapshotRestore hands RestoreBlob arbitrary bytes: it must reject
// or accept, never panic — and anything it accepts must be a working
// simulator. The corpus seeds a genuine capture plus its classic
// corruptions (truncation, bit flips), and a traced blob and a delta,
// so the CRC, version, decode and trace-section paths all get explored
// from realistic starting points.
func FuzzSnapshotRestore(f *testing.F) {
	sim, err := eccspec.NewSimulator(eccspec.Options{Seed: 42, Workload: "gcc"})
	if err != nil {
		f.Fatal(err)
	}
	if err := sim.Calibrate(); err != nil {
		f.Fatal(err)
	}
	stepN(sim, 50)
	blob, err := CaptureBlob(sim)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add([]byte{})
	f.Add(blob[:len(blob)/2])
	flipped := append([]byte(nil), blob...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)
	f.Add(blob[4:]) // header knocked off
	// A traced blob and a delta cut from it, whole and with a torn
	// trace section, so the section decoder is explored too.
	traced := tracedBlob(f, sim, 40)
	split, err := SplitTraced(traced)
	if err != nil {
		f.Fatal(err)
	}
	delta, err := split.Tail(25)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(traced)
	f.Add(delta)
	f.Add(traced[:len(traced)-9])
	f.Add(delta[:split.section+6])

	f.Fuzz(func(t *testing.T, data []byte) {
		restored, st, err := RestoreBlob(data)
		if err != nil {
			return
		}
		if restored == nil || st == nil {
			t.Fatal("nil simulator accepted without error")
		}
		// An accepted snapshot must yield a live, steppable simulator.
		before := restored.Ticks()
		stepN(restored, 3)
		if restored.Ticks() != before+3 {
			t.Fatalf("restored simulator does not step: %d -> %d", before, restored.Ticks())
		}
	})
}
