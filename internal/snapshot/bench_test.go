package snapshot_test

import (
	"context"
	"testing"

	"eccspec"
	"eccspec/internal/fleet"
	"eccspec/internal/snapshot"
)

// BenchmarkTracedCheckpointBlob measures what a traced fleet chip pays
// at each checkpoint: capture the simulator, attach its 4000-row partial
// trace (gcc, seed 11, sampled every tick) and encode the blob.
func BenchmarkTracedCheckpointBlob(b *testing.B) {
	job := fleet.Job{Seeds: []uint64{11}, Workload: "gcc", Seconds: 4, TraceEvery: 1}
	res, err := fleet.New(fleet.Config{Workers: 1}).Run(context.Background(), job, nil)
	if err != nil || res[0].Err != nil {
		b.Fatal(err, res[0].Err)
	}
	rec := res[0].Trace
	if rec.Len() != 4000 {
		b.Fatalf("trace holds %d rows, want 4000", rec.Len())
	}
	sim, err := eccspec.NewSimulator(eccspec.Options{Seed: 11, Workload: "gcc"})
	if err != nil {
		b.Fatal(err)
	}
	if err := sim.Calibrate(); err != nil {
		b.Fatal(err)
	}
	var size int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := snapshot.Capture(sim)
		if err != nil {
			b.Fatal(err)
		}
		st.Trace = snapshot.CaptureTrace(rec)
		blob, err := snapshot.Marshal(st)
		if err != nil {
			b.Fatal(err)
		}
		size = len(blob)
	}
	b.ReportMetric(float64(size)/1024, "blob_KiB")
}
