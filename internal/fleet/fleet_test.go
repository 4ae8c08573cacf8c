package fleet

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eccspec/internal/snapshot"
)

// TestParallelSerialDeterminism is the engine's core contract: a fleet
// of 32 seeds run through a parallel worker pool must produce results
// — per-chip, aggregated, and rendered — byte-identical to the same
// seeds run serially.
func TestParallelSerialDeterminism(t *testing.T) {
	job := Job{
		Workload:   "jbb-8wh",
		Seconds:    0.05,
		TraceEvery: 20,
	}
	for seed := uint64(2000); seed < 2032; seed++ {
		job.Seeds = append(job.Seeds, seed)
	}

	serial, err := New(Config{Workers: 1}).Run(context.Background(), job, nil)
	if err != nil {
		t.Fatalf("serial run: %v", err)
	}
	parallel, err := New(Config{Workers: 4}).Run(context.Background(), job, nil)
	if err != nil {
		t.Fatalf("parallel run: %v", err)
	}

	if len(serial) != len(job.Seeds) || len(parallel) != len(job.Seeds) {
		t.Fatalf("result count: serial %d, parallel %d, want %d", len(serial), len(parallel), len(job.Seeds))
	}
	for i := range serial {
		if serial[i].Err != nil {
			t.Fatalf("serial chip %d failed: %v", serial[i].Seed, serial[i].Err)
		}
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Errorf("chip %d: serial and parallel results differ:\n  serial:   %+v\n  parallel: %+v",
				serial[i].Seed, serial[i], parallel[i])
		}
		var sCSV, pCSV bytes.Buffer
		if err := serial[i].Trace.WriteCSV(&sCSV); err != nil {
			t.Fatal(err)
		}
		if err := parallel[i].Trace.WriteCSV(&pCSV); err != nil {
			t.Fatal(err)
		}
		if sCSV.String() != pCSV.String() {
			t.Errorf("chip %d: traces differ", serial[i].Seed)
		}
	}

	var sOut, pOut bytes.Buffer
	if err := Summarize(serial).Write(&sOut); err != nil {
		t.Fatal(err)
	}
	if err := Summarize(parallel).Write(&pOut); err != nil {
		t.Fatal(err)
	}
	if sOut.String() != pOut.String() {
		t.Fatalf("aggregated summaries differ:\nserial:\n%s\nparallel:\n%s", sOut.String(), pOut.String())
	}
	if !strings.Contains(sOut.String(), "fleet of 32 chips (0 failed)") {
		t.Fatalf("unexpected summary header:\n%s", sOut.String())
	}
}

// TestCancellationMidRun cancels a fleet while chips are in flight:
// Run must return promptly with the context's error and a fully
// populated result slice in which interrupted chips carry that error.
func TestCancellationMidRun(t *testing.T) {
	job := Job{
		Seeds:   []uint64{1, 2, 3, 4, 5, 6},
		Seconds: 30, // far longer than the test allows to run
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(150 * time.Millisecond)
		cancel()
	}()

	start := time.Now()
	results, err := New(Config{Workers: 2}).Run(ctx, job, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run error = %v, want context.Canceled", err)
	}
	// Cancellation latency is bounded by one calibration plus one tick.
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	if len(results) != len(job.Seeds) {
		t.Fatalf("got %d results, want %d", len(results), len(job.Seeds))
	}
	cancelled := 0
	for i, r := range results {
		if r.Seed != job.Seeds[i] {
			t.Errorf("result %d has seed %d, want %d", i, r.Seed, job.Seeds[i])
		}
		if errors.Is(r.Err, context.Canceled) {
			cancelled++
		} else if r.Err != nil {
			t.Errorf("chip %d: unexpected error %v", r.Seed, r.Err)
		}
	}
	if cancelled == 0 {
		t.Fatal("no chip observed the cancellation")
	}
	s := Summarize(results)
	if s.Failed != cancelled || s.Chips != len(job.Seeds) {
		t.Fatalf("summary counts %d/%d, want %d/%d", s.Failed, s.Chips, cancelled, len(job.Seeds))
	}
}

// TestWorkerPoolSaturation floods a small pool with many chips and
// checks that concurrency never exceeds the worker cap, that the pool
// actually saturates, and that progress reporting is monotonic.
func TestWorkerPoolSaturation(t *testing.T) {
	const workers, chips = 3, 24
	var cur, peak atomic.Int32
	orig := simulateFn
	simulateFn = func(ctx context.Context, job Job, seed uint64) ChipResult {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
		cur.Add(-1)
		return ChipResult{Seed: seed, NominalV: 0.8, Ticks: 1}
	}
	defer func() { simulateFn = orig }()

	job := Job{Seconds: 0.001}
	for seed := uint64(0); seed < chips; seed++ {
		job.Seeds = append(job.Seeds, seed)
	}
	var lastDone int
	results, err := New(Config{Workers: workers}).Run(context.Background(), job, func(done, total int) {
		if total != chips {
			t.Errorf("progress total = %d, want %d", total, chips)
		}
		if done != lastDone+1 {
			t.Errorf("progress done = %d after %d", done, lastDone)
		}
		lastDone = done
	})
	if err != nil {
		t.Fatal(err)
	}
	if lastDone != chips {
		t.Fatalf("progress reached %d, want %d", lastDone, chips)
	}
	for i, r := range results {
		if r.Seed != uint64(i) || r.Err != nil {
			t.Fatalf("result %d = %+v", i, r)
		}
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("concurrency peaked at %d, cap is %d", p, workers)
	} else if p < workers {
		t.Errorf("pool never saturated: peak %d of %d workers", p, workers)
	}
}

// TestJobValidation rejects malformed jobs before any chip is built.
func TestJobValidation(t *testing.T) {
	eng := New(Config{})
	bad := []Job{
		{Seconds: 1},         // no seeds
		{Seeds: []uint64{1}}, // no duration
		{Seeds: []uint64{1}, Seconds: 1, Workload: "nope"}, // unknown workload
		{Seeds: []uint64{1}, Seconds: 1, TraceEvery: -1},   // bad trace interval
	}
	for i, j := range bad {
		if _, err := eng.Run(context.Background(), j, nil); err == nil {
			t.Errorf("job %d: Run accepted invalid job %+v", i, j)
		}
	}
	if New(Config{}).Workers() < 1 {
		t.Error("default engine has no workers")
	}
}

// TestUncoreFleet runs a single specimen with uncore speculation and
// checks the extra rail is reported.
func TestUncoreFleet(t *testing.T) {
	results, err := New(Config{Workers: 1}).Run(context.Background(),
		Job{Seeds: []uint64{7}, Seconds: 0.02, Uncore: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := results[0]
	if r.Err != nil {
		t.Fatalf("chip failed: %v", r.Err)
	}
	if r.UncoreVdd <= 0 {
		t.Fatalf("uncore Vdd not reported: %+v", r)
	}
	if len(r.DomainVdd) == 0 || r.NominalV <= 0 || r.Ticks <= 0 {
		t.Fatalf("incomplete result: %+v", r)
	}
}

// TestCheckpointResumeByteIdentical is the fleet-level resume contract:
// a job resumed from mid-run checkpoint blobs finishes with per-chip
// results (voltages, power, tick counts, traces) deep-equal to the same
// job run uninterrupted.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	base := Job{
		Seeds:      []uint64{9001, 9002, 9003},
		Workload:   "jbb-8wh",
		Seconds:    0.05,
		TraceEvery: 10,
	}
	eng := New(Config{Workers: 2})

	uninterrupted, err := eng.Run(context.Background(), base, nil)
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}
	for _, r := range uninterrupted {
		if r.Err != nil {
			t.Fatalf("uninterrupted chip %d failed: %v", r.Seed, r.Err)
		}
	}

	// Run again with checkpointing, harvesting each chip's *first*
	// checkpoint so the resumed run has real work left to do.
	var (
		mu    sync.Mutex
		blobs = map[uint64][]byte{}
		at    = map[uint64]int{}
	)
	ckpt := base
	ckpt.CheckpointEvery = 25
	ckpt.OnCheckpoint = func(seed uint64, ticks int, blob []byte) {
		// Every blob is whole: it restores with the full partial trace.
		if st, err := snapshot.Unmarshal(blob); err != nil {
			t.Errorf("seed %d checkpoint at tick %d: %v", seed, ticks, err)
		} else if rec, err := st.Trace.RestoreTrace(); err != nil || rec == nil || rec.Len() != ticks/base.TraceEvery {
			t.Errorf("seed %d checkpoint at tick %d does not restore its %d trace rows: %v", seed, ticks, ticks/base.TraceEvery, err)
		}
		mu.Lock()
		defer mu.Unlock()
		if _, ok := blobs[seed]; !ok {
			blobs[seed] = blob
			at[seed] = ticks
		}
	}
	if _, err := eng.Run(context.Background(), ckpt, nil); err != nil {
		t.Fatalf("checkpointing run: %v", err)
	}
	if len(blobs) != len(base.Seeds) {
		t.Fatalf("collected %d checkpoints, want %d", len(blobs), len(base.Seeds))
	}
	for seed, ticks := range at {
		if ticks != 25 {
			t.Errorf("seed %d first checkpoint at tick %d, want 25", seed, ticks)
		}
	}

	resume := base
	resume.Resume = blobs
	resumed, err := eng.Run(context.Background(), resume, nil)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	for i := range uninterrupted {
		if resumed[i].Err != nil {
			t.Fatalf("resumed chip %d failed: %v", resumed[i].Seed, resumed[i].Err)
		}
		if !reflect.DeepEqual(uninterrupted[i], resumed[i]) {
			t.Errorf("chip %d: resumed result differs from uninterrupted:\n  uninterrupted: %+v\n  resumed:       %+v",
				uninterrupted[i].Seed, uninterrupted[i], resumed[i])
		}
	}

	// Summaries (the user-visible artifact) must match byte-for-byte.
	var a, b bytes.Buffer
	if err := Summarize(uninterrupted).Write(&a); err != nil {
		t.Fatal(err)
	}
	if err := Summarize(resumed).Write(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("summaries differ:\nuninterrupted:\n%s\nresumed:\n%s", a.String(), b.String())
	}
}

// TestResumeRejectsBadBlob routes a corrupt resume blob and a blob for
// the wrong seed into per-chip errors without aborting the fleet.
func TestResumeRejectsBadBlob(t *testing.T) {
	job := Job{
		Seeds:   []uint64{501, 502},
		Seconds: 0.02,
		Resume: map[uint64][]byte{
			501: []byte("not a snapshot"),
		},
	}
	results, err := New(Config{Workers: 1}).Run(context.Background(), job, nil)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err == nil {
		t.Fatal("corrupt resume blob did not error")
	}
	if !strings.Contains(results[0].Err.Error(), "resume") {
		t.Fatalf("error %q does not mention resume", results[0].Err)
	}
	if results[1].Err != nil {
		t.Fatalf("healthy sibling failed: %v", results[1].Err)
	}
}

// TestOnResultDelivery checks every completed chip is delivered through
// the OnResult hook exactly once.
func TestOnResultDelivery(t *testing.T) {
	orig := simulateFn
	simulateFn = func(ctx context.Context, job Job, seed uint64) ChipResult {
		return ChipResult{Seed: seed, NominalV: 0.8, Ticks: 1}
	}
	defer func() { simulateFn = orig }()

	job := Job{Seeds: []uint64{1, 2, 3, 4, 5}, Seconds: 0.01}
	var mu sync.Mutex
	got := map[uint64]int{}
	job.OnResult = func(res ChipResult) {
		mu.Lock()
		got[res.Seed]++
		mu.Unlock()
	}
	if _, err := New(Config{Workers: 3}).Run(context.Background(), job, nil); err != nil {
		t.Fatal(err)
	}
	for _, seed := range job.Seeds {
		if got[seed] != 1 {
			t.Errorf("seed %d delivered %d times, want 1", seed, got[seed])
		}
	}
}
