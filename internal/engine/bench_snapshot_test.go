package engine_test

// `make bench-snapshot` harness: set ECCSPEC_BENCH_TICKS_OUT to a path
// and TestBenchSnapshot writes a BENCH_ticks.json performance snapshot
// — single-chip tick latency from BenchmarkEngineTick plus fleet
// throughput from a parallel micro-run — so CI archives a comparable
// number per commit. The row records the machine it was measured on,
// and it replaces the committed one only when it passes the regression
// gate against it, so a failing run cannot re-baseline the gate.
// Without the env var the test skips, keeping plain `go test ./...`
// fast.

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"eccspec/internal/fleet"
)

// regressionFactor is the ns/tick slack the gate allows over the
// committed snapshot before failing: generous enough to absorb the
// ±10% run-to-run noise of shared CI machines, tight enough that a
// real hot-path regression (the kind the batch kernels exist to
// prevent) cannot land silently.
const regressionFactor = 1.25

func TestBenchSnapshot(t *testing.T) {
	out := os.Getenv("ECCSPEC_BENCH_TICKS_OUT")
	if out == "" {
		t.Skip("set ECCSPEC_BENCH_TICKS_OUT to write a benchmark snapshot")
	}

	// The committed snapshot at the destination path, if any, is the
	// regression baseline.
	var baseline float64
	if prev, err := os.ReadFile(out); err == nil {
		var old struct {
			NsPerTick float64 `json:"ns_per_tick"`
		}
		if err := json.Unmarshal(prev, &old); err == nil {
			baseline = old.NsPerTick
		}
	}

	// The default 1s benchtime leaves only a few thousand ticks per
	// round, which over-weights the post-convergence transient and
	// scheduler noise; 3s keeps snapshot-to-snapshot jitter well inside
	// the regression slack.
	if err := flag.Set("test.benchtime", "3s"); err != nil {
		t.Fatal(err)
	}
	tick := testing.Benchmark(BenchmarkEngineTick)
	nsPerTick := float64(tick.NsPerOp())

	job := fleet.Job{Workload: "jbb-8wh", Seconds: 0.05}
	for seed := uint64(4000); seed < 4008; seed++ {
		job.Seeds = append(job.Seeds, seed)
	}
	// The engine's default worker count (GOMAXPROCS), so the row
	// describes the machine it was measured on.
	eng := fleet.New(fleet.Config{})
	start := time.Now()
	results, err := eng.Run(context.Background(), job, nil)
	if err != nil {
		t.Fatalf("fleet micro-run: %v", err)
	}
	elapsed := time.Since(start)
	chips := 0
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("chip %d failed: %v", r.Seed, r.Err)
		}
		chips++
	}

	blob, err := json.MarshalIndent(map[string]any{
		"bench":           "ticks",
		"ns_per_tick":     nsPerTick,
		"ticks_per_sec":   1e9 / nsPerTick,
		"allocs_per_tick": tick.AllocsPerOp(),
		"fleet_chips":     chips,
		"fleet_workers":   eng.Workers(),
		"fleet_elapsed_s": elapsed.Seconds(),
		"chips_per_min":   float64(chips) / elapsed.Minutes(),
		"nproc":           runtime.NumCPU(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"go_version":      runtime.Version(),
		"cpu":             cpuModel(),
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if baseline > 0 && nsPerTick > baseline*regressionFactor {
		t.Fatalf("tick latency regressed: %.0f ns/tick vs committed %.0f (limit %.0f); %s left unchanged; this run's row:\n%s",
			nsPerTick, baseline, baseline*regressionFactor, out, blob)
	}
	if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", out)
}

// cpuModel names the processor from /proc/cpuinfo's first "model name"
// line, or "unknown" where that file does not exist.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, ln := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(ln, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
