// Command eccbench is eccspec's benchmark: one command that drives the
// simulator, the fleet engine, the cluster tier and the eccspecd daemon
// through their public entry points, checks their outputs, and prints
// every end-to-end metric (untraced run) or every per-layer metric
// (traced run) by name and unit.
//
//	bash eccbench/run.sh --workload survey --seed 1 --seconds 15 --trace 0
//
// run.sh builds this command and the daemon from the checkout first.
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. README.md describes the
// workloads, the metrics and which layer moves which number.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metricDef names one reported metric.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd lists the untraced run's metrics; every workload reports
// all of them (README.md gives each one's meaning per workload).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"chips_per_min", "1/min", "higher"},
	{"sim_ticks_per_s", "1/s", "higher"},
	{"job_turnaround_s_p50", "s", "lower"},
	{"journal_mb_per_job", "MB", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

// perLayer lists the traced run's metrics. A workload that does not
// exercise a layer reports its metrics as 0 with no samples.
var perLayer = []metricDef{
	{"eccspec.new_simulator_ms", "ms", "lower"},
	{"control.calibrate_ms", "ms", "lower"},
	{"control.calib_line_reads", "count", "lower"},
	{"control.calib_ns_per_line_read", "ns", "lower"},
	{"control.onset_steps", "count", "lower"},
	{"chip.step_us", "us", "lower"},
	{"control.tick_us", "us", "lower"},
	{"engine.overhead_us_per_tick", "us", "lower"},
	{"control.decisions", "count", "higher"},
	{"control.holds", "count", "higher"},
	{"control.steps_down", "count", "lower"},
	{"control.steps_up", "count", "lower"},
	{"control.emergencies", "count", "lower"},
	{"snapshot.capture_ms", "ms", "lower"},
	{"snapshot.restore_ms", "ms", "lower"},
	{"snapshot.blob_kb", "KiB", "lower"},
	{"cluster.dispatches", "count", "lower"},
	{"cluster.chips_stolen", "count", "lower"},
	{"cluster.retries", "count", "lower"},
	{"cluster.exec_mb", "MB", "lower"},
	{"cluster.exec_events", "count", "lower"},
	{"cluster.completion_wait_ms", "ms", "lower"},
	{"eccspecd.submit_ms_p50", "ms", "lower"},
	{"eccspecd.queue_wait_s_p50", "s", "lower"},
	{"eccspecd.run_s_p50", "s", "lower"},
	{"eccspecd.results_ms_p50", "ms", "lower"},
	{"eccspecd.revalidate_ms_p50", "ms", "lower"},
	{"eccspecd.list_ms_p50", "ms", "lower"},
	{"eccspecd.status_ms_p50", "ms", "lower"},
	{"eccspecd.status_ms_p99", "ms", "lower"},
	{"eccspecd.status_samples", "count", "higher"},
	{"trace.fetch_ms_p50", "ms", "lower"},
	{"eccspecd.trace_kb", "KiB", "lower"},
	{"eccspecd.result_encodes", "count", "lower"},
	{"eccspecd.not_modified", "count", "higher"},
	{"store.recover_ms", "ms", "lower"},
	{"store.commit_ms", "ms", "lower"},
	{"store.ckpt_append_ms", "ms", "lower"},
	{"store.ckpt_kb", "KiB", "lower"},
}

// config is what every workload runs from.
type config struct {
	Seed     uint64
	Seconds  float64
	Traced   bool
	BuildDir string // scratch space inside the checkout
	Daemon   string // the eccspecd binary run.sh built
}

// measured is one metric's value and the number of samples behind it
// (0 for a count or a single measurement).
type measured struct {
	Value float64
	N     int
}

// outcome is what a workload run hands back for printing.
type outcome struct {
	Attempted, Failed int
	Metrics           map[string]measured
	// Problems lists every failed correctness check; any entry makes
	// the run incorrect.
	Problems []string
	// Notes are informational lines printed ahead of the result.
	Notes []string
}

func newOutcome() *outcome { return &outcome{Metrics: make(map[string]measured)} }

func (o *outcome) set(name string, v float64, n int) { o.Metrics[name] = measured{v, n} }

// timing records a summary of duration samples (seconds) in unit.
func (o *outcome) timing(name string, samples []float64, scale float64) {
	s := summarize(samples)
	o.set(name, s.Median*scale, s.N)
}

// setupClock times a workload's set-up: a few times before the
// measured loop, and again between the loop's jobs, so that the median
// spans the run as the other metrics do. On the shared host of
// README.md's reference figures one set-up's time swung two-fold within
// a minute, far more than a run's throughput moved.
type setupClock struct {
	samples []float64
	// inLoop is the time the repeats took inside the measured loop,
	// which the loop's wall time leaves out.
	inLoop time.Duration
}

// time runs setup batch times back to back and records the time per
// set-up.
func (c *setupClock) time(batch int, setup func() error) error {
	t0 := time.Now()
	for k := 0; k < batch; k++ {
		if err := setup(); err != nil {
			return err
		}
	}
	c.samples = append(c.samples, since(t0)/float64(batch))
	return nil
}

// again runs f, which times a set-up and cleans up after it, between
// jobs of the measured loop, and books its time to inLoop.
func (c *setupClock) again(f func() error) error {
	t0 := time.Now()
	err := f()
	c.inLoop += time.Since(t0)
	return err
}

// setup records the median set-up time and notes every sample.
func (o *outcome) setup(c *setupClock) {
	o.timing("setup_s", c.samples, 1)
	o.note("set-up samples (s): %.4g", c.samples)
}

func (o *outcome) problem(err error) {
	if err != nil {
		o.Problems = append(o.Problems, err.Error())
	}
}

func (o *outcome) note(format string, args ...any) {
	o.Notes = append(o.Notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(config) (*outcome, error){
	"survey":  runSurvey,
	"soak":    runSoak,
	"service": runService,
}

func main() {
	var (
		cfg    config
		name   = flag.String("workload", "", "workload: survey, soak or service")
		trace  = flag.Int("trace", 0, "1 for the traced per-layer run")
		commit = flag.String("commit", "unknown", "source revision, recorded with the result")
	)
	flag.Uint64Var(&cfg.Seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&cfg.Seconds, "seconds", 15, "measurement window in seconds")
	flag.StringVar(&cfg.BuildDir, "build-dir", ".bench_build", "scratch directory inside the checkout")
	flag.StringVar(&cfg.Daemon, "daemon", "", "eccspecd binary (service workload)")
	flag.Parse()
	cfg.Traced = *trace == 1
	run, ok := workloads[*name]
	if !ok || cfg.Seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "eccbench: want --workload survey|soak|service, --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.BuildDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "eccbench: %v\n", err)
		os.Exit(1)
	}
	env := environment(*commit)
	envLine, _ := json.Marshal(map[string]any{"workload": *name, "seed": cfg.Seed,
		"seconds": cfg.Seconds, "trace": *trace, "env": env})
	fmt.Println(string(envLine))

	out, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "eccbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if err := printResult(os.Stdout, out, cfg.Traced); err != nil {
		fmt.Fprintf(os.Stderr, "eccbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
}

// printResult prints the notes, one ledger line per metric with its
// sample count, and the final JSON result line.
func printResult(w *os.File, out *outcome, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, n := range out.Notes {
		fmt.Fprintln(w, "# "+n)
	}
	for _, p := range out.Problems {
		fmt.Fprintln(w, "# CHECK FAILED: "+p)
		fmt.Fprintln(os.Stderr, "eccbench: check failed: "+p)
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]jsonMetric, len(defs))
	for _, d := range defs {
		m, ok := out.Metrics[d.Name]
		if !ok && !traced {
			return fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
		fmt.Fprintf(w, "# %-34s %14.6g %-6s n=%d\n", d.Name, m.Value, d.Unit, m.N)
		metrics[d.Name] = jsonMetric{m.Value, d.Unit}
	}
	b, err := json.Marshal(map[string]any{
		"correct":   len(out.Problems) == 0,
		"attempted": out.Attempted,
		"failed":    out.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// environment records the machine and build a result was measured on.
func environment(commit string) map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, ln := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(ln, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpu,
		"go":         runtime.Version(),
		"commit":     commit,
	}
}

// peakRSSMiB reads a process's peak resident set (VmHWM) in MiB.
func peakRSSMiB(pid string) (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	for _, ln := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(ln, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kb); err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// since returns seconds elapsed from t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
