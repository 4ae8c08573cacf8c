package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"eccspec/internal/cluster"
	"eccspec/internal/control"
	"eccspec/internal/fleet"
	"eccspec/internal/policy"
)

// soak: long closed-loop windows on a cluster. An in-process
// cluster.Coordinator shards each job over two loopback
// cluster.Executors of one fleet worker each, with trace sampling and
// checkpoints streamed back, so the tick path, the monitor and policy,
// snapshot capture and exec-stream framing do the work and calibration
// is a minority of each chip.
//
// One cycle runs every Table II workload once, in a seeded order, so
// every run simulates the same workload mix; runs are whole cycles.
// Chips run the guardband policy: under the paper's policy a seed-
// dependent ~1% of low-voltage chips lose a core to an uncorrectable
// error or take emergencies within these windows (README.md), and a
// benchmark cannot keep failures that depend on the seed.
const (
	soakExecutors       = 2
	soakChipsPerJob     = 2
	soakPolicy          = "guardband"
	soakTraceEvery      = 10
	soakCheckpointEvery = 5000
	// soakCheckChips chips per untraced run are re-driven through direct
	// calls; the traced run re-drives every chip of its first
	// soakTracedJobs jobs.
	soakCheckChips = 2
	soakTracedJobs = 6
	// Set-up is timed soakSetups times before the run and again after
	// each job, each time over soakSetupBatch back-to-back cluster
	// starts: one start takes well under a millisecond.
	soakSetups     = 3
	soakSetupBatch = 20
	// soakSeconds is every chip's closed-loop window. It is fixed: a
	// job's turnaround is its slower chip, and windows dealt per job
	// moved the median turnaround more than run-to-run noise does. Run
	// returns only at a poll of the coordinator, every 250 ms from the
	// job's start, so turnaround moves in 250 ms steps; at 20 s the
	// median job's chips finish mid-step, about 0.6 s in.
	soakSeconds = 20
)

// Reduction band for a guardband chip at the low-voltage point
// (README.md): measured 0.064-0.180 over 408 chips.
const (
	soakReductionLo = 0.04
	soakReductionHi = 0.22
	// soakMinHoldShare: once at its static margin a guardband domain
	// holds, so nearly every decision of a long window is a hold.
	soakMinHoldShare = 0.9
)

// soakCycle generates one cycle of jobs.
func soakCycle(in *inputs) []fleet.Job {
	names := in.tableII()
	jobs := make([]fleet.Job, len(names))
	for i, name := range names {
		jobs[i] = fleet.Job{
			Seeds:           in.chipSeeds(soakChipsPerJob),
			Workload:        name,
			Policy:          soakPolicy,
			Seconds:         soakSeconds,
			TraceEvery:      soakTraceEvery,
			CheckpointEvery: soakCheckpointEvery,
		}
	}
	return jobs
}

// countingTransport counts the exec-stream bytes and events (one JSON
// line each) the coordinator reads back from its executors.
type countingTransport struct {
	base          http.RoundTripper
	bytes, events atomic.Int64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(r)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, t: t}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	t *countingTransport
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.t.bytes.Add(int64(n))
	b.t.events.Add(int64(bytes.Count(p[:n], []byte{'\n'})))
	return n, err
}

// soakCluster is the coordinator and its loopback executors.
type soakCluster struct {
	coord   *cluster.Coordinator
	servers []*httptest.Server
	counter *countingTransport
}

func startSoakCluster(ph *phases) (*soakCluster, error) {
	// The executors live in this process and never go silent, so the
	// liveness TTL only has to outlast a run.
	m := cluster.NewMembership(time.Hour)
	c := &soakCluster{counter: &countingTransport{base: cluster.NewTransport()}}
	for i := 0; i < soakExecutors; i++ {
		ex := &cluster.Executor{Engine: fleet.New(fleet.Config{Workers: 1}), Observers: ph.observers}
		mux := http.NewServeMux()
		mux.HandleFunc("POST "+cluster.PathExec, ex.HandleExec)
		ts := httptest.NewServer(mux)
		c.servers = append(c.servers, ts)
		// An executor counts as started once it answers over loopback.
		resp, err := ts.Client().Get(ts.URL + cluster.PathExec)
		if err != nil {
			c.close()
			return nil, fmt.Errorf("executor %d not answering: %w", i, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		m.Join(cluster.RegisterRequest{ID: fmt.Sprintf("exec-%d", i), URL: ts.URL, Slots: 1})
	}
	c.coord = cluster.New(cluster.Config{Membership: m, Transport: c.counter, Logf: func(string, ...any) {}})
	return c, nil
}

func (c *soakCluster) close() {
	for _, ts := range c.servers {
		ts.Close()
	}
}

// closeClusters closes every started cluster of a set-up batch.
func closeClusters(cs []*soakCluster) {
	for _, c := range cs {
		if c != nil {
			c.close()
		}
	}
}

// ckptLog keeps the checkpoint volume streamed back, and the blobs of
// the one chip whose mid-run restore is checked.
type ckptLog struct {
	mu    sync.Mutex
	bytes int64
	seed  uint64
	blobs map[int][]byte
}

func (l *ckptLog) add(seed uint64, ticks int, blob []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.bytes += int64(len(blob))
	if seed == l.seed {
		l.blobs[ticks] = blob
	}
}

func runSoak(cfg config) (*outcome, error) {
	out := newOutcome()
	ph := newPhases()
	var (
		cl    *soakCluster
		clock setupClock
	)
	// startBatch times soakSetupBatch back-to-back cluster starts, then
	// closes them all but, when keep is set, the last, which serves the
	// run.
	startBatch := func(keep bool) error {
		var batch []*soakCluster
		err := clock.time(soakSetupBatch, func() error {
			c, err := startSoakCluster(ph)
			if err == nil {
				batch = append(batch, c)
			}
			return err
		})
		if err == nil && keep {
			if cl != nil {
				cl.close()
			}
			cl, batch = batch[len(batch)-1], batch[:len(batch)-1]
		}
		closeClusters(batch)
		return err
	}
	runtime.GC()
	for i := 0; i < soakSetups; i++ {
		if err := startBatch(true); err != nil {
			return nil, err
		}
	}
	defer cl.close()

	in := newInputs(cfg.Seed, "soak")
	pick := newInputs(cfg.Seed, "soak-check")
	var (
		jobs    []fleet.Job
		results []fleet.ChipResult
		turn    []float64
		wait    []float64 // from the last chip result until Run returned
	)
	first := soakCycle(in)
	restoreJob := pick.intn(len(first))
	ckpts := &ckptLog{seed: first[restoreJob].Seeds[pick.intn(soakChipsPerJob)], blobs: make(map[int][]byte)}
	start := time.Now()
	for cycle := first; ; cycle = soakCycle(in) {
		for _, job := range cycle {
			job.OnCheckpoint = ckpts.add
			var (
				mu   sync.Mutex
				last time.Time
			)
			job.OnResult = func(fleet.ChipResult) {
				mu.Lock()
				defer mu.Unlock()
				last = time.Now()
			}
			t0 := time.Now()
			res, err := cl.coord.Run(context.Background(), job, nil)
			if err != nil {
				return nil, fmt.Errorf("cluster run: %w", err)
			}
			// A caller waits until Run returns, which is the
			// coordinator's next membership poll after the job's last
			// chip result; that wait is also reported on its own.
			ret := time.Now()
			turn = append(turn, ret.Sub(t0).Seconds())
			mu.Lock()
			wait = append(wait, ret.Sub(last).Seconds())
			mu.Unlock()
			jobs = append(jobs, job)
			results = append(results, res...)
			if err := clock.again(func() error { return startBatch(false) }); err != nil {
				return nil, err
			}
		}
		if since(start) >= cfg.Seconds {
			break
		}
	}
	wall := since(start) - clock.inLoop.Seconds()
	out.setup(&clock)
	rss, err := peakRSSMiB("self")
	if err != nil {
		return nil, err
	}
	var seeds []uint64
	for _, r := range results {
		if r.Err == nil {
			seeds = append(seeds, r.Seed)
		}
	}
	out.set("chips_per_min", float64(len(seeds))/wall*60, len(seeds))
	out.set("sim_ticks_per_s", ph.ticksPerSecond(seeds), len(seeds))
	out.timing("job_turnaround_s_p50", turn, 1)
	journal, err := journalBytes(out, results, windowTicks(soakSeconds)/soakTraceEvery)
	if err != nil {
		return nil, err
	}
	out.set("journal_mb_per_job", float64(journal+ckpts.bytes)/float64(len(jobs))/1e6, len(jobs))
	out.set("peak_rss_mb", rss, 0)

	floorV := control.DefaultConfig().CalibFloorV
	checkFleetChips(out, results, ph, floorV)
	want := make(map[uint64]chipOutcome)
	specOf := make(map[uint64]chipSpec)
	for i, r := range results {
		want[r.Seed] = outcomeOf(r)
		job := jobs[i/soakChipsPerJob]
		specOf[r.Seed] = chipSpec{Seed: r.Seed, Workload: job.Workload, Policy: job.Policy,
			Seconds: job.Seconds, TraceEvery: job.TraceEvery, CheckpointEvery: job.CheckpointEvery}
		if r.Err == nil {
			out.problem(checkWithin(fmt.Sprintf("chip %d mean Vdd reduction", r.Seed), r.AvgReduction, soakReductionLo, soakReductionHi))
			if p, ok := ph.get(r.Seed); ok {
				out.problem(checkMargin(r.Seed, r.DomainVdd, p.OnsetV))
			}
		}
	}
	checkMidRunRestore(out, ckpts, specOf, want, ph)

	var specs []chipSpec
	if cfg.Traced {
		for _, s := range seeds[:soakTracedJobs*soakChipsPerJob] {
			specs = append(specs, specOf[s])
		}
	} else {
		for i := 0; i < soakCheckChips; i++ {
			specs = append(specs, specOf[results[pick.intn(len(results))].Seed])
		}
	}
	var tr *tracer
	if cfg.Traced {
		tr = newTracer()
	}
	t0 := time.Now()
	rds, err := redriveAll(specs, tr)
	if err != nil {
		return nil, err
	}
	redriveWall := since(t0)
	checkRedriven(out, rds, want, floorV)
	var acts actionCounts
	for _, rd := range rds {
		acts.merge(rd.Acts)
	}
	if acts.Decisions > 0 {
		out.problem(checkWithin("share of hold decisions", float64(acts.Holds)/float64(acts.Decisions), soakMinHoldShare, 1))
	}
	st := cl.coord.Stats()
	out.note("cluster: %d jobs, %d chips in %.2f s; direct re-drive of %d chips in %.2f s; %d dispatches, %d stolen, %d retries",
		len(jobs), len(results), wall, len(rds), redriveWall, st.Dispatches, st.ChipsStolen, st.Retries)
	out.note("closed-loop share of chip host time: %.1f%%", 100*closedLoopShare(ph, seeds, wall))
	w := summarize(wait)
	out.note("coordinator returned a median %.0f ms after a job's last result (%.1f s over %d jobs)", w.Median*1e3, sum(wait), w.N)
	if cfg.Traced {
		simLayerMetrics(out, rds, tr, ph)
		out.set("cluster.dispatches", float64(st.Dispatches), 0)
		out.set("cluster.chips_stolen", float64(st.ChipsStolen), 0)
		out.set("cluster.retries", float64(st.Retries), 0)
		out.set("cluster.exec_mb", float64(cl.counter.bytes.Load())/1e6, 0)
		out.set("cluster.exec_events", float64(cl.counter.events.Load()), 0)
		out.timing("cluster.completion_wait_ms", wait, 1e3)
		traceOverhead(out, redriveWall, jobs[:soakTracedJobs], turn)
		if err := tr.write(filepath.Join(cfg.BuildDir, fmt.Sprintf("spans-soak-%d.json", cfg.Seed))); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkMargin holds a guardband chip to its policy: every domain parks
// at least policy.DefaultMarginSteps regulator steps above its
// calibrated onset (a backoff only raises it).
func checkMargin(seed uint64, vdd, onsets []float64) error {
	if len(vdd) != len(onsets) {
		return fmt.Errorf("chip %d: %d domain setpoints for %d onsets", seed, len(vdd), len(onsets))
	}
	for d, v := range vdd {
		if min := onsets[d] + float64(policy.DefaultMarginSteps)*railStepV; v < min-1e-9 {
			return fmt.Errorf("chip %d domain %d: Vdd %.3f V is below the static margin %.3f V", seed, d, v, min)
		}
	}
	return nil
}

// checkMidRunRestore restores the middle checkpoint streamed back for
// the chosen chip, runs it to the end, and requires the cluster's
// result. It notes how fast the restored simulator ticked against the
// chip's own closed-loop phase.
func checkMidRunRestore(out *outcome, l *ckptLog, specs map[uint64]chipSpec, want map[uint64]chipOutcome, ph *phases) {
	var ticks []int
	for t := range l.blobs {
		ticks = append(ticks, t)
	}
	if len(ticks) == 0 {
		out.problem(fmt.Errorf("chip %d: no checkpoint streamed back", l.seed))
		return
	}
	sort.Ints(ticks)
	from := ticks[len(ticks)/2]
	got, perTick, err := finishFromBlob(l.blobs[from], specs[l.seed])
	if err != nil {
		out.problem(fmt.Errorf("chip %d: restore from tick %d: %w", l.seed, from, err))
		return
	}
	if err := checkSameOutcome(got, want[l.seed]); err != nil {
		out.problem(fmt.Errorf("restored from tick %d: %w", from, err))
	}
	if p, ok := ph.get(l.seed); ok && p.Ticks > 0 {
		out.note("chip %d restored at tick %d ran %.1f us/tick to the end; its cluster run took %.1f us/tick",
			l.seed, from, float64(perTick.Nanoseconds())/1e3, p.Dur.Seconds()/float64(p.Ticks)*1e6)
	}
}

// closedLoopShare is the closed-loop phases' share of the host time the
// run gave its chips (executor workers times wall time).
func closedLoopShare(ph *phases, seeds []uint64, wall float64) float64 {
	var loop time.Duration
	for _, s := range seeds {
		if p, ok := ph.get(s); ok {
			loop += p.Dur
		}
	}
	return loop.Seconds() / (wall * soakExecutors)
}
