package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"eccspec/internal/control"
	"eccspec/internal/fleet"
)

// survey: many seeded chips through one in-process fleet.Engine, each
// calibrated and then speculating for a 50-tick window. Calibration is
// nearly all of a chip's time here, so this is the workload a faster
// calibration sweep must move, and one a faster tick path must leave
// alone.
const (
	surveyChips   = 12   // chips per fleet job
	surveySeconds = 0.05 // the 50-tick speculation window
	// surveyJobSeconds provisions the run's jobs: one per this many
	// seconds of --seconds, about eight times as many as a run gets
	// through here, so a faster program still has jobs to run.
	surveyJobSeconds = 0.2
	// surveyCheckChips is how many chips an untraced run re-drives
	// through direct calls; the traced run re-drives every chip of its
	// first surveyTracedJobs jobs.
	surveyCheckChips = 3
	surveyTracedJobs = 2
	// Set-up is timed surveySetups times before the run and again after
	// each job, each time over surveySetupBatch back-to-back set-ups:
	// one set-up takes well under a millisecond.
	surveySetups     = 3
	surveySetupBatch = 40
)

// surveyJobs generates the run's fleet jobs: low-voltage chips under
// the paper's policy, one Table II workload per job in a seeded cycle,
// every tick traced.
func surveyJobs(seed uint64, n int) []fleet.Job {
	in := newInputs(seed, "survey")
	names := in.tableII()
	jobs := make([]fleet.Job, n)
	for i := range jobs {
		jobs[i] = fleet.Job{
			Seeds:      in.chipSeeds(surveyChips),
			Workload:   names[i%len(names)],
			Seconds:    surveySeconds,
			TraceEvery: 1,
		}
	}
	return jobs
}

func runSurvey(cfg config) (*outcome, error) {
	out := newOutcome()
	nJobs := max(int(math.Ceil(cfg.Seconds/surveyJobSeconds)), surveyTracedJobs)
	var (
		jobs  []fleet.Job
		eng   *fleet.Engine
		clock setupClock
	)
	// setup generates the run's jobs and builds the engine; the repeats
	// through the run discard theirs.
	setup := func(keep bool) func() error {
		return func() error {
			j, e := surveyJobs(cfg.Seed, nJobs), fleet.New(fleet.Config{Workers: runtime.NumCPU()})
			if keep {
				jobs, eng = j, e
			}
			return nil
		}
	}
	runtime.GC()
	for i := 0; i < surveySetups; i++ {
		clock.time(surveySetupBatch, setup(true))
	}

	minRounds := 1
	if cfg.Traced {
		minRounds = surveyTracedJobs
	}
	ph := newPhases()
	var (
		results       []fleet.ChipResult
		turn          []float64
		ran, finished int
	)
	start := time.Now()
	for ran < len(jobs) && (ran < minRounds || since(start) < cfg.Seconds) {
		job := jobs[ran]
		job.Observers = ph.observers
		t0 := time.Now()
		res, err := eng.Run(context.Background(), job, nil)
		turn = append(turn, since(t0))
		if err != nil {
			return nil, fmt.Errorf("fleet run: %w", err)
		}
		results = append(results, res...)
		ran++
		clock.again(func() error { return clock.time(surveySetupBatch, setup(false)) })
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
			finished++
			seeds = append(seeds, r.Seed)
		}
	}
	out.set("chips_per_min", float64(finished)/wall*60, finished)
	out.set("sim_ticks_per_s", ph.ticksPerSecond(seeds), finished)
	out.timing("job_turnaround_s_p50", turn, 1)
	journal, err := journalBytes(out, results, windowTicks(surveySeconds))
	if err != nil {
		return nil, err
	}
	out.set("journal_mb_per_job", float64(journal)/float64(ran)/1e6, ran)
	out.set("peak_rss_mb", rss, 0)
	floorV := control.DefaultConfig().CalibFloorV
	checkFleetChips(out, results, ph, floorV)

	// The parallel fleet results must equal serial direct calls bit for
	// bit: every chip of the first jobs when traced, a seeded few
	// otherwise.
	var specs []chipSpec
	want := make(map[uint64]chipOutcome)
	for _, r := range results {
		want[r.Seed] = outcomeOf(r)
	}
	if cfg.Traced {
		for _, job := range jobs[:surveyTracedJobs] {
			specs = append(specs, surveySpecs(job)...)
		}
	} else {
		in := newInputs(cfg.Seed, "survey-check")
		for i := 0; i < surveyCheckChips; i++ {
			k := in.intn(len(results))
			job := jobs[k/surveyChips]
			specs = append(specs, surveySpecs(job)[k%surveyChips])
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
	out.note("fleet: %d jobs, %d chips in %.2f s; direct re-drive of %d chips in %.2f s", ran, len(results), wall, len(rds), redriveWall)
	if cfg.Traced {
		simLayerMetrics(out, rds, tr, ph)
		traceOverhead(out, redriveWall, jobs[:surveyTracedJobs], turn)
		if err := tr.write(filepath.Join(cfg.BuildDir, fmt.Sprintf("spans-survey-%d.json", cfg.Seed))); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// surveySpecs lists a survey job's chips as re-drive specs.
func surveySpecs(job fleet.Job) []chipSpec {
	var specs []chipSpec
	for _, s := range job.Seeds {
		specs = append(specs, chipSpec{Seed: s, Workload: job.Workload, Seconds: job.Seconds, TraceEvery: job.TraceEvery})
	}
	return specs
}

// traceOverhead notes how much slower the traced direct re-drive ran
// than the untraced fleet run of the same jobs.
func traceOverhead(out *outcome, redriveWall float64, jobs []fleet.Job, turn []float64) {
	fleetWall := sum(turn[:len(jobs)])
	out.note("tracing overhead: traced re-drive of the first %d jobs took %.2f s against %.2f s in the workload run (%+.1f%%)",
		len(jobs), redriveWall, fleetWall, 100*(redriveWall/fleetWall-1))
}
