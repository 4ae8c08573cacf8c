// Package fleet runs many independent chip simulations concurrently.
//
// Every manufactured chip is a different specimen — a different
// weak-cell map, different logic floors, different rail resonances —
// so the population-level object of interest is the *distribution* of
// voltage and power savings across a fleet of seeds. This package is
// the engine behind that view: a bounded worker pool that takes a Job
// (seeds, workload, duration, controller options), simulates each seed
// through the full seed → calibrate → speculate pipeline, and collects
// per-chip results with per-chip error capture instead of aborting the
// whole survey.
//
// Determinism: each chip derives all of its randomness from its own
// seed and shares no state with its siblings, and results are stored
// by input position, so a parallel run is byte-identical to a serial
// run of the same Job — only wall-clock time changes.
package fleet

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"

	"eccspec"
	"eccspec/internal/engine"
	"eccspec/internal/policy"
	"eccspec/internal/snapshot"
	"eccspec/internal/trace"
	"eccspec/internal/workload"
)

// TraceColumns names the per-tick telemetry series recorded when a
// Job requests tracing: mean and minimum domain Vdd, mean monitor
// error rate at the last controller decision, and average chip power.
var TraceColumns = []string{"vdd_mean_v", "vdd_min_v", "err_rate", "power_w"}

// Priority bounds for Job.Priority: ten admission classes, 0 (default,
// lowest) through 9 (highest).
const (
	MinPriority = 0
	MaxPriority = 9
)

// Job describes one fleet simulation: the same platform and workload
// across many chip specimens.
type Job struct {
	// Seeds lists the chip specimens to simulate, one simulation per
	// seed. Order is preserved in the results.
	Seeds []uint64 `json:"seeds"`
	// Workload names the benchmark every core runs (empty selects the
	// characterization stress test).
	Workload string `json:"workload,omitempty"`
	// Policy names the speculation policy driving every chip's control
	// system (empty selects the paper's floor/ceiling ladder). The field
	// serializes with the job, so cluster workers run the same policy.
	Policy string `json:"policy,omitempty"`
	// Priority is the job's admission class (0..9, higher first). The
	// engine itself runs whatever it is handed; the field lives on the
	// Job so the daemon's bounded queue can order admissions and so the
	// class serializes with the job — through the store's journal and
	// across cluster dispatch — instead of being daemon-local state.
	Priority int `json:"priority,omitempty"`
	// Seconds is the simulated duration of the closed-loop speculation
	// run after calibration.
	Seconds float64 `json:"seconds"`
	// HighVoltagePoint selects the nominal 2.53 GHz / 1.1 V operating
	// point instead of the low-voltage 340 MHz / 800 mV default.
	HighVoltagePoint bool `json:"high_voltage_point,omitempty"`
	// FullGeometry uses the paper's full Table I cache sizes.
	FullGeometry bool `json:"full_geometry,omitempty"`
	// Uncore extends speculation to the uncore rail.
	Uncore bool `json:"uncore,omitempty"`
	// TraceEvery samples per-tick telemetry (TraceColumns) every N
	// ticks into each chip's Trace recorder; 0 disables tracing.
	TraceEvery int `json:"trace_every,omitempty"`
	// CheckpointEvery emits a full simulator snapshot through
	// OnCheckpoint every N ticks; 0 disables checkpointing.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`

	// OnCheckpoint, when set with CheckpointEvery > 0, receives each
	// chip's serialized snapshot (a snapshot blob including any partial
	// trace) as the simulation passes checkpoint boundaries. It may be
	// called concurrently from worker goroutines.
	OnCheckpoint func(seed uint64, ticks int, blob []byte) `json:"-"`
	// OnResult, when set, is called with each chip's final result as it
	// completes, before Run returns. It may be called concurrently from
	// worker goroutines.
	OnResult func(res ChipResult) `json:"-"`
	// Resume maps seeds to snapshot blobs previously emitted by
	// OnCheckpoint. A seed present here skips construction and
	// calibration and continues from the captured tick; the completed
	// run is byte-identical to one that was never interrupted.
	Resume map[uint64][]byte `json:"-"`
	// Observers, when set, supplies extra engine observers for each
	// chip's run — live metrics, custom stop conditions — composed
	// after the job's own trace and checkpoint observers. It is called
	// once per chip and may be called concurrently from worker
	// goroutines; the returned observers are used by one run only.
	Observers func(seed uint64) []engine.Observer `json:"-"`
	// OnAssign, when set, is told which executor a chip has been placed
	// on before it runs. The local engine never calls it — placement is
	// a cluster concept (internal/cluster invokes it with the worker id
	// on every dispatch, including re-dispatch after a migration) — but
	// it lives on the Job so a cluster run is driven through exactly
	// the same hook surface as a local one. It may be called
	// concurrently.
	OnAssign func(seed uint64, worker string) `json:"-"`
}

// WithSeeds returns a copy of the job scoped to the given seeds — the
// remote-executable chip range a cluster coordinator ships to a worker
// daemon. Callbacks, observers, and resume blobs are stripped: none of
// them serialize, and the executing side wires its own. The returned
// job is safe to JSON-encode and fully describes the simulation, so a
// worker that runs it produces chips byte-identical to a local run of
// the same range.
func (j Job) WithSeeds(seeds []uint64) Job {
	j.Seeds = seeds
	j.OnCheckpoint, j.OnResult, j.Observers, j.OnAssign = nil, nil, nil, nil
	j.Resume = nil
	return j
}

// Validate checks a Job before any simulation is built.
func (j Job) Validate() error {
	if len(j.Seeds) == 0 {
		return fmt.Errorf("fleet: job has no seeds")
	}
	if j.Seconds <= 0 {
		return fmt.Errorf("fleet: non-positive duration %g s", j.Seconds)
	}
	if j.TraceEvery < 0 {
		return fmt.Errorf("fleet: negative trace interval %d", j.TraceEvery)
	}
	if j.CheckpointEvery < 0 {
		return fmt.Errorf("fleet: negative checkpoint interval %d", j.CheckpointEvery)
	}
	if j.Priority < MinPriority || j.Priority > MaxPriority {
		return fmt.Errorf("fleet: priority %d out of range [%d, %d]", j.Priority, MinPriority, MaxPriority)
	}
	if j.Workload != "" {
		if _, ok := workload.ByName(j.Workload); !ok {
			return fmt.Errorf("fleet: unknown workload %q", j.Workload)
		}
	}
	if j.Policy != "" {
		if _, ok := policy.Get(j.Policy); !ok {
			return fmt.Errorf("fleet: unknown policy %q (registered: %s)",
				j.Policy, strings.Join(policy.Names(), ", "))
		}
	}
	return nil
}

// ChipResult is the outcome of one chip's simulation. Exactly one of
// Err or the measurement fields is meaningful: a failed chip carries
// its error and zero measurements.
type ChipResult struct {
	// Seed identifies the specimen.
	Seed uint64
	// Err captures this chip's failure (calibration error, core death,
	// cancellation, or a panic in the simulation) without aborting the
	// rest of the fleet.
	Err error
	// NominalV is the operating point's rated supply in volts.
	NominalV float64
	// AvgReduction is the mean relative Vdd reduction across domains.
	AvgReduction float64
	// DomainVdd holds each core domain's final setpoint in volts.
	DomainVdd []float64
	// UncoreVdd is the uncore rail's final setpoint (nominal unless the
	// job enabled uncore speculation).
	UncoreVdd float64
	// AvgPowerW is the chip's average power over the run.
	AvgPowerW float64
	// Ticks is the number of control ticks executed.
	Ticks int
	// Emergencies counts the emergency interrupts the chip's controller
	// serviced during this process's run (live telemetry — not carried
	// through checkpoints or the store).
	Emergencies int
	// FailSafe lists the voltage domains the controller reverted to
	// nominal after a monitor fault (sorted; nil in healthy runs). Like
	// Emergencies, live telemetry only.
	FailSafe []int
	// Trace holds per-tick telemetry when the job requested it.
	Trace *trace.Recorder
}

// Config sizes an Engine.
type Config struct {
	// Workers caps concurrent chip simulations; <= 0 selects
	// runtime.GOMAXPROCS(0).
	Workers int
	// QueueDepth bounds the dispatch queue feeding the workers; <= 0
	// selects twice the worker count.
	QueueDepth int
}

// Engine is a reusable worker pool for fleet jobs.
type Engine struct {
	workers int
	queue   int
}

// New builds an engine from cfg.
func New(cfg Config) *Engine {
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	q := cfg.QueueDepth
	if q <= 0 {
		q = 2 * w
	}
	return &Engine{workers: w, queue: q}
}

// Workers returns the concurrency cap.
func (e *Engine) Workers() int { return e.workers }

// simulateFn indirects the per-chip simulation so tests can observe
// scheduling (saturation, cancellation) without paying for real chips.
var simulateFn = simulateChip

// Run simulates every seed of the job and returns one ChipResult per
// seed, in seed (input) order. A chip's failure is captured in its
// result's Err; Run itself only errors on an invalid job or a
// cancelled context. On cancellation the returned slice is still fully
// populated: finished chips keep their results, unstarted and
// interrupted chips carry ctx's error.
//
// onProgress, if non-nil, is called after each chip completes with the
// number of finished chips and the fleet size; it must be safe to call
// from worker goroutines (calls are serialized).
func (e *Engine) Run(ctx context.Context, job Job, onProgress func(done, total int)) ([]ChipResult, error) {
	if err := job.Validate(); err != nil {
		return nil, err
	}
	n := len(job.Seeds)
	results := make([]ChipResult, n)

	workers := e.workers
	if workers > n {
		workers = n
	}
	depth := e.queue
	if depth > n {
		depth = n
	}
	jobs := make(chan int, depth)

	var (
		wg       sync.WaitGroup
		progMu   sync.Mutex
		finished int
	)
	// runOne isolates one chip's full turn — simulation plus the
	// OnResult and onProgress callbacks — behind a recover, so a panic
	// anywhere in it (an observer, a callback, the simulator itself)
	// becomes that chip's error instead of killing the worker and
	// deadlocking the pool. The progress mutex is released by defer for
	// the same reason.
	runOne := func(idx int) {
		defer func() {
			if r := recover(); r != nil {
				results[idx] = ChipResult{Seed: job.Seeds[idx],
					Err: fmt.Errorf("fleet: chip %d: worker panic: %v", job.Seeds[idx], r)}
			}
		}()
		results[idx] = simulateFn(ctx, job, job.Seeds[idx])
		if job.OnResult != nil {
			job.OnResult(results[idx])
		}
		if onProgress != nil {
			progMu.Lock()
			defer progMu.Unlock()
			finished++
			onProgress(finished, n)
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				if err := ctx.Err(); err != nil {
					// Drain the queue quickly once cancelled, marking
					// every unstarted chip.
					results[idx] = ChipResult{Seed: job.Seeds[idx], Err: err}
					continue
				}
				runOne(idx)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return results, ctx.Err()
}

// simulateChip runs one specimen through the full pipeline. All
// failure modes — calibration errors, core death, cancellation, a
// corrupt resume blob, even a panic in the simulator — land in the
// result's Err.
func simulateChip(ctx context.Context, job Job, seed uint64) (res ChipResult) {
	res.Seed = seed
	defer func() {
		if r := recover(); r != nil {
			res = ChipResult{Seed: seed, Err: fmt.Errorf("fleet: chip %d panicked: %v", seed, r)}
		}
	}()

	// Build the simulator: either fresh (construct + calibrate) or
	// restored from a checkpoint blob, which carries the calibration and
	// any partial trace inside it.
	var sim *eccspec.Simulator
	start := 0
	if blob, ok := job.Resume[seed]; ok {
		restored, st, err := snapshot.RestoreBlob(blob)
		if err != nil {
			res.Err = fmt.Errorf("resume: %w", err)
			return res
		}
		if got := restored.Opts().Seed; got != seed {
			res.Err = fmt.Errorf("resume: checkpoint is for seed %d, not %d", got, seed)
			return res
		}
		if got, want := restored.Opts().Policy, policy.Resolve(job.Policy); got != want {
			res.Err = fmt.Errorf("resume: checkpoint ran policy %q, job wants %q", got, want)
			return res
		}
		sim = restored
		start = st.Ticks
		if job.TraceEvery > 0 {
			rec, err := st.Trace.RestoreTrace()
			if err != nil {
				res.Err = fmt.Errorf("resume: %w", err)
				return res
			}
			if rec == nil {
				rec = trace.NewRecorder(TraceColumns...)
			}
			res.Trace = rec
		}
	} else {
		var err error
		sim, err = eccspec.NewSimulator(eccspec.Options{
			Seed:             seed,
			Workload:         job.Workload,
			Policy:           job.Policy,
			HighVoltagePoint: job.HighVoltagePoint,
			FullGeometry:     job.FullGeometry,
		})
		if err != nil {
			res.Err = err
			return res
		}
		if err := sim.Calibrate(); err != nil {
			res.Err = fmt.Errorf("calibrate: %w", err)
			return res
		}
		if job.Uncore {
			if err := sim.EnableUncoreSpeculation(); err != nil {
				res.Err = fmt.Errorf("uncore calibrate: %w", err)
				return res
			}
		}
		if job.TraceEvery > 0 {
			res.Trace = trace.NewRecorder(TraceColumns...)
		}
	}

	// One engine run carries tracing and checkpointing as observers on
	// absolute tick numbering, so the modulo boundaries stay aligned
	// across an interruption: tick t of a resumed run is tick t of the
	// uninterrupted run.
	ticks := int(job.Seconds / sim.TickSeconds())
	var obs []engine.Observer
	if job.TraceEvery > 0 {
		// The run samples ticks start+1..ticks that are multiples of
		// TraceEvery.
		res.Trace.Grow(max(ticks/job.TraceEvery-start/job.TraceEvery, 0))
		obs = append(obs, engine.EveryN{N: job.TraceEvery, Fn: func(engine.View) error {
			res.Trace.Add(sim.Time(), traceSample(sim)...)
			return nil
		}})
	}
	if job.CheckpointEvery > 0 && job.OnCheckpoint != nil {
		obs = append(obs, engine.EveryN{N: job.CheckpointEvery, Fn: func(v engine.View) error {
			if v.Tick >= v.Until {
				// The final tick's state is the result itself; no
				// checkpoint needed.
				return nil
			}
			if blob, err := checkpointBlob(sim, res.Trace); err == nil {
				job.OnCheckpoint(seed, v.Tick, blob)
			}
			return nil
		}})
	}
	if job.Observers != nil {
		obs = append(obs, job.Observers(seed)...)
	}
	rep, err := engine.Run(ctx, sim, engine.Config{Start: start, Until: ticks, Observers: obs})
	res.Ticks = rep.Tick
	res.Emergencies = sim.Control().Emergencies()
	res.FailSafe = sim.Control().FailSafeDomains()
	if err != nil {
		res.Err = err
		return res
	}

	if !sim.CoresAlive() {
		res.Err = fmt.Errorf("core died after %d ticks (rail below crash margin)", res.Ticks)
		return res
	}

	res.NominalV = sim.NominalVoltage()
	res.AvgReduction = sim.AverageReduction()
	res.DomainVdd = make([]float64, sim.NumDomains())
	for d := 0; d < sim.NumDomains(); d++ {
		res.DomainVdd[d] = sim.DomainVoltage(d)
	}
	res.UncoreVdd = sim.UncoreVoltage()
	res.AvgPowerW = sim.TotalPower()
	return res
}

// checkpointBlob serializes a live simulator plus its partial trace.
func checkpointBlob(sim *eccspec.Simulator, rec *trace.Recorder) ([]byte, error) {
	st, err := snapshot.Capture(sim)
	if err != nil {
		return nil, err
	}
	st.Trace = snapshot.CaptureTrace(rec)
	return snapshot.Marshal(st)
}

// traceSample reads one telemetry row (TraceColumns order) off a live
// simulator.
func traceSample(sim *eccspec.Simulator) []float64 {
	nd := sim.NumDomains()
	meanV, minV, meanErr := 0.0, sim.DomainVoltage(0), 0.0
	for d := 0; d < nd; d++ {
		v := sim.DomainVoltage(d)
		meanV += v
		if v < minV {
			minV = v
		}
		meanErr += sim.MonitorErrorRate(d)
	}
	meanV /= float64(nd)
	meanErr /= float64(nd)
	return []float64{meanV, minV, meanErr, sim.TotalPower()}
}
