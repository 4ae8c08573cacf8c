package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"eccspec/internal/admission"
	"eccspec/internal/cluster"
	"eccspec/internal/engine"
	"eccspec/internal/faultinject"
	"eccspec/internal/fleet"
	"eccspec/internal/policy"
	"eccspec/internal/store"
	"eccspec/internal/version"
)

// runner abstracts where a fleet's chips actually simulate: the local
// worker pool (fleet.Engine) or a cluster of worker daemons
// (cluster.Coordinator). Both return ordered, byte-identical results,
// so the rest of the daemon cannot tell them apart.
type runner interface {
	Run(ctx context.Context, job fleet.Job, onProgress func(done, total int)) ([]fleet.ChipResult, error)
}

// maxFleetChips bounds a single submission so one request cannot pin
// the daemon's memory with millions of per-chip results.
const maxFleetChips = 4096

// maxBodyBytes bounds a request body; a fleet submission within the
// chip cap fits comfortably in 1 MiB.
const maxBodyBytes = 1 << 20

// degradedRetryAfter is the Retry-After hint sent with 503s while the
// journal is unwritable.
const degradedRetryAfter = "30"

// shedRetryAfter is the Retry-After hint sent with 429s when the job
// queue sheds a submission: jobs take seconds, so a short client
// backoff is the right order of magnitude.
const shedRetryAfter = "5"

// Job lifecycle states.
const (
	statusQueued   = "queued"
	statusRunning  = "running"
	statusDone     = "done"
	statusFailed   = "failed"
	statusCanceled = "canceled"
)

// fleetRequest is the POST /v1/fleets body. Seeds may be given
// explicitly, or as a contiguous range via chips + base_seed.
type fleetRequest struct {
	Seeds            []uint64 `json:"seeds,omitempty"`
	Chips            int      `json:"chips,omitempty"`
	BaseSeed         uint64   `json:"base_seed,omitempty"`
	Workload         string   `json:"workload,omitempty"`
	Policy           string   `json:"policy,omitempty"`
	Priority         int      `json:"priority,omitempty"`
	Seconds          float64  `json:"seconds"`
	HighVoltagePoint bool     `json:"high_voltage_point,omitempty"`
	FullGeometry     bool     `json:"full_geometry,omitempty"`
	Uncore           bool     `json:"uncore,omitempty"`
	TraceEvery       int      `json:"trace_every,omitempty"`
	// Fidelity is decode-only: adaptive fidelity was removed, and a
	// body that still asks for it is refused rather than run exactly.
	Fidelity string `json:"fidelity,omitempty"`
}

// job converts the request into a fleet.Job.
func (r fleetRequest) job() (fleet.Job, error) {
	if r.Fidelity != "" && r.Fidelity != "full" {
		return fleet.Job{}, fmt.Errorf("fidelity %q is not supported: adaptive fidelity was removed and every run samples each line exactly; omit the field or send \"full\"", r.Fidelity)
	}
	seeds := r.Seeds
	if len(seeds) == 0 && r.Chips > 0 {
		for i := 0; i < r.Chips; i++ {
			seeds = append(seeds, r.BaseSeed+uint64(i))
		}
	}
	if len(seeds) > maxFleetChips {
		return fleet.Job{}, fmt.Errorf("fleet of %d chips exceeds the %d-chip cap", len(seeds), maxFleetChips)
	}
	j := fleet.Job{
		Seeds:            seeds,
		Workload:         r.Workload,
		Policy:           r.Policy,
		Priority:         r.Priority,
		Seconds:          r.Seconds,
		HighVoltagePoint: r.HighVoltagePoint,
		FullGeometry:     r.FullGeometry,
		Uncore:           r.Uncore,
		TraceEvery:       r.TraceEvery,
	}
	return j, j.Validate()
}

// fleetJob is one tracked submission. All mutable fields are guarded
// by the server mutex. A job is queued, then running, then terminal
// (done, failed or canceled); finish is its only way into a terminal
// state.
type fleetJob struct {
	ID        string
	Num       uint64 // numeric id (the store key); ID is "f-<Num>"
	Job       fleet.Job
	Status    string
	Submitted time.Time
	Started   time.Time
	Finished  time.Time
	ChipsDone int
	Results   []fleet.ChipResult
	Summary   *fleet.Summary
	Err       string

	// Etag is set once the job reaches a terminal immutable state
	// (done/failed): completed results never change, so conditional
	// GETs can skip re-serializing them.
	Etag string
	// cancel aborts this job's in-flight simulation; set while running.
	cancel context.CancelFunc
	// userCanceled marks a DELETE-initiated cancellation: the job is
	// evicted from the store instead of resuming on restart.
	userCanceled bool
}

// errClientCancel ends a job that a DELETE canceled before it ran.
var errClientCancel = errors.New("canceled by client")

// finish moves the job to its terminal state at now. A run error
// (cancellation) leaves it canceled; otherwise it is failed when every
// chip failed and done when any succeeded, and its results become
// immutable under an ETag. results may be nil for a job that never ran,
// which then has no summary. The caller holds the server mutex.
func (j *fleetJob) finish(results []fleet.ChipResult, runErr error, now time.Time) {
	j.Finished, j.cancel = now, nil
	if results != nil {
		sum := fleet.Summarize(results)
		j.Results, j.Summary = results, &sum
	}
	switch {
	case runErr != nil:
		j.Status, j.Err = statusCanceled, runErr.Error()
		if j.userCanceled {
			j.Err = errClientCancel.Error()
		}
		return
	case j.Summary.Failed == j.Summary.Chips:
		j.Status, j.Err = statusFailed, "all chips failed"
	default:
		j.Status = statusDone
	}
	j.Etag = etagFor(j)
}

// serverConfig tunes a server beyond its engine.
type serverConfig struct {
	// queueDepth bounds accepted-but-unstarted jobs; <= 0 selects 16.
	queueDepth int
	// store, when non-nil, persists jobs and checkpoints across daemon
	// restarts.
	store *store.Store
	// checkpointEvery is the per-chip snapshot interval in control
	// ticks when a store is attached; <= 0 disables checkpointing.
	checkpointEvery int
	// retention evicts completed jobs this long after they finish;
	// 0 disables the TTL.
	retention time.Duration
	// maxJobs caps retained completed jobs, evicting the oldest first;
	// 0 disables the cap.
	maxJobs int
	// rateLimit grants each client this many requests/second across the
	// /v1/fleets endpoints; 0 disables rate limiting.
	rateLimit float64
	// rateBurst is the per-client burst above rateLimit; 0 derives it
	// from the rate.
	rateBurst int
	// injector, when non-nil, delivers a chaos plan's simulated-hardware
	// faults into every chip run (-chaos-plan).
	injector *faultinject.Injector
	// coordinator, when non-nil, marks this daemon a cluster
	// coordinator: jobs run through it instead of the local engine,
	// and the /v1/cluster registry endpoints are served.
	coordinator *cluster.Coordinator
	// executor, when non-nil, marks this daemon a cluster worker: it
	// serves POST /v1/cluster/exec for its coordinator.
	executor *cluster.Executor
	// coordinatorURL is the coordinator a worker daemon reports to
	// (shown on /healthz).
	coordinatorURL string
	// now substitutes the clock (tests); nil selects time.Now.
	now func() time.Time
}

// server is the eccspecd HTTP daemon: a job table, a bounded queue,
// and a single runner goroutine dispatching fleets onto the engine's
// worker pool. With a store attached, accepted jobs and per-chip
// progress survive daemon crashes: on startup the journal is replayed,
// completed fleets serve their recorded results, and unfinished fleets
// re-enter the queue to continue from their last checkpoints.
type server struct {
	engine  runner
	metrics *metrics
	mux     *http.ServeMux
	cfg     serverConfig

	runCtx    context.Context
	cancelRun context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*fleetJob
	order    []string
	nextID   uint64
	draining bool

	// degraded is set while the journal cannot take writes (persistent
	// I/O failure or a read-only data dir): existing results keep being
	// served, new submissions get 503 + Retry-After, and the flag clears
	// on the next successful commit. degradedReason holds the cause
	// (a string) for /healthz and cluster heartbeats.
	degraded       atomic.Bool
	degradedReason atomic.Value

	// queue is the bounded admission queue feeding the runner: higher
	// Job.Priority pops first, FIFO within a class, and a full queue
	// sheds submissions with 429 + queue-depth headers.
	queue *admission.Queue[*fleetJob]
	// limiter is the per-client token bucket over /v1/fleets traffic;
	// nil when rate limiting is disabled.
	limiter    *admission.Limiter
	runnerDone chan struct{}
}

// newServer wires the routes, recovers persisted jobs, and starts the
// runner.
func newServer(engine runner, cfg serverConfig) *server {
	if cfg.queueDepth <= 0 {
		cfg.queueDepth = 16
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &server{
		engine:     engine,
		metrics:    &metrics{start: cfg.now()},
		mux:        http.NewServeMux(),
		cfg:        cfg,
		runCtx:     ctx,
		cancelRun:  cancel,
		jobs:       make(map[string]*fleetJob),
		runnerDone: make(chan struct{}),
	}
	s.degradedReason.Store("")

	// Recover persisted jobs before sizing the queue: every unfinished
	// job must fit back into it without blocking startup.
	var resume []*fleetJob
	if cfg.store != nil {
		if cfg.store.ReadOnly() {
			s.degraded.Store(true)
			s.degradedReason.Store("data directory is read-only")
			log.Printf("eccspecd: data dir is read-only; serving existing results only (degraded)")
		}
		resume = s.recover()
	}
	depth := cfg.queueDepth
	if depth < len(resume) {
		depth = len(resume)
	}
	s.queue = admission.NewQueue[*fleetJob](depth)
	for _, j := range resume {
		s.queue.Push(j, j.Job.Priority)
	}
	s.limiter = admission.NewLimiter(cfg.rateLimit, cfg.rateBurst)
	s.evict()

	s.mux.HandleFunc("POST /v1/fleets", s.limited(s.handleSubmit))
	s.mux.HandleFunc("GET /v1/fleets", s.limited(s.handleList))
	s.mux.HandleFunc("GET /v1/fleets/{id}", s.limited(s.handleStatus))
	s.mux.HandleFunc("DELETE /v1/fleets/{id}", s.limited(s.handleCancel))
	s.mux.HandleFunc("GET /v1/fleets/{id}/results", s.limited(s.handleResults))
	s.mux.HandleFunc("GET /v1/fleets/{id}/trace", s.limited(s.handleTrace))
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	if cfg.coordinator != nil {
		s.mux.HandleFunc("POST "+cluster.PathRegister, s.handleClusterRegister)
		s.mux.HandleFunc("POST "+cluster.PathHeartbeat, s.handleClusterHeartbeat)
		s.mux.HandleFunc("GET "+cluster.PathMembers, s.handleClusterMembers)
		s.mux.HandleFunc("GET /v1/cluster/jobs/{id}/placement", s.handleClusterPlacement)
	}
	if cfg.executor != nil {
		// The worker shares its local observability with dispatched
		// chips: tick metrics move and a configured chaos plan fires
		// exactly as for locally submitted fleets.
		cfg.executor.Observers = s.chipObservers
		s.mux.HandleFunc("POST "+cluster.PathExec, s.handleClusterExec)
	}
	go s.runner()
	return s
}

// role names what this daemon is in a cluster, if anything.
func (s *server) role() string {
	switch {
	case s.cfg.coordinator != nil:
		return "coordinator"
	case s.cfg.executor != nil:
		return "worker"
	default:
		return ""
	}
}

// chipObservers builds the per-chip engine observers every simulation
// on this daemon carries — local fleets and cluster-dispatched chips
// alike: batched tick counting for /metrics, plus the chaos injector
// when one is armed.
func (s *server) chipObservers(seed uint64) []engine.Observer {
	obs := []engine.Observer{&engine.CountTicks{Add: func(delta int64) { s.metrics.simTicks.Add(delta) }}}
	if in := s.cfg.injector; in != nil {
		obs = append(obs, in.Observer(seed))
	}
	return obs
}

// recover rebuilds the job table from the store: completed jobs come
// back with their recorded results, unfinished jobs are returned for
// re-enqueueing (their finished chips are served from the store and
// the rest resume from their last checkpoints in runJob). The caller
// must not yet have started the runner.
func (s *server) recover() []*fleetJob {
	var resume []*fleetJob
	for _, rec := range s.cfg.store.Jobs() {
		// An unreadable record is pending, not done: runJob re-runs it.
		results, pending := storedResults(rec.Spec.Seeds, rec.Chips)
		j := &fleetJob{
			ID:        fmt.Sprintf("f-%d", rec.ID),
			Num:       rec.ID,
			Job:       rec.Spec,
			ChipsDone: len(results) - len(pending),
		}
		if rec.Completed {
			at := time.Unix(rec.CompletedUnix, 0)
			j.Submitted, j.Started = at, at
			j.finish(results, nil, at)
		} else {
			j.Submitted = s.cfg.now()
			j.Status = statusQueued
			resume = append(resume, j)
			log.Printf("eccspecd: recovered unfinished fleet %s (%d/%d chips done, %d checkpoints)",
				j.ID, j.ChipsDone, len(rec.Spec.Seeds), len(rec.Checkpoints))
		}
		s.jobs[j.ID] = j
		s.order = append(s.order, j.ID)
		if rec.ID > s.nextID {
			s.nextID = rec.ID
		}
	}
	return resume
}

// storedResults lays a job's journaled chips out in submission seed
// order. A seed whose record is missing or unreadable carries an error
// result rather than poisoning the whole job, and its index is listed in
// pending: a completed job serves the error, a resumed one re-runs the
// chip.
func storedResults(seeds []uint64, chips map[uint64]store.ChipRecord) (out []fleet.ChipResult, pending []int) {
	out = make([]fleet.ChipResult, len(seeds))
	for i, seed := range seeds {
		ch, ok := chips[seed]
		if !ok {
			out[i] = fleet.ChipResult{Seed: seed, Err: fmt.Errorf("result missing from store")}
			pending = append(pending, i)
			continue
		}
		r, err := ch.ToResult()
		if err != nil {
			r = fleet.ChipResult{Seed: seed, Err: fmt.Errorf("stored result unreadable: %v", err)}
			pending = append(pending, i)
		}
		out[i] = r
	}
	return out, pending
}

// evict applies the retention policy: completed jobs past the TTL go
// first, then the oldest completed jobs beyond the max-jobs cap.
// Queued and running jobs are never evicted.
func (s *server) evict() {
	now := s.cfg.now()
	s.mu.Lock()
	var completed []*fleetJob
	for _, id := range s.order {
		if j := s.jobs[id]; !j.Finished.IsZero() { // only finish sets it
			completed = append(completed, j)
		}
	}
	sort.SliceStable(completed, func(a, b int) bool { return completed[a].Finished.Before(completed[b].Finished) })
	// The TTL-expired jobs are a prefix of completed, so the cap and the
	// TTL together evict the longest prefix either asks for.
	n := 0
	if s.cfg.maxJobs > 0 {
		n = max(0, len(completed)-s.cfg.maxJobs)
	}
	for ttl := s.cfg.retention; ttl > 0 && n < len(completed) && now.Sub(completed[n].Finished) > ttl; {
		n++
	}
	evicted := completed[:n]
	for _, j := range evicted {
		delete(s.jobs, j.ID)
	}
	if n > 0 {
		kept := s.order[:0]
		for _, id := range s.order {
			if _, ok := s.jobs[id]; ok {
				kept = append(kept, id)
			}
		}
		s.order = kept
	}
	s.mu.Unlock()
	for _, j := range evicted {
		s.metrics.jobsEvicted.Add(1)
		if s.cfg.store != nil {
			if err := s.cfg.store.EvictJob(j.Num); err != nil {
				log.Printf("eccspecd: evicting fleet %s from store: %v", j.ID, err)
			}
		}
	}
}

func (s *server) Handler() http.Handler { return s.mux }

// beginDrain stops accepting new jobs and lets the runner finish the
// queue. Safe to call more than once.
func (s *server) beginDrain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return
	}
	s.draining = true
	s.queue.Close()
}

// drained is closed once the runner has finished every accepted job.
func (s *server) drained() <-chan struct{} { return s.runnerDone }

// cancelJobs aborts in-flight simulation (drain-timeout escape hatch).
func (s *server) cancelJobs() { s.cancelRun() }

// noteStore tracks journal health from commit outcomes: any write error
// (after the store's own bounded retries) flips the daemon into degraded
// mode, the next success lifts it. Returns err for convenience.
func (s *server) noteStore(err error) error {
	if err != nil {
		s.degradedReason.Store("journal write failed: " + err.Error())
		if !s.degraded.Swap(true) {
			log.Printf("eccspecd: journal write failed; entering degraded mode: %v", err)
		}
	} else if s.degraded.Swap(false) {
		s.degradedReason.Store("")
		log.Printf("eccspecd: journal writes recovered; leaving degraded mode")
	}
	return err
}

// health reports the degraded flag together with its cause.
func (s *server) health() (degraded bool, reason string) {
	reason, _ = s.degradedReason.Load().(string)
	return s.degraded.Load(), reason
}

// runner executes queued fleets one at a time, highest priority first;
// each fleet fans its chips out across the engine's worker pool.
func (s *server) runner() {
	defer close(s.runnerDone)
	for {
		j, ok := s.queue.Pop()
		if !ok {
			return
		}
		s.runJob(j)
	}
}

func (s *server) runJob(j *fleetJob) {
	s.mu.Lock()
	// A DELETE that raced the pop (the job left the queue before Remove
	// could see it) lands here: honor it before simulating anything.
	if j.userCanceled {
		j.finish(nil, errClientCancel, s.cfg.now())
		s.mu.Unlock()
		s.settled(j)
		return
	}
	ctx, cancel := context.WithCancel(s.runCtx)
	defer cancel()
	j.cancel = cancel
	j.Status = statusRunning
	j.Started = s.cfg.now()
	s.mu.Unlock()

	// With a store attached: serve already-finished chips from their
	// records, resume the rest from their last checkpoints, and persist
	// chips and checkpoints as the run progresses. Without one every
	// seed is pending.
	job := j.Job
	var rec store.JobRecord
	if st := s.cfg.store; st != nil {
		rec, _ = st.Job(j.Num)
		job.CheckpointEvery = s.cfg.checkpointEvery
		job.OnCheckpoint = func(seed uint64, ticks int, blob []byte) {
			if err := s.noteStore(st.RecordCheckpoint(j.Num, seed, ticks, blob)); err != nil {
				log.Printf("eccspecd: checkpointing %s seed %d: %v", j.ID, seed, err)
			}
		}
		job.OnResult = func(res fleet.ChipResult) {
			// Cancelled or errored chips stay unrecorded so a restart
			// re-runs them; a recorded chip never re-runs.
			if res.Err != nil {
				return
			}
			if err := s.noteStore(st.RecordChip(j.Num, store.FromResult(res))); err != nil {
				log.Printf("eccspecd: recording %s seed %d: %v", j.ID, res.Seed, err)
			}
		}
		// Cluster placement rides the journal too (the coordinator
		// calls OnAssign on every dispatch; the local engine never
		// does), so `eccspec cluster placement` works across a
		// coordinator restart. Not a commit point — losing one costs
		// placement history only.
		job.OnAssign = func(seed uint64, worker string) {
			if err := s.noteStore(st.RecordAssignment(j.Num, seed, worker)); err != nil {
				log.Printf("eccspecd: recording assignment %s seed %d -> %s: %v", j.ID, seed, worker, err)
			}
		}
	}
	results, pending := storedResults(j.Job.Seeds, rec.Chips)
	job.Seeds, job.Resume = nil, make(map[uint64][]byte)
	for _, i := range pending {
		seed := results[i].Seed
		job.Seeds = append(job.Seeds, seed)
		if blob, ok := rec.Checkpoints[seed]; ok {
			job.Resume[seed] = blob
		}
	}

	// Live simulation telemetry: each chip's run carries a batched
	// tick-counting observer feeding the Prometheus counter, so
	// /metrics moves while fleets are in flight instead of jumping at
	// job completion. A configured chaos plan rides the same hook.
	// (In coordinator mode the chips simulate on the workers, which
	// wire the same observers into their own runs; the coordinator
	// ignores this hook.)
	job.Observers = s.chipObservers

	priorDone := len(results) - len(pending)
	s.mu.Lock()
	j.ChipsDone = priorDone
	s.mu.Unlock()

	var fresh []fleet.ChipResult
	var err error
	if len(job.Seeds) > 0 {
		fresh, err = s.engine.Run(ctx, job, func(done, total int) {
			s.metrics.chipsSimulated.Add(1)
			s.mu.Lock()
			j.ChipsDone = priorDone + done
			s.mu.Unlock()
		})
	}

	// Fill the pending seeds from this run so a recovered run reports
	// chips identically to an uninterrupted one.
	bySeed := make(map[uint64]fleet.ChipResult, len(fresh))
	for _, r := range fresh {
		if r.Err != nil {
			s.metrics.chipsFailed.Add(1)
		}
		bySeed[r.Seed] = r
	}
	for _, i := range pending {
		r, ok := bySeed[results[i].Seed]
		if !ok {
			r = fleet.ChipResult{Seed: results[i].Seed, Err: fmt.Errorf("chip was not simulated")}
		}
		results[i] = r
	}

	s.mu.Lock()
	j.finish(results, err, s.cfg.now())
	s.mu.Unlock()
	s.settled(j)
	s.evict()
}

// settled counts a job's terminal transition and journals it: done and
// failed jobs are marked complete, a client-canceled job leaves the
// store, and a job canceled otherwise (drain timeout) stays journaled so
// a restarted daemon re-enqueues it and continues from its checkpoints.
// The caller has just finished j and no longer holds the server mutex;
// a terminal job's fields no longer change.
func (s *server) settled(j *fleetJob) {
	if j.Status == statusDone {
		s.metrics.jobsDone.Add(1)
	} else {
		s.metrics.jobsFailed.Add(1)
	}
	switch {
	case s.cfg.store == nil:
	case j.Status != statusCanceled:
		if err := s.noteStore(s.cfg.store.MarkJobDone(j.Num, j.Finished.Unix())); err != nil {
			log.Printf("eccspecd: marking %s done: %v", j.ID, err)
		}
	case j.userCanceled:
		s.dropFromStore(j.Num)
	}
}

// dropFromStore removes a client-canceled or deleted job's record so a
// restarted daemon does not resurrect it.
func (s *server) dropFromStore(num uint64) {
	if s.cfg.store == nil {
		return
	}
	if err := s.cfg.store.EvictJob(num); err != nil {
		log.Printf("eccspecd: evicting canceled fleet f-%d from store: %v", num, err)
	}
}

// --- HTTP handlers ------------------------------------------------------

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// clientKey identifies a client for rate limiting: the API token when
// one is presented (Authorization or X-API-Key header), otherwise the
// remote address without its ephemeral port.
func clientKey(r *http.Request) string {
	if auth := r.Header.Get("Authorization"); auth != "" {
		return auth
	}
	if k := r.Header.Get("X-API-Key"); k != "" {
		return k
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// limited wraps a /v1 handler with the per-client rate limit. A nil
// limiter (rate limiting disabled) admits everything.
func (s *server) limited(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ok, retry := s.limiter.Allow(clientKey(r))
		if !ok {
			secs := int(retry/time.Second) + 1
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			s.metrics.rateLimited.Add(1)
			writeError(w, http.StatusTooManyRequests,
				"client rate limit exceeded (%g req/s, burst %d); retry in %ds",
				s.limiter.Rate(), s.limiter.Burst(), secs)
			return
		}
		h(w, r)
	}
}

// etagFor derives a completed job's entity tag. Every input is stable
// across daemon restarts (the completion stamp is journaled), so the
// tag is too.
func etagFor(j *fleetJob) string {
	return fmt.Sprintf("%q", fmt.Sprintf("%s-%d-%d-%s", j.ID, len(j.Results), j.Finished.Unix(), j.Status))
}

// notModified revalidates a completed job's representation. base is
// the job's tag ("" while its results can still change: no tag, no
// 304); a non-empty variant (a page window, a filtered trace) is folded
// into it, since the representation differs. It sets the ETag header
// and, when If-None-Match lists that tag or `*`, answers a bare 304
// before anything is serialized and reports true.
func (s *server) notModified(w http.ResponseWriter, r *http.Request, base, variant string) bool {
	if base == "" {
		return false
	}
	etag := base
	if variant != "" {
		etag = base[:len(base)-1] + ";" + variant + `"`
	}
	w.Header().Set("ETag", etag)
	for _, part := range strings.Split(r.Header.Get("If-None-Match"), ",") {
		if part = strings.TrimSpace(part); part == "*" || part == etag {
			s.metrics.notModified.Add(1)
			w.WriteHeader(http.StatusNotModified)
			return true
		}
	}
	return false
}

// pageParams parses the limit/offset pagination query parameters.
// set reports whether the client asked for a window at all; limit 0
// with set=true means "from offset to the end".
func pageParams(r *http.Request) (offset, limit int, set bool, err error) {
	q := r.URL.Query()
	if v := q.Get("offset"); v != "" {
		offset, err = strconv.Atoi(v)
		if err != nil || offset < 0 {
			return 0, 0, false, fmt.Errorf("bad offset %q", v)
		}
		set = true
	}
	if v := q.Get("limit"); v != "" {
		limit, err = strconv.Atoi(v)
		if err != nil || limit < 1 {
			return 0, 0, false, fmt.Errorf("bad limit %q (want a positive integer)", v)
		}
		set = true
	}
	return offset, limit, set, nil
}

// pageWindow clips [offset, offset+limit) to n items, returning the
// window bounds; limit 0 extends to the end.
func pageWindow(n, offset, limit int) (lo, hi int) {
	if offset > n {
		offset = n
	}
	hi = n
	if limit > 0 && offset+limit < n {
		hi = offset + limit
	}
	return offset, hi
}

func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req fleetRequest
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", tooBig.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	job, err := req.job()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "daemon is draining; not accepting new fleets")
		return
	}
	s.nextID++
	j := &fleetJob{
		ID:        fmt.Sprintf("f-%d", s.nextID),
		Num:       s.nextID,
		Job:       job,
		Status:    statusQueued,
		Submitted: s.cfg.now(),
	}
	// Persist the accepted job before acknowledging it: once the client
	// sees 202, a daemon crash no longer loses the submission. A commit
	// failure (the store has already burned its retry budget, or is
	// read-only) flips the daemon degraded and answers 503 + Retry-After;
	// the store rolls the job back out of memory, so nothing phantom
	// remains on either side. The attempt doubles as the recovery probe:
	// the first submission the healed journal commits clears the flag.
	if s.cfg.store != nil {
		if err := s.noteStore(s.cfg.store.AddJob(j.Num, job)); err != nil {
			s.nextID--
			s.mu.Unlock()
			w.Header().Set("Retry-After", degradedRetryAfter)
			writeError(w, http.StatusServiceUnavailable,
				"degraded: persisting job: %v; existing results remain available", err)
			return
		}
	}
	if err := s.queue.Push(j, job.Priority); err != nil {
		if s.cfg.store != nil {
			s.cfg.store.EvictJob(j.Num)
		}
		s.nextID--
		s.mu.Unlock()
		depth, capacity := s.queue.Depth(), s.queue.Capacity()
		w.Header().Set("Retry-After", shedRetryAfter)
		w.Header().Set("X-Queue-Depth", strconv.Itoa(depth))
		w.Header().Set("X-Queue-Capacity", strconv.Itoa(capacity))
		s.metrics.jobsShed.Add(1)
		writeError(w, http.StatusTooManyRequests, "job queue is full (%d/%d); retry later", depth, capacity)
		return
	}
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.metrics.jobsSubmitted.Add(1)
	st := s.statusLocked(j)
	s.mu.Unlock()

	w.Header().Set("Location", "/v1/fleets/"+j.ID)
	writeJSON(w, http.StatusAccepted, st)
}

// jobStatus is the wire form of a job's progress.
type jobStatus struct {
	ID         string  `json:"id"`
	Status     string  `json:"status"`
	Workload   string  `json:"workload,omitempty"`
	Policy     string  `json:"policy,omitempty"`
	Priority   int     `json:"priority,omitempty"`
	Seconds    float64 `json:"seconds"`
	ChipsTotal int     `json:"chips_total"`
	ChipsDone  int     `json:"chips_done"`
	Submitted  string  `json:"submitted_at"`
	ElapsedS   float64 `json:"elapsed_s,omitempty"`
	Error      string  `json:"error,omitempty"`
}

// statusLocked snapshots a job; the caller holds s.mu.
func (s *server) statusLocked(j *fleetJob) jobStatus {
	st := jobStatus{
		ID:         j.ID,
		Status:     j.Status,
		Workload:   j.Job.Workload,
		Policy:     j.Job.Policy,
		Priority:   j.Job.Priority,
		Seconds:    j.Job.Seconds,
		ChipsTotal: len(j.Job.Seeds),
		ChipsDone:  j.ChipsDone,
		Submitted:  j.Submitted.UTC().Format(time.RFC3339Nano),
		Error:      j.Err,
	}
	// A job that never started (canceled while queued) has no elapsed
	// time.
	if !j.Started.IsZero() {
		end := j.Finished
		if end.IsZero() {
			end = s.cfg.now()
		}
		st.ElapsedS = end.Sub(j.Started).Seconds()
	}
	return st
}

func (s *server) handleList(w http.ResponseWriter, r *http.Request) {
	offset, limit, paged, err := pageParams(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.mu.Lock()
	total := len(s.order)
	lo, hi := pageWindow(total, offset, limit)
	out := make([]jobStatus, 0, hi-lo)
	for _, id := range s.order[lo:hi] {
		out = append(out, s.statusLocked(s.jobs[id]))
	}
	s.mu.Unlock()
	resp := map[string]any{"fleets": out, "total": total}
	if paged {
		resp["offset"] = lo
		if hi < total {
			resp["next_offset"] = hi
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleCancel implements DELETE /v1/fleets/{id}. A job still waiting
// in the queue is removed immediately (it never starts), a running job
// has its simulation canceled, and a finished job is deleted from the
// table and the store.
func (s *server) handleCancel(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	if j == nil {
		s.mu.Unlock()
		writeError(w, http.StatusNotFound, "no fleet %q", r.PathValue("id"))
		return
	}
	switch j.Status {
	case statusQueued:
		j.userCanceled = true
		if _, ok := s.queue.Remove(func(x *fleetJob) bool { return x == j }); ok {
			j.finish(nil, errClientCancel, s.cfg.now())
			st := s.statusLocked(j)
			s.mu.Unlock()
			s.metrics.jobsCanceled.Add(1)
			s.settled(j)
			writeJSON(w, http.StatusOK, st)
			return
		}
		// The runner popped the job between our status read and the
		// Remove; userCanceled is already set, so runJob either skips
		// it at startup or the cancel below catches it mid-flight.
		fallthrough
	case statusRunning:
		j.userCanceled = true
		cancel := j.cancel
		st := s.statusLocked(j)
		s.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		s.metrics.jobsCanceled.Add(1)
		// 202: cancellation is underway; the job reaches "canceled"
		// once the workers unwind.
		writeJSON(w, http.StatusAccepted, st)
	default:
		// Terminal states: DELETE removes the record entirely.
		delete(s.jobs, j.ID)
		for i, id := range s.order {
			if id == j.ID {
				s.order = append(s.order[:i], s.order[i+1:]...)
				break
			}
		}
		num := j.Num
		s.mu.Unlock()
		s.dropFromStore(num)
		writeJSON(w, http.StatusOK, map[string]string{"id": j.ID, "status": "deleted"})
	}
}

// lookup fetches a job by path id, writing a 404 on a miss.
func (s *server) lookup(w http.ResponseWriter, r *http.Request) *fleetJob {
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if j == nil {
		writeError(w, http.StatusNotFound, "no fleet %q", r.PathValue("id"))
	}
	return j
}

func (s *server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	s.mu.Lock()
	st := s.statusLocked(j)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

// chipJSON is the wire form of one chip's outcome.
type chipJSON struct {
	Seed         uint64    `json:"seed"`
	Error        string    `json:"error,omitempty"`
	AvgReduction float64   `json:"avg_reduction,omitempty"`
	DomainVdd    []float64 `json:"domain_vdd,omitempty"`
	UncoreVdd    float64   `json:"uncore_vdd,omitempty"`
	AvgPowerW    float64   `json:"avg_power_w,omitempty"`
	Ticks        int       `json:"ticks"`
}

func (s *server) handleResults(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	offset, limit, paged, err := pageParams(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.Summary == nil {
		writeError(w, http.StatusConflict, "fleet %s is %s; results are available once it finishes", j.ID, j.Status)
		return
	}
	// The tag varies with the page window because the representation
	// does.
	variant := ""
	if paged {
		variant = fmt.Sprintf("o%d-l%d", offset, limit)
	}
	if s.notModified(w, r, j.Etag, variant) {
		return
	}
	sum := j.Summary
	resp := map[string]any{
		"id":             j.ID,
		"status":         j.Status,
		"policy":         policy.Resolve(j.Job.Policy),
		"chips":          sum.Chips,
		"failed":         sum.Failed,
		"nominal_v":      sum.NominalV,
		"mean_reduction": sum.MeanReduction,
		"min_reduction":  sum.MinReduction,
		"max_reduction":  sum.MaxReduction,
		"mean_power_w":   sum.MeanPowerW,
		"total_ticks":    sum.TotalTicks,
		"errors":         sum.Errors,
	}
	if sum.DomainVddHist != nil {
		resp["domain_vdd_hist"] = map[string]any{
			"lo_v":   sum.DomainVddHist.Lo,
			"hi_v":   sum.DomainVddHist.Hi,
			"counts": sum.DomainVddHist.Counts,
		}
	}
	lo, hi := pageWindow(len(j.Results), offset, limit) // unpaged: offset and limit are 0
	chips := make([]chipJSON, 0, hi-lo)
	for _, c := range j.Results[lo:hi] {
		cj := chipJSON{Seed: c.Seed, Ticks: c.Ticks}
		if c.Err != nil {
			cj.Error = c.Err.Error()
		} else {
			cj.AvgReduction = c.AvgReduction
			cj.DomainVdd = c.DomainVdd
			cj.UncoreVdd = c.UncoreVdd
			cj.AvgPowerW = c.AvgPowerW
		}
		chips = append(chips, cj)
	}
	resp["per_chip"] = chips
	if paged {
		page := map[string]any{"offset": lo, "returned": hi - lo}
		if hi < len(j.Results) {
			page["next_offset"] = hi
		}
		resp["page"] = page
	}
	s.metrics.resultEncodes.Add(1)
	writeJSON(w, http.StatusOK, resp)
}

func (s *server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	var seedFilter *uint64
	if q := r.URL.Query().Get("seed"); q != "" {
		v, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad seed %q", q)
			return
		}
		seedFilter = &v
	}

	s.mu.Lock()
	if j.Summary == nil {
		s.mu.Unlock()
		writeError(w, http.StatusConflict, "fleet %s is %s; the trace is available once it finishes", j.ID, j.Status)
		return
	}
	results := j.Results
	etag := j.Etag
	s.mu.Unlock()

	// A completed fleet's trace is as immutable as its results; the tag
	// varies with the seed filter because the representation does.
	variant := "trace"
	if seedFilter != nil {
		variant = fmt.Sprintf("trace-s%d", *seedFilter)
	}
	if s.notModified(w, r, etag, variant) {
		return
	}

	found := false
	for _, c := range results {
		if c.Trace != nil && (seedFilter == nil || c.Seed == *seedFilter) {
			found = true
			break
		}
	}
	if !found {
		writeError(w, http.StatusNotFound, "fleet %s recorded no matching trace (submit with trace_every > 0)", j.ID)
		return
	}

	// Stream the CSV in chunks instead of letting it pile up in the
	// response buffer: a million-chip trace is gigabytes, so rows are
	// rendered into a small reused buffer and pushed to the client
	// (bufio flush + http.Flusher) every traceFlushRows rows. The
	// daemon's memory use is bounded by one chunk regardless of fleet
	// size, and slow clients see data immediately.
	w.Header().Set("Content-Type", "text/csv")
	flusher, _ := w.(http.Flusher)
	bw := bufio.NewWriterSize(w, 64<<10)
	fmt.Fprintf(bw, "seed,time,%s\n", strings.Join(fleet.TraceColumns, ","))
	rows := 0
	var buf []byte
	for _, c := range results {
		if c.Trace == nil || (seedFilter != nil && c.Seed != *seedFilter) {
			continue
		}
		for i := 0; i < c.Trace.Len(); i++ {
			buf = strconv.AppendUint(buf[:0], c.Seed, 10)
			buf = append(buf, ',')
			buf = strconv.AppendFloat(buf, c.Trace.Time(i), 'g', -1, 64)
			for col := range fleet.TraceColumns {
				buf = append(buf, ',')
				buf = strconv.AppendFloat(buf, c.Trace.Value(i, col), 'g', -1, 64)
			}
			buf = append(buf, '\n')
			if _, err := bw.Write(buf); err != nil {
				return // client went away; nothing sensible left to do
			}
			rows++
			if rows%traceFlushRows == 0 {
				if err := bw.Flush(); err != nil {
					return
				}
				if flusher != nil {
					flusher.Flush()
				}
			}
		}
	}
	bw.Flush()
}

// traceFlushRows is how many CSV rows accumulate between explicit
// flushes of the trace stream.
const traceFlushRows = 4096

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	degraded, reason := s.health()
	status := "ok"
	switch {
	case draining:
		status = "draining"
	case degraded:
		status = "degraded"
	}
	resp := map[string]any{
		"status":     status,
		"version":    version.String(),
		"persistent": s.cfg.store != nil,
		"degraded":   degraded,
		"policies":   policy.Names(),
		"queue": map[string]int{
			"depth":    s.queue.Depth(),
			"capacity": s.queue.Capacity(),
		},
	}
	if s.limiter != nil {
		resp["rate_limit"] = map[string]any{
			"rate":  s.limiter.Rate(),
			"burst": s.limiter.Burst(),
		}
	}
	if degraded {
		resp["degraded_reason"] = reason
	}
	if role := s.role(); role != "" {
		resp["role"] = role
	}
	if c := s.cfg.coordinator; c != nil {
		counts := c.Membership().Counts()
		resp["cluster"] = map[string]any{
			"workers_total":       counts.Healthy + counts.Degraded + counts.Quarantined + counts.Dead,
			"workers_healthy":     counts.Healthy,
			"workers_degraded":    counts.Degraded,
			"workers_quarantined": counts.Quarantined,
			"workers_dead":        counts.Dead,
		}
	}
	if s.cfg.executor != nil {
		resp["coordinator"] = s.cfg.coordinatorURL
	}
	writeJSON(w, http.StatusOK, resp)
}
