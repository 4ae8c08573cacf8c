package cluster

// Coordinator: the multi-node counterpart of fleet.Engine. Run has the
// same shape as fleet.Engine.Run — same job type, same ordered result
// slice, same hook surface — so the daemon's job runner can drive a
// cluster exactly the way it drives a local worker pool.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"eccspec/internal/fleet"
	"eccspec/internal/rng"
	"eccspec/internal/store"
)

// NewTransport returns the bounded transport every cluster client
// should dial through: a dial timeout catches partitioned links, a
// response-header timeout catches black-holed requests, and there is
// deliberately no overall request timeout — exec streams are long-
// lived and pace themselves with progress keepalives instead.
func NewTransport() *http.Transport {
	return &http.Transport{
		DialContext: (&net.Dialer{
			Timeout:   5 * time.Second,
			KeepAlive: 15 * time.Second,
		}).DialContext,
		TLSHandshakeTimeout:   5 * time.Second,
		ResponseHeaderTimeout: 15 * time.Second,
		MaxIdleConnsPerHost:   16,
	}
}

// Config tunes a Coordinator.
type Config struct {
	// Membership is the worker registry the coordinator schedules
	// over (required).
	Membership *Membership
	// Client substitutes the dispatch HTTP client; nil selects one
	// built on Transport with no overall timeout (exec streams are
	// long-lived).
	Client *http.Client
	// Transport substitutes the default client's transport — the chaos
	// injector wraps the bounded default here; nil selects
	// NewTransport(). Ignored when Client is set.
	Transport http.RoundTripper
	// Retry bounds the per-worker dispatch retry loop: a failed
	// dispatch requeues its chips and retries after an exponential,
	// deterministically jittered backoff (the store's RetryPolicy
	// shape, seeded by Retry.JitterSeed) until the membership's
	// circuit breaker quarantines the worker. The zero value selects
	// the store defaults (2ms base, 250ms cap).
	Retry store.RetryPolicy
	// StallTimeout is the exec-stream watchdog: a stream that delivers
	// no event (progress keepalives included) for this long is
	// canceled, counted in Stats.StreamsStalled, and its chips
	// re-dispatched from their freshest checkpoints; <= 0 selects 60s.
	StallTimeout time.Duration
	// WorkerWait bounds how long a run waits for a healthy worker —
	// at the start, and again whenever the whole population dies
	// mid-job; <= 0 selects 30s.
	WorkerWait time.Duration
	// Logf substitutes the logger; nil selects log.Printf.
	Logf func(format string, args ...any)
}

// Stats are the coordinator's cumulative scheduling counters.
type Stats struct {
	// Dispatches counts exec calls sent to workers.
	Dispatches int64
	// ChipsDone counts chips completed remotely.
	ChipsDone int64
	// RemoteTicks sums the control ticks those chips simulated.
	RemoteTicks int64
	// ChipsStolen counts chips moved from a loaded worker's deque to
	// an idle one.
	ChipsStolen int64
	// ChipsMigrated counts in-flight chips re-queued off a dead,
	// degraded, or failed-dispatch worker.
	ChipsMigrated int64
	// Retries counts dispatch re-attempts scheduled by the backoff
	// loop after a failed dispatch.
	Retries int64
	// StreamsStalled counts exec streams the watchdog canceled for
	// silence.
	StreamsStalled int64
	// DupEvents counts stream events dropped by sequence-number
	// dedupe (replayed or duplicated tails).
	DupEvents int64
}

// Coordinator shards fleet jobs across the membership's workers.
type Coordinator struct {
	cfg    Config
	client *http.Client
	logf   func(format string, args ...any)

	dispatches atomic.Int64
	chipsDone  atomic.Int64
	ticks      atomic.Int64
	retries    atomic.Int64
	stalled    atomic.Int64
	dupEvents  atomic.Int64

	jitterMu sync.Mutex
	jitter   *rng.Stream // seeds dispatch-retry backoff (replayable)

	mu           sync.Mutex
	live         *runState // current run, nil between jobs
	baseStolen   int64     // folded-in counters of finished runs
	baseMigrated int64
}

// New builds a coordinator over the membership.
func New(cfg Config) *Coordinator {
	if cfg.WorkerWait <= 0 {
		cfg.WorkerWait = 30 * time.Second
	}
	if cfg.StallTimeout <= 0 {
		cfg.StallTimeout = 60 * time.Second
	}
	c := &Coordinator{
		cfg:    cfg,
		client: cfg.Client,
		logf:   cfg.Logf,
		jitter: rng.NewStream(cfg.Retry.JitterSeed, 0xC1A0),
	}
	if c.client == nil {
		rt := cfg.Transport
		if rt == nil {
			rt = NewTransport()
		}
		c.client = &http.Client{Transport: rt}
	}
	if c.logf == nil {
		c.logf = log.Printf
	}
	return c
}

// retryDelay draws the jittered backoff before dispatch retry number
// attempt (1-based) from the coordinator's seeded stream.
func (c *Coordinator) retryDelay(attempt int) time.Duration {
	c.jitterMu.Lock()
	defer c.jitterMu.Unlock()
	return c.cfg.Retry.Delay(c.jitter, attempt)
}

// Membership returns the worker registry the coordinator schedules
// over.
func (c *Coordinator) Membership() *Membership { return c.cfg.Membership }

// Stats returns the cumulative scheduling counters, live run included.
func (c *Coordinator) Stats() Stats {
	s := Stats{
		Dispatches:     c.dispatches.Load(),
		ChipsDone:      c.chipsDone.Load(),
		RemoteTicks:    c.ticks.Load(),
		Retries:        c.retries.Load(),
		StreamsStalled: c.stalled.Load(),
		DupEvents:      c.dupEvents.Load(),
	}
	c.mu.Lock()
	s.ChipsStolen, s.ChipsMigrated = c.baseStolen, c.baseMigrated
	if c.live != nil {
		st, mg := c.live.sched.stats()
		s.ChipsStolen += st
		s.ChipsMigrated += mg
	}
	c.mu.Unlock()
	return s
}

// Placement returns the current run's live seed→worker placement
// (latest assignment wins; migrated chips show their new home), or nil
// when no job is running.
func (c *Coordinator) Placement() map[uint64]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.live == nil {
		return nil
	}
	return c.live.placementCopy()
}

// InFlightOn counts chips currently dispatched to worker id.
func (c *Coordinator) InFlightOn(id string) int {
	c.mu.Lock()
	run := c.live
	c.mu.Unlock()
	if run == nil {
		return 0
	}
	return run.sched.inFlightOn(id)
}

// runState is the shared state of one Run: the job, the ordered result
// slice, the freshest checkpoint per unfinished seed, and the
// scheduler.
type runState struct {
	job        fleet.Job
	idx        map[uint64]int // seed -> result position
	results    []fleet.ChipResult
	sched      *scheduler
	onProgress func(done, total int)

	ckptMu sync.Mutex
	ckpts  map[uint64][]byte // freshest checkpoint per unfinished seed

	placeMu   sync.Mutex
	placement map[uint64]string

	emitMu sync.Mutex // serializes result delivery + callbacks
}

// deliver records one finished chip exactly once: the first completion
// wins (a migration can race a chip onto two workers), the duplicate
// is dropped. Returns whether this was the first.
func (r *runState) deliver(res fleet.ChipResult) bool {
	i, ok := r.idx[res.Seed]
	if !ok {
		return false
	}
	r.emitMu.Lock()
	defer r.emitMu.Unlock()
	first, done := r.sched.claimComplete(i)
	if !first {
		return false
	}
	r.results[i] = res
	if r.job.OnResult != nil {
		r.job.OnResult(res)
	}
	if r.onProgress != nil {
		r.onProgress(done, len(r.results))
	}
	r.ckptMu.Lock()
	delete(r.ckpts, res.Seed)
	r.ckptMu.Unlock()
	return true
}

// placementCopy snapshots the live placement map.
func (r *runState) placementCopy() map[uint64]string {
	r.placeMu.Lock()
	defer r.placeMu.Unlock()
	out := make(map[uint64]string, len(r.placement))
	for k, v := range r.placement {
		out[k] = v
	}
	return out
}

// failRemaining stamps err on every chip that never completed.
func (r *runState) failRemaining(err error) {
	r.emitMu.Lock()
	defer r.emitMu.Unlock()
	r.sched.mu.Lock()
	defer r.sched.mu.Unlock()
	for i, done := range r.sched.completed {
		if !done {
			r.results[i] = fleet.ChipResult{Seed: r.job.Seeds[i], Err: err}
		}
	}
}

// Run shards the job's chips across the registered healthy workers and
// returns one ChipResult per seed in input order — byte-identical (in
// every serialized field) to fleet.Engine.Run of the same job on one
// node. Per-chip failures land in the chip's Err exactly as they do
// locally; Run itself errors on an invalid job, a canceled context, or
// a cluster with no healthy workers for longer than WorkerWait. The
// job's hooks are honored: OnAssign on every (re)placement,
// OnCheckpoint for every checkpoint streamed back, OnResult as chips
// finish, Resume blobs shipped to whichever worker draws the seed.
func (c *Coordinator) Run(ctx context.Context, job fleet.Job, onProgress func(done, total int)) ([]fleet.ChipResult, error) {
	if err := job.Validate(); err != nil {
		return nil, err
	}
	n := len(job.Seeds)
	run := &runState{
		job:        job,
		idx:        make(map[uint64]int, n),
		results:    make([]fleet.ChipResult, n),
		sched:      newScheduler(n),
		onProgress: onProgress,
		ckpts:      make(map[uint64][]byte, len(job.Resume)),
		placement:  make(map[uint64]string, n),
	}
	for i, s := range job.Seeds {
		run.idx[s] = i
		if blob, ok := job.Resume[s]; ok {
			run.ckpts[s] = blob
		}
	}

	// Wait for a population to schedule onto.
	members, err := c.waitWorkers(ctx)
	if err != nil {
		run.failRemaining(err)
		return run.results, err
	}

	// Initial shard: contiguous even ranges across the healthy set in
	// ID order. Late joiners start empty and steal.
	for k, m := range members {
		lo, hi := k*n/len(members), (k+1)*n/len(members)
		chips := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			chips = append(chips, i)
		}
		run.sched.addWorker(m.ID)
		run.sched.seed(m.ID, chips)
	}

	c.mu.Lock()
	c.live = run
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		st, mg := run.sched.stats()
		c.baseStolen += st
		c.baseMigrated += mg
		c.live = nil
		c.mu.Unlock()
	}()

	// One agent goroutine per worker. The monitor (below, on the Run
	// goroutine) spawns agents for joiners and cancels them for
	// workers gone dead or degraded; an agent also retires itself when
	// its worker breaks a dispatch stream.
	var (
		wg       sync.WaitGroup
		agentsMu sync.Mutex
		agents   = make(map[string]context.CancelFunc)
		exited   = make(chan struct{}, 1) // an agent retired since the last scan
	)
	spawn := func(m Member) {
		run.sched.addWorker(m.ID)
		actx, cancel := context.WithCancel(ctx)
		agentsMu.Lock()
		agents[m.ID] = cancel
		agentsMu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer cancel()
			c.agent(actx, run, m)
			agentsMu.Lock()
			delete(agents, m.ID)
			agentsMu.Unlock()
			select {
			case exited <- struct{}{}:
			default:
			}
		}()
	}
	for _, m := range members {
		spawn(m)
	}

	// The monitor rescans the membership when something it depends on
	// happens, never on a fixed period: the last chip completing, a
	// membership change, an agent retiring, or the next moment the view
	// can change by itself — a live member's TTL running out, a
	// quarantined member's probe gate opening, or the stall window
	// closing, all three timed on the membership's clock.
	var stallSince time.Time
	var runErr error
	for !run.sched.finished() {
		if ctx.Err() != nil {
			runErr = ctx.Err()
			break
		}
		view, now, changed := c.cfg.Membership.watch()
		next := now.Add(c.cfg.WorkerWait) // a bound; anything due sooner replaces it
		due := func(t time.Time) {
			if t.Before(next) {
				next = t
			}
		}
		healthy := 0
		for _, m := range view {
			if m.State != StateDead {
				due(m.LastBeat.Add(c.cfg.Membership.TTL()))
			}
			agentsMu.Lock()
			cancel, running := agents[m.ID]
			agentsMu.Unlock()
			switch {
			case m.State == StateHealthy:
				healthy++
				if !running {
					spawn(m)
				}
			case m.State == StateQuarantined:
				// Half-open probe: once the backoff gate passes, give
				// the worker one agent whose first dispatch is a trial
				// batch of one chip. A running probe is left alone —
				// its own success or failure settles the state.
				switch {
				case running:
				case now.Before(m.ProbeAt):
					due(m.ProbeAt)
				default:
					c.logf("cluster: probing quarantined worker %s with a trial dispatch", m.ID)
					spawn(m)
				}
			case running:
				cancel() // agent requeues its chips and exits
			}
		}
		if healthy > 0 {
			stallSince = time.Time{}
		} else {
			if stallSince.IsZero() {
				stallSince = now
			}
			giveUp := stallSince.Add(c.cfg.WorkerWait)
			if !now.Before(giveUp) {
				runErr = fmt.Errorf("cluster: job stalled: no healthy workers for %v", c.cfg.WorkerWait)
				break
			}
			due(giveUp)
		}
		wake := time.NewTimer(next.Sub(now))
		select {
		case <-run.sched.over:
		case <-ctx.Done():
		case <-changed:
		case <-exited:
		case <-wake.C:
		}
		wake.Stop()
	}
	run.sched.cancel()
	wg.Wait()

	if runErr == nil && ctx.Err() != nil {
		runErr = ctx.Err()
	}
	if runErr != nil {
		run.failRemaining(runErr)
	}
	return run.results, runErr
}

// waitWorkers blocks until the membership has at least one healthy
// worker, up to WorkerWait.
func (c *Coordinator) waitWorkers(ctx context.Context) ([]Member, error) {
	timeout := time.NewTimer(c.cfg.WorkerWait)
	defer timeout.Stop()
	for {
		members, _, changed := c.cfg.Membership.watch()
		if h := healthyOnly(members); len(h) > 0 {
			return h, nil
		}
		select {
		case <-changed:
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-timeout.C:
			return nil, fmt.Errorf("cluster: no healthy workers registered within %v", c.cfg.WorkerWait)
		}
	}
}

// agent is one worker's dispatch loop: draw a batch, stream it, repeat
// until the job finishes or the worker fails for good. A failed
// dispatch (broken stream, stalled stream, refused connection)
// immediately requeues the batch's unfinished chips with their
// freshest checkpoints, then retries this worker after a jittered
// exponential backoff — until the membership's circuit breaker
// quarantines it, at which point its deque migrates to the orphan pool
// and the agent retires. The monitor spawns a fresh agent for the
// half-open probe when the quarantine backoff gate passes; that
// agent's first dispatch is a trial batch of one chip.
func (c *Coordinator) agent(ctx context.Context, run *runState, m Member) {
	// One dispatch fills the worker's whole pool; anything more would
	// hoard chips an idle peer could steal.
	batch := max(m.Slots, 1)
	trial := m.State == StateQuarantined
	fails := 0
	for {
		b := batch
		if trial {
			b = 1
		}
		chips, ok := run.sched.next(m.ID, b)
		if !ok {
			return
		}
		err := c.dispatch(ctx, run, m, chips)
		if err == nil {
			if trial {
				c.logf("cluster: worker %s survived its trial dispatch; back in rotation", m.ID)
			}
			trial, fails = false, 0
			c.cfg.Membership.RecordExecSuccess(m.ID)
			continue
		}
		// The batch's unfinished chips go straight back to the pool —
		// another worker can pick them up while this one backs off.
		run.sched.release(chips)
		if ctx.Err() != nil {
			return
		}
		fails++
		c.logf("cluster: worker %s failed dispatch (%d consecutive: %v)", m.ID, fails, err)
		if c.cfg.Membership.RecordExecFailure(m.ID, err.Error()) {
			c.logf("cluster: worker %s quarantined; migrating its queue", m.ID)
			run.sched.removeWorker(m.ID)
			return
		}
		c.retries.Add(1)
		sleepCtx(ctx, c.retryDelay(fails))
	}
}

// dispatch ships one batch to a worker and consumes its event stream.
// A nil return means the batch ran to completion (individual chip
// failures included — those are results, not transport errors); any
// error means the worker could not be trusted to finish and the caller
// must migrate.
func (c *Coordinator) dispatch(ctx context.Context, run *runState, m Member, chips []int) error {
	seeds := make([]uint64, len(chips))
	for i, ci := range chips {
		seeds[i] = run.job.Seeds[ci]
	}
	task := Task{Spec: run.job.WithSeeds(seeds)}
	run.ckptMu.Lock()
	for _, s := range seeds {
		if blob, ok := run.ckpts[s]; ok {
			if task.Resume == nil {
				task.Resume = make(map[uint64][]byte)
			}
			task.Resume[s] = blob
		}
	}
	run.ckptMu.Unlock()

	run.placeMu.Lock()
	for _, s := range seeds {
		run.placement[s] = m.ID
	}
	run.placeMu.Unlock()
	if run.job.OnAssign != nil {
		for _, s := range seeds {
			run.job.OnAssign(s, m.ID)
		}
	}
	c.dispatches.Add(1)

	body, err := json.Marshal(task)
	if err != nil {
		return fmt.Errorf("encoding task: %w", err)
	}
	// The stream gets its own cancel so the stall watchdog can cut it
	// without touching the agent's context.
	dctx, cancelStream := context.WithCancel(ctx)
	defer cancelStream()
	req, err := http.NewRequestWithContext(dctx, http.MethodPost, m.URL+PathExec, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusBadRequest {
		// A task rejection is deterministic — re-dispatching the same
		// chips would reject forever — so it fails the chips, not the
		// worker.
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		reject := fmt.Errorf("cluster: worker %s rejected task: %s", m.ID, bytes.TrimSpace(msg))
		for _, s := range seeds {
			run.deliver(fleet.ChipResult{Seed: s, Err: reject})
		}
		return nil
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("exec on %s: HTTP %d", m.ID, resp.StatusCode)
	}

	// Stall watchdog: a healthy worker's stream always has traffic —
	// checkpoints, results, or progress keepalives. Silence past
	// StallTimeout means the connection is wedged (a black-holed link
	// keeps the TCP session up but delivers nothing), so the watchdog
	// cancels the stream; the caller requeues the chips and their
	// freshest checkpoints re-dispatch elsewhere.
	stall := c.cfg.StallTimeout
	var stalledHere atomic.Bool
	dog := time.AfterFunc(stall, func() {
		stalledHere.Store(true)
		cancelStream()
	})
	defer dog.Stop()

	dec := json.NewDecoder(resp.Body)
	var lastSeq int64
	for {
		var ev Event
		if err := dec.Decode(&ev); err != nil {
			if stalledHere.Load() && ctx.Err() == nil {
				c.stalled.Add(1)
				return fmt.Errorf("exec stream from %s: no events for %v (stalled)", m.ID, stall)
			}
			return fmt.Errorf("exec stream from %s: %w", m.ID, err)
		}
		dog.Reset(stall)
		// Sequence dedupe: a duplicated or replayed stream tail re-
		// delivers events the coordinator has already applied. Numbered
		// events (Seq > 0) are idempotent — anything at or below the
		// high-water mark is dropped here.
		if ev.Seq > 0 {
			if ev.Seq <= lastSeq {
				c.dupEvents.Add(1)
				continue
			}
			lastSeq = ev.Seq
		}
		switch ev.Type {
		case EventProgress:
			// Keepalive: its only job was resetting the watchdog.
		case EventCheckpoint:
			run.ckptMu.Lock()
			run.ckpts[ev.Seed] = ev.Blob
			run.ckptMu.Unlock()
			if run.job.OnCheckpoint != nil {
				run.job.OnCheckpoint(ev.Seed, ev.Ticks, ev.Blob)
			}
		case EventResult:
			if ev.Chip == nil {
				continue
			}
			// A chip aborted by the worker's request context is not a
			// real result — it races a migration (the coordinator just
			// canceled this stream) and the chip is owed a re-run.
			if ev.Chip.Err == context.Canceled.Error() || ev.Chip.Err == context.DeadlineExceeded.Error() {
				continue
			}
			res, err := ev.Chip.ToResult()
			if err != nil {
				res = fleet.ChipResult{Seed: ev.Seed,
					Err: fmt.Errorf("cluster: undecodable result from %s: %v", m.ID, err)}
			}
			if run.deliver(res) {
				c.chipsDone.Add(1)
				c.ticks.Add(int64(res.Ticks))
				c.cfg.Membership.AddChipsDone(m.ID, 1)
			}
		case EventError:
			// The worker's engine refused or aborted the whole task
			// (in practice: its request context was canceled). The
			// chips are still owed — treat it like a broken stream.
			return fmt.Errorf("exec on %s: %s", m.ID, ev.Err)
		case EventDone:
			// Defensive: re-queue anything the worker somehow skipped.
			run.sched.release(chips)
			return nil
		}
	}
}

// sleepCtx sleeps for d or until ctx is canceled.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}
