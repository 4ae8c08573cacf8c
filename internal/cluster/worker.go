package cluster

// Worker side of the cluster: the streaming execution endpoint a
// worker daemon serves, and the register/heartbeat client loop that
// keeps it in the coordinator's membership.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"log"
	"net/http"
	"sync"
	"time"

	"eccspec/internal/engine"
	"eccspec/internal/fleet"
	"eccspec/internal/rng"
	"eccspec/internal/store"
)

// maxTaskBytes bounds an exec request body. Tasks carry resume blobs
// (a snapshot per migrating chip), so the cap is far above the fleet
// API's: 64 MiB covers hundreds of checkpoints.
const maxTaskBytes = 64 << 20

// Executor runs dispatched chip ranges on a local fleet engine,
// streaming checkpoints and results back as they happen.
type Executor struct {
	// Engine is the local worker pool the chips run on.
	Engine *fleet.Engine
	// Observers, when set, supplies extra per-chip engine observers —
	// the worker daemon plugs its tick metrics and chaos injector in
	// here, exactly as it does for locally submitted fleets.
	Observers func(seed uint64) []engine.Observer
	// KeepAlive is the progress-keepalive period: while a task runs,
	// the stream emits an empty progress event at least this often so
	// the coordinator's stall watchdog can tell "slow chip" from
	// "wedged connection"; <= 0 selects 5s.
	KeepAlive time.Duration
}

// HandleExec serves PathExec: decode a Task, run it, and stream one
// JSON event per line (checkpoints as they pass, results as chips
// finish, a final done marker). The response is flushed after every
// event so the coordinator always holds the freshest checkpoint of
// every in-flight chip — that blob is what migration resumes from if
// this process dies mid-batch.
func (e *Executor) HandleExec(w http.ResponseWriter, r *http.Request) {
	var task Task
	body := http.MaxBytesReader(w, r.Body, maxTaskBytes)
	if err := json.NewDecoder(body).Decode(&task); err != nil {
		http.Error(w, fmt.Sprintf(`{"error":"bad task: %v"}`, err), http.StatusBadRequest)
		return
	}
	job := task.Spec
	if err := job.Validate(); err != nil {
		http.Error(w, fmt.Sprintf(`{"error":%q}`, err.Error()), http.StatusBadRequest)
		return
	}
	job.Resume = task.Resume
	job.Observers = e.Observers

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	var (
		mu     sync.Mutex
		seq    int64
		closed bool
	)
	enc := json.NewEncoder(w)
	// Every event carries a monotone per-stream sequence number so the
	// coordinator can dedupe a duplicated or replayed tail.
	emit := func(ev Event) {
		mu.Lock()
		defer mu.Unlock()
		if closed {
			return
		}
		seq++
		ev.Seq = seq
		enc.Encode(ev)
		if flusher != nil {
			flusher.Flush()
		}
	}
	// The keepalive goroutine must never touch the ResponseWriter after
	// the handler returns; the closed flag fences it.
	defer func() {
		mu.Lock()
		closed = true
		mu.Unlock()
	}()
	keepAlive := e.KeepAlive
	if keepAlive <= 0 {
		keepAlive = 5 * time.Second
	}
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		t := time.NewTicker(keepAlive)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-r.Context().Done():
				return
			case <-t.C:
				emit(Event{Type: EventProgress})
			}
		}
	}()
	job.OnCheckpoint = func(seed uint64, ticks int, blob []byte) {
		emit(Event{Type: EventCheckpoint, Seed: seed, Ticks: ticks, Blob: blob})
	}
	job.OnResult = func(res fleet.ChipResult) {
		rec := store.FromResult(res)
		emit(Event{Type: EventResult, Seed: res.Seed, Chip: &rec})
	}

	// The request context aborts the run the moment the coordinator
	// cancels or the connection drops, so a chip migrated off this
	// worker stops burning its CPU here.
	if _, err := e.Engine.Run(r.Context(), job, nil); err != nil {
		emit(Event{Type: EventError, Err: err.Error()})
		return
	}
	emit(Event{Type: EventDone})
}

// MemberConfig drives RunMember, a worker daemon's registration and
// heartbeat loop.
type MemberConfig struct {
	// Coordinator is the coordinator's base URL.
	Coordinator string
	// Info is this worker's registration record.
	Info RegisterRequest
	// Retry shapes the registration backoff: failed register attempts
	// wait exponentially longer with deterministic seeded jitter. The
	// zero value selects 250ms base, 4s cap; a zero JitterSeed derives
	// one from the worker ID, so every worker backs off on its own
	// replayable schedule — no thundering herd after a coordinator
	// restart.
	Retry store.RetryPolicy
	// Degraded, when set, reports the worker's degraded state on each
	// heartbeat (the daemon wires its journal-health flag in here).
	Degraded func() (degraded bool, reason string)
	// Client substitutes the HTTP client; nil selects a 10s-timeout
	// default on the bounded cluster transport.
	Client *http.Client
	// Logf substitutes the logger; nil selects log.Printf.
	Logf func(format string, args ...any)
}

// RunMember registers the worker with the coordinator (retrying with
// jittered exponential backoff until it succeeds — the coordinator may
// come up later) and then heartbeats until ctx is canceled, five times
// per liveness TTL the registration answer names (DefaultTTL when it
// names none). Each wait is jittered by ±1/8 of the period from the
// worker's seeded stream, so a fleet of workers that lost their
// coordinator at the same instant drifts apart instead of knocking in
// lockstep. A heartbeat answered 404 means the coordinator restarted
// and lost its membership, so the loop re-registers — that is what
// lets a restarted coordinator resume a journaled job: its workers
// walk right back in, desynchronized by their per-worker jitter.
func RunMember(ctx context.Context, cfg MemberConfig) {
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 10 * time.Second, Transport: NewTransport()}
	}
	if cfg.Retry.BaseDelay <= 0 {
		cfg.Retry.BaseDelay = 250 * time.Millisecond
	}
	if cfg.Retry.MaxDelay <= 0 {
		cfg.Retry.MaxDelay = 4 * time.Second
	}
	if cfg.Retry.JitterSeed == 0 {
		h := fnv.New64a()
		h.Write([]byte(cfg.Info.ID))
		cfg.Retry.JitterSeed = h.Sum64()
	}
	jitter := rng.NewStream(cfg.Retry.JitterSeed, 0xBEA7)
	logf := cfg.Logf
	if logf == nil {
		logf = log.Printf
	}

	// post sends v and decodes a 200 answer into out, when out is set.
	post := func(path string, v, out any) (int, error) {
		body, err := json.Marshal(v)
		if err != nil {
			return 0, err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			cfg.Coordinator+path, bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := cfg.Client.Do(req)
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		if out != nil && resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				return resp.StatusCode, fmt.Errorf("decoding answer: %w", err)
			}
		}
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}

	// The heartbeat period is a fifth of the TTL the coordinator
	// answers the registration with.
	var interval time.Duration
	register := func() bool {
		var ack RegisterResponse
		code, err := post(PathRegister, cfg.Info, &ack)
		if err != nil || code != http.StatusOK {
			if ctx.Err() == nil {
				logf("cluster: registering with %s: code %d err %v (will retry)", cfg.Coordinator, code, err)
			}
			return false
		}
		ttl := time.Duration(ack.TTLSeconds * float64(time.Second))
		if ttl <= 0 {
			ttl = DefaultTTL
		}
		interval = ttl / 5
		logf("cluster: registered with %s as %s (heartbeat every %v)", cfg.Coordinator, cfg.Info.ID, interval)
		return true
	}

	// beatWait is the jittered heartbeat period: interval ± 1/8,
	// drawn from the worker's seeded stream.
	beatWait := func() time.Duration {
		j := interval / 8
		if j <= 0 {
			return interval
		}
		return interval - j + time.Duration(jitter.Uint64()%uint64(2*j+1))
	}

	for ctx.Err() == nil {
		// (Re-)register with jittered exponential backoff.
		for attempt := 1; !register(); attempt++ {
			if ctx.Err() != nil {
				return
			}
			sleepCtx(ctx, cfg.Retry.Delay(jitter, attempt))
			if ctx.Err() != nil {
				return
			}
		}
		// Heartbeat until the coordinator forgets us (a restart) or ctx
		// ends. Transport errors don't drop registration — the TTL
		// tolerates a few missed beats, and the next beat may get
		// through.
		for registered := true; registered; {
			sleepCtx(ctx, beatWait())
			if ctx.Err() != nil {
				return
			}
			hb := HeartbeatRequest{ID: cfg.Info.ID}
			if cfg.Degraded != nil {
				hb.Degraded, hb.Reason = cfg.Degraded()
			}
			code, err := post(PathHeartbeat, hb, nil)
			switch {
			case err != nil:
				if ctx.Err() == nil {
					logf("cluster: heartbeat to %s failed: %v", cfg.Coordinator, err)
				}
			case code == http.StatusNotFound:
				logf("cluster: coordinator no longer knows %s; re-registering", cfg.Info.ID)
				registered = false
			}
		}
	}
}
