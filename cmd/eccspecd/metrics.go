package main

import (
	"fmt"
	"net/http"
	"sync/atomic"
	"time"
)

// metrics holds the daemon's monotonic counters. Queue-state gauges
// are read off the job table at scrape time; only the counters that
// must survive job deletion live here.
type metrics struct {
	start          time.Time
	jobsSubmitted  atomic.Int64
	jobsDone       atomic.Int64
	jobsFailed     atomic.Int64
	jobsEvicted    atomic.Int64
	jobsShed       atomic.Int64
	jobsCanceled   atomic.Int64
	rateLimited    atomic.Int64
	notModified    atomic.Int64
	resultEncodes  atomic.Int64
	chipsSimulated atomic.Int64
	chipsFailed    atomic.Int64
	simTicks       atomic.Int64
}

// handleMetrics renders the Prometheus text exposition format (version
// 0.0.4) straight from its sources: the counters above, the job table,
// the admission queue, the journal and, on a coordinator, the cluster's
// scheduling stats and membership.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	queued, running := 0, 0
	for _, j := range s.jobs {
		switch j.Status {
		case statusQueued:
			queued++
		case statusRunning:
			running++
		}
	}
	s.mu.Unlock()
	m := s.metrics
	up := s.cfg.now().Sub(m.start).Seconds()
	ticks := m.simTicks.Load()
	rate := 0.0
	if up > 0 {
		rate = float64(ticks) / up
	}
	var storeRetries int64
	if s.cfg.store != nil {
		storeRetries = s.cfg.store.Retries()
	}
	degraded := 0.0
	if s.degraded.Load() {
		degraded = 1
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge("eccspecd_jobs_queued", "Fleet jobs waiting for the runner.", float64(queued))
	gauge("eccspecd_jobs_running", "Fleet jobs currently simulating.", float64(running))
	gauge("eccspecd_queue_depth", "Jobs currently held in the bounded admission queue.", float64(s.queue.Depth()))
	gauge("eccspecd_queue_capacity", "Admission queue bound; submissions past it are shed with 429.", float64(s.queue.Capacity()))
	counter("eccspecd_jobs_submitted_total", "Fleet jobs accepted since start.", m.jobsSubmitted.Load())
	counter("eccspecd_jobs_done_total", "Fleet jobs completed successfully.", m.jobsDone.Load())
	counter("eccspecd_jobs_failed_total", "Fleet jobs that failed or were cancelled.", m.jobsFailed.Load())
	counter("eccspecd_jobs_evicted_total", "Completed fleet jobs evicted by the retention policy.", m.jobsEvicted.Load())
	counter("eccspecd_jobs_shed_total", "Submissions refused with 429 because the admission queue was full.", m.jobsShed.Load())
	counter("eccspecd_jobs_canceled_total", "Jobs canceled by client DELETE.", m.jobsCanceled.Load())
	counter("eccspecd_rate_limited_total", "Requests refused with 429 by the per-client rate limit.", m.rateLimited.Load())
	counter("eccspecd_http_not_modified_total", "Conditional GETs answered 304 without re-serializing results.", m.notModified.Load())
	counter("eccspecd_result_encodes_total", "Full serializations of a /results response body.", m.resultEncodes.Load())
	counter("eccspecd_chips_simulated_total", "Chip simulations completed.", m.chipsSimulated.Load())
	counter("eccspecd_chips_failed_total", "Chip simulations that ended in an error (including recovered worker panics).", m.chipsFailed.Load())
	counter("eccspecd_store_retries_total", "Journal commit points that needed the bounded-retry path.", storeRetries)
	gauge("eccspecd_degraded", "1 while the journal is unwritable and new fleets get 503s.", degraded)
	counter("eccspecd_sim_ticks_total", "Control ticks simulated across all fleets.", ticks)
	gauge("eccspecd_sim_ticks_per_second", "Lifetime average simulation throughput.", rate)
	gauge("eccspecd_uptime_seconds", "Seconds since the daemon started.", up)
	c := s.cfg.coordinator
	if c == nil {
		return
	}
	st, counts := c.Stats(), c.Membership().Counts()
	gauge("eccspecd_cluster_workers_healthy", "Registered workers accepting work.", float64(counts.Healthy))
	gauge("eccspecd_cluster_workers_degraded", "Registered workers reporting degraded; no new work.", float64(counts.Degraded))
	gauge("eccspecd_cluster_workers_quarantined", "Workers tripped by the dispatch circuit breaker, awaiting a half-open probe.", float64(counts.Quarantined))
	gauge("eccspecd_cluster_workers_dead", "Registered workers past the heartbeat TTL or failed mid-batch.", float64(counts.Dead))
	counter("eccspecd_cluster_dispatches_total", "Chip batches dispatched to workers.", st.Dispatches)
	counter("eccspecd_cluster_chips_done_total", "Chips completed on remote workers.", st.ChipsDone)
	counter("eccspecd_cluster_remote_ticks_total", "Control ticks simulated on remote workers.", st.RemoteTicks)
	counter("eccspecd_cluster_chips_stolen_total", "Chips moved from a loaded worker's queue to an idle one.", st.ChipsStolen)
	counter("eccspecd_cluster_chips_migrated_total", "In-flight chips re-queued off a dead, degraded, or failed-dispatch worker.", st.ChipsMigrated)
	counter("eccspecd_cluster_dispatch_retries_total", "Dispatch re-attempts scheduled by the backoff loop after a failure.", st.Retries)
	counter("eccspecd_cluster_streams_stalled_total", "Exec streams the stall watchdog canceled for silence.", st.StreamsStalled)
	counter("eccspecd_cluster_dup_events_total", "Stream events dropped by sequence-number dedupe.", st.DupEvents)
	counter("eccspecd_cluster_quarantines_total", "Workers quarantined by the dispatch circuit breaker since start.", c.Membership().Quarantines())
}
